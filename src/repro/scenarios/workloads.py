"""The unified workload protocol and the registered workloads.

Before this layer existed each application model exposed its own ``run()``
signature (``FxmarkDWSL(stack, num_threads=...).run(ops)`` vs
``SQLiteWorkload(stack, journal_mode=...).run(inserts)`` ...), so every new
scenario meant new wiring code.  :class:`Workload` gives them one shape:

* construct with keyword parameters (validated against ``PARAMS``);
* ``prepare(stack, scale=..., seed=...)`` binds the workload to a built
  stack, seeds its ``random.Random`` from ``StackConfig.seed`` and fixes the
  iteration-count multiplier;
* ``run()`` executes and returns a uniform :class:`WorkloadResult` with
  operation counts, elapsed simulated time and a latency recorder.

:data:`WORKLOADS` registers the paper's four applications, the raw
write+sync loop of :mod:`repro.analysis.measure`, the block-level
scenarios of :mod:`repro.experiments.blocklevel`, and two server workloads
beyond the paper's evaluation — ``postgres-wal`` (WAL append + fsync with
periodic checkpoints) and ``rocksdb-compaction`` (memtable flushes and
multi-file compactions).  Workloads whose historical
default random streams predate seed threading derive their RNG seed as a
fixed offset from the scenario seed (varmail: +7, block-level: +1) so the
published tables stay bit-identical at the default seed of 0.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.analysis.measure import measure_sync_latency
from repro.apps.fxmark import FxmarkDWSL
from repro.apps.mysql import MySQLOLTPInsert
from repro.apps.sqlite import SQLiteJournalMode, SQLiteWorkload
from repro.apps.varmail import VarmailWorkload
from repro.core.stack import IOStack
from repro.scenarios.registry import Registry
from repro.simulation.stats import LatencyRecorder, LatencySummary

#: Registered workload classes, by name.
WORKLOADS: Registry[type["Workload"]] = Registry("workload")


@dataclass
class WorkloadResult:
    """Uniform outcome of one workload run.

    ``operations`` counts whatever the workload's natural unit is (sync
    calls, inserts, transactions, filebench ops, block writes); dividing by
    the elapsed simulated time gives the throughput every figure reports.
    Workload-specific observations (context switches, queue depths, journal
    commits, ...) ride along in ``extra``.
    """

    workload: str
    operations: int
    elapsed_usec: float
    latencies: Optional[LatencyRecorder] = None
    extra: dict[str, object] = field(default_factory=dict)
    #: Device and block-layer counter snapshot taken after the run
    #: (:func:`repro.scenarios.engine.collect_device_stats`); ``None`` for
    #: workloads that build no stack.  This is what puts fault counters
    #: (io_errors, retries, requeues, power failures) into sweep rows.
    device_stats: Optional[dict[str, dict[str, object]]] = None

    @property
    def ops_per_second(self) -> float:
        """Operations per second of simulated time."""
        if self.elapsed_usec <= 0:
            return 0.0
        return self.operations / (self.elapsed_usec / 1_000_000.0)

    def latency_summary(self) -> Optional[LatencySummary]:
        """Percentile summary of the recorded latencies, if any."""
        if self.latencies is None or not len(self.latencies):
            return None
        return self.latencies.summary()


class Workload(abc.ABC):
    """Base class of the workload protocol.

    Subclasses set ``name`` (the registry key), ``PARAMS`` (the accepted
    constructor keywords) and implement :meth:`run`.  Workloads that drive
    the storage stack below the filesystem set ``needs_stack = False`` and
    receive ``stack=None`` plus the target device name in ``self.device``.
    """

    name: ClassVar[str] = ""
    needs_stack: ClassVar[bool] = True
    PARAMS: ClassVar[tuple[str, ...]] = ()
    #: Parameters consumed only by the measured phase (:meth:`run`), never by
    #: :meth:`warm`.  Specs that differ solely in these can share one warm
    #: prefix: the snapshot engine (:mod:`repro.snapshot`) runs :meth:`warm`
    #: once and forks every parameter point from the warmed process image.
    SUFFIX_PARAMS: ClassVar[tuple[str, ...]] = ()

    def __init__(self, **params: object):
        unknown = sorted(set(params) - set(self.PARAMS))
        if unknown:
            raise ValueError(
                f"{self.name or type(self).__name__}: unknown parameters {unknown}; "
                f"accepted: {sorted(self.PARAMS)}"
            )
        self.params = params
        self.stack: Optional[IOStack] = None
        self.device: Optional[str] = None
        self.scale = 1.0
        self.seed = 0
        self.rng = random.Random(0)

    def param(self, key: str, default: object = None) -> object:
        """A constructor parameter, or its default."""
        return self.params.get(key, default)

    def param_or(self, key: str, default: object) -> object:
        """Like :meth:`param`, but only ``None``/absent falls back.

        Distinct from ``param(key) or default`` so that explicit falsy values
        (``calls=0``, ``seed=0``) are honoured rather than silently replaced.
        """
        value = self.params.get(key)
        return default if value is None else value

    def scaled(self, base: int, minimum: int) -> int:
        """The iteration count ``base`` under the current scale multiplier."""
        return max(minimum, int(base * self.scale))

    def prepare(
        self,
        stack: Optional[IOStack],
        *,
        scale: float = 1.0,
        seed: int = 0,
        device: Optional[str] = None,
    ) -> "Workload":
        """Bind the workload to a stack, a scale and a seeded RNG."""
        self.stack = stack
        self.scale = scale
        self.seed = seed
        self.rng = random.Random(seed)
        self.device = device or (stack.config.device if stack is not None else None)
        return self

    def warm(self) -> None:
        """Run the shared warmup prefix (default: nothing).

        Called exactly once, after :meth:`prepare` and before :meth:`run`,
        on both the from-scratch and the warm-start paths — so a forked
        continuation and a plain run replay identical event sequences.
        Implementations must not read any parameter in ``SUFFIX_PARAMS``.
        """

    @abc.abstractmethod
    def run(self) -> WorkloadResult:
        """Execute the workload's measured phase and return its result."""


@WORKLOADS.register("sync-loop")
class SyncLoopWorkload(Workload):
    """The raw "write N pages then sync" loop of Table 1 and Figs. 8/11/12."""

    name = "sync-loop"
    PARAMS = ("calls", "sync_call", "allocating", "pages_per_write", "warmup_calls")
    SUFFIX_PARAMS = ("calls",)

    def warm(self) -> None:
        """Run ``warmup_calls`` unmeasured write+sync iterations.

        The warmup loop drives a separate file but the same stack, so the
        journal, writeback cache and device queues reach their steady state
        before the measured loop starts.
        """
        warmup = int(self.param_or("warmup_calls", 0))
        if warmup <= 0:
            return
        stack = self.stack
        measure_sync_latency(
            stack,
            calls=warmup,
            sync_call=str(self.param_or("sync_call", stack.config.sync_call)),
            allocating=bool(self.param("allocating", True)),
            pages_per_write=int(self.param("pages_per_write", 1)),
            file_name="warmup.dat",
        )

    def run(self) -> WorkloadResult:
        stack = self.stack
        calls = int(self.param_or("calls", self.scaled(200, 50)))
        sync_call = str(self.param_or("sync_call", stack.config.sync_call))
        loop = measure_sync_latency(
            stack,
            calls=calls,
            sync_call=sync_call,
            allocating=bool(self.param("allocating", True)),
            pages_per_write=int(self.param("pages_per_write", 1)),
        )
        extra: dict[str, object] = {
            "sync_call": sync_call,
            "context_switches": loop.context_switches_per_call,
            "journal_commits": stack.fs.stats.journal_commits,
        }
        if stack.config.track_queue_depth:
            extra["avg_qd"] = stack.device.stats.queue_depth.mean(now=stack.sim.now)
            extra["max_qd"] = stack.device.stats.queue_depth.peak
        return WorkloadResult(
            workload=self.name,
            operations=loop.completed,
            elapsed_usec=loop.elapsed_usec,
            latencies=loop.latencies,
            extra=extra,
        )


@WORKLOADS.register("fxmark")
class FxmarkScenario(Workload):
    """fxmark DWSL: per-thread private file, 4 KiB write + fsync (Fig. 13)."""

    name = "fxmark"
    PARAMS = ("num_threads", "ops_per_thread", "use_fbarrier", "cpu_per_operation")

    def run(self) -> WorkloadResult:
        bench = FxmarkDWSL(
            self.stack,
            num_threads=int(self.param("num_threads", 4)),
            use_fbarrier=bool(self.param("use_fbarrier", False)),
            cpu_per_operation=float(self.param("cpu_per_operation", 15.0)),
        )
        outcome = bench.run(int(self.param_or("ops_per_thread", self.scaled(40, 15))))
        return WorkloadResult(
            workload=self.name,
            operations=outcome.operations,
            elapsed_usec=outcome.elapsed_usec,
            latencies=outcome.latencies,
            extra={"num_threads": outcome.num_threads},
        )


@WORKLOADS.register("mysql")
class MySQLScenario(Workload):
    """sysbench OLTP-insert against MySQL/InnoDB's file accesses (Fig. 15)."""

    name = "mysql"
    PARAMS = (
        "transactions",
        "relax_durability",
        "redo_pages_per_tx",
        "binlog_pages_per_tx",
        "checkpoint_every",
        "checkpoint_pages",
        "cpu_per_transaction",
    )

    def run(self) -> WorkloadResult:
        bench = MySQLOLTPInsert(
            self.stack,
            relax_durability=bool(self.param("relax_durability", False)),
            redo_pages_per_tx=int(self.param("redo_pages_per_tx", 1)),
            binlog_pages_per_tx=int(self.param("binlog_pages_per_tx", 1)),
            checkpoint_every=int(self.param("checkpoint_every", 8)),
            checkpoint_pages=int(self.param("checkpoint_pages", 16)),
            cpu_per_transaction=float(self.param("cpu_per_transaction", 120.0)),
        )
        outcome = bench.run(int(self.param_or("transactions", self.scaled(120, 40))))
        return WorkloadResult(
            workload=self.name,
            operations=outcome.transactions,
            elapsed_usec=outcome.elapsed_usec,
            latencies=outcome.latencies,
        )


@WORKLOADS.register("sqlite")
class SQLiteScenario(Workload):
    """Insert-only SQLite in PERSIST or WAL journal mode (Fig. 14)."""

    name = "sqlite"
    PARAMS = (
        "inserts",
        "journal_mode",
        "relax_durability",
        "pages_per_insert",
        "cpu_per_transaction",
    )

    def run(self) -> WorkloadResult:
        mode = self.param("journal_mode", SQLiteJournalMode.PERSIST)
        if not isinstance(mode, SQLiteJournalMode):
            mode = SQLiteJournalMode(str(mode))
        bench = SQLiteWorkload(
            self.stack,
            journal_mode=mode,
            relax_durability=bool(self.param("relax_durability", False)),
            pages_per_insert=int(self.param("pages_per_insert", 2)),
            cpu_per_transaction=float(self.param("cpu_per_transaction", 80.0)),
            seed=self.seed,
        )
        outcome = bench.run(int(self.param_or("inserts", self.scaled(120, 40))))
        return WorkloadResult(
            workload=self.name,
            operations=outcome.inserts,
            elapsed_usec=outcome.elapsed_usec,
            latencies=outcome.latencies,
            extra={"journal_mode": mode.value},
        )


@WORKLOADS.register("varmail")
class VarmailScenario(Workload):
    """filebench varmail: mail-server file churn with frequent fsync (Fig. 15)."""

    name = "varmail"
    PARAMS = (
        "iterations",
        "relax_durability",
        "mail_pages",
        "file_pool",
        "num_threads",
        "cpu_per_iteration",
        "seed",
    )

    #: Historical default seed of the varmail model; the scenario seed is
    #: added to it so seed=0 reproduces the published tables exactly.
    SEED_OFFSET = 7

    def run(self) -> WorkloadResult:
        bench = VarmailWorkload(
            self.stack,
            relax_durability=bool(self.param("relax_durability", False)),
            mail_pages=int(self.param("mail_pages", 4)),
            file_pool=int(self.param("file_pool", 64)),
            num_threads=int(self.param("num_threads", 2)),
            cpu_per_iteration=float(self.param("cpu_per_iteration", 40.0)),
            seed=int(self.param_or("seed", self.seed + self.SEED_OFFSET)),
        )
        outcome = bench.run(int(self.param_or("iterations", self.scaled(30, 10))))
        return WorkloadResult(
            workload=self.name,
            operations=outcome.operations,
            elapsed_usec=outcome.elapsed_usec,
            latencies=outcome.latencies,
        )


@WORKLOADS.register("postgres-wal")
class PostgresWALScenario(Workload):
    """PostgreSQL WAL writer: per-commit WAL fsync + periodic checkpoints."""

    name = "postgres-wal"
    PARAMS = (
        "commits",
        "relax_durability",
        "wal_pages_per_commit",
        "checkpoint_every",
        "checkpoint_pages",
        "cpu_per_commit",
        "warmup_commits",
    )
    SUFFIX_PARAMS = ("commits",)

    def _bench(self):
        from repro.apps.postgres import PostgresWALWorkload

        bench = getattr(self, "_bound_bench", None)
        if bench is None:
            bench = PostgresWALWorkload(
                self.stack,
                relax_durability=bool(self.param("relax_durability", False)),
                wal_pages_per_commit=int(self.param("wal_pages_per_commit", 1)),
                checkpoint_every=int(self.param("checkpoint_every", 16)),
                checkpoint_pages=int(self.param("checkpoint_pages", 24)),
                cpu_per_commit=float(self.param("cpu_per_commit", 90.0)),
            )
            self._bound_bench = bench
        return bench

    def warm(self) -> None:
        """Run ``warmup_commits`` unmeasured transactions on the same bench."""
        warmup = int(self.param_or("warmup_commits", 0))
        if warmup > 0:
            self._bench().run(warmup)

    def run(self) -> WorkloadResult:
        bench = self._bench()
        outcome = bench.run(int(self.param_or("commits", self.scaled(120, 40))))
        return WorkloadResult(
            workload=self.name,
            operations=outcome.commits,
            elapsed_usec=outcome.elapsed_usec,
            latencies=outcome.latencies,
            extra={"journal_commits": self.stack.fs.stats.journal_commits},
        )


@WORKLOADS.register("rocksdb-compaction")
class RocksDBCompactionScenario(Workload):
    """RocksDB memtable flushes + multi-file compactions (SSTs before MANIFEST)."""

    name = "rocksdb-compaction"
    PARAMS = (
        "flushes",
        "relax_durability",
        "memtable_pages",
        "files_per_compaction",
        "compaction_every",
        "sst_pages",
        "cpu_per_flush",
    )

    def run(self) -> WorkloadResult:
        from repro.apps.rocksdb import RocksDBCompactionWorkload

        bench = RocksDBCompactionWorkload(
            self.stack,
            relax_durability=bool(self.param("relax_durability", False)),
            memtable_pages=int(self.param("memtable_pages", 8)),
            files_per_compaction=int(self.param("files_per_compaction", 3)),
            compaction_every=int(self.param("compaction_every", 4)),
            sst_pages=int(self.param("sst_pages", 12)),
            cpu_per_flush=float(self.param("cpu_per_flush", 150.0)),
        )
        outcome = bench.run(int(self.param_or("flushes", self.scaled(24, 8))))
        return WorkloadResult(
            workload=self.name,
            operations=outcome.flushes,
            elapsed_usec=outcome.elapsed_usec,
            latencies=outcome.latencies,
            extra={"compactions": outcome.compactions},
        )


@WORKLOADS.register("blocklevel")
class BlockLevelScenario(Workload):
    """Raw 4 KiB random writes against the block device (Figs. 9 and 10).

    Runs one of the XnF / X / B / P ordering schemes; no filesystem stack is
    built (``config`` is ignored and may be ``None``).
    """

    name = "blocklevel"
    needs_stack = False
    PARAMS = ("scenario", "num_writes", "working_set_pages", "seed")

    #: Historical default seed of ``run_scenario`` (see SEED_OFFSET above).
    SEED_OFFSET = 1

    def run(self) -> WorkloadResult:
        from repro.experiments.blocklevel import run_scenario

        outcome = run_scenario(
            str(self.param("scenario", "B")),
            self.device,
            num_writes=int(self.param_or("num_writes", self.scaled(500, 60))),
            working_set_pages=int(self.param("working_set_pages", 1 << 16)),
            seed=int(self.param_or("seed", self.seed + self.SEED_OFFSET)),
        )
        return WorkloadResult(
            workload=self.name,
            operations=outcome.writes,
            elapsed_usec=outcome.elapsed_usec,
            extra={
                "scenario": outcome.scenario,
                "kiops": outcome.kiops,
                "avg_qd": outcome.mean_queue_depth,
                "max_qd": outcome.max_queue_depth,
            },
        )


@WORKLOADS.register("ordered-vs-buffered")
class OrderedVsBufferedScenario(Workload):
    """Fig. 1's ratio: write()+fdatasync() IOPS over buffered write() IOPS."""

    name = "ordered-vs-buffered"
    needs_stack = False
    PARAMS = ("num_writes",)

    def run(self) -> WorkloadResult:
        from repro.experiments.blocklevel import ordered_vs_buffered_ratio

        num_writes = int(self.param_or("num_writes", self.scaled(240, 40)))
        ordered_iops, buffered_iops, ratio = ordered_vs_buffered_ratio(
            self.device, num_writes=num_writes
        )
        return WorkloadResult(
            workload=self.name,
            operations=num_writes,
            elapsed_usec=0.0,
            extra={
                "ordered_iops": ordered_iops,
                "buffered_iops": buffered_iops,
                "ratio_percent": ratio,
            },
        )
