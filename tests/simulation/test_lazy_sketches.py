"""Lazily built latency sketches vs sketches fed from the first sample.

``LatencyRecorder`` builds its P² sketches only when the exact window first
overflows, by replaying the stored window.  The reference below is the
eager recorder: four ``P2Quantile``s fed from sample one, the exact
percentiles while the stream fits the window and the sketch estimates once
it overflows.  Both must agree bit for bit on the summary and on every
sketch's marker state, at every stream length around the window.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.stats import (
    _SUMMARY_FRACTIONS,
    LatencyRecorder,
    LatencySummary,
    P2Quantile,
    percentile,
)

#: Stream lengths relative to the window: window-1, window, window+1, 3x.
LENGTHS = {
    "below": lambda window: window - 1,
    "at": lambda window: window,
    "above": lambda window: window + 1,
    "triple": lambda window: 3 * window,
}


def reference(samples, window):
    """Eager recorder: sketches fed from the first sample."""
    sketches = tuple(P2Quantile(f) for f in _SUMMARY_FRACTIONS)
    total = 0.0
    for sample in samples:
        total += sample
        for sketch in sketches:
            sketch.observe(sample)
    if len(samples) <= window:
        quantiles = [percentile(samples, f) for f in _SUMMARY_FRACTIONS]
    else:
        quantiles = [sketch.value() for sketch in sketches]
    summary = LatencySummary(
        count=len(samples),
        mean=total / len(samples),
        median=quantiles[0],
        p99=quantiles[1],
        p999=quantiles[2],
        p9999=quantiles[3],
        minimum=min(samples),
        maximum=max(samples),
    )
    return summary, sketches


def marker_state(sketch):
    return (sketch.count, sketch._heights, sketch._positions, sketch._desired)


samples_value = st.one_of(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
    # Few distinct values: ties exercise the marker-cell search.
    st.integers(min_value=0, max_value=5).map(float),
)


@st.composite
def streams(draw):
    window = draw(st.integers(min_value=1, max_value=48))
    length = LENGTHS[draw(st.sampled_from(sorted(LENGTHS)))](window)
    length = max(length, 1)
    samples = draw(st.lists(samples_value, min_size=length, max_size=length))
    return window, samples


@settings(max_examples=150, deadline=None)
@given(streams())
def test_lazy_recorder_matches_eager_sketches(stream):
    window, samples = stream
    recorder = LatencyRecorder(exact_window=window)
    recorder.extend(samples)
    expected_summary, expected_sketches = reference(samples, window)

    assert recorder.summary() == expected_summary
    assert len(recorder.samples) == min(len(samples), window)
    if len(samples) <= window:
        # The window never overflowed: no sketch was built.
        assert recorder._sketches is None
        sketches = recorder._replay_window()
    else:
        sketches = recorder._sketches
    assert [marker_state(s) for s in sketches] == [
        marker_state(s) for s in expected_sketches
    ]


def test_zero_window_sketches_from_the_first_sample():
    recorder = LatencyRecorder(exact_window=0)
    samples = [float((13 * i) % 97) for i in range(40)]
    recorder.extend(samples)
    expected_summary, expected_sketches = reference(samples, 0)
    assert recorder.samples == []
    assert recorder.summary() == expected_summary
    assert [marker_state(s) for s in recorder._sketches] == [
        marker_state(s) for s in expected_sketches
    ]


def test_unsaturated_recorder_builds_no_sketch():
    recorder = LatencyRecorder()
    recorder.extend(float(i) for i in range(1000))
    assert recorder._sketches is None
    assert not recorder.saturated
    assert math.isclose(recorder.summary().median, 499.5)
