"""Byte-identity pins for the crash, fault and recovery check reports.

``golden_check_reports.json`` holds, per cell, the command line and the
``--format json`` report that ``crashcheck``, ``faultcheck`` and
``recoverycheck`` printed for it when the capture was taken.  The CLI tests
elsewhere assert properties of rows; these pin the whole report, so a change
to the shared check pipeline that reorders cells, renames a table or moves a
verdict fails here.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_check_reports.json").read_text()
)


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_check_report_is_byte_identical_to_the_golden_capture(cell, tmp_path):
    output = tmp_path / "report.json"
    main([*GOLDEN[cell]["argv"], "--format", "json", "--output", str(output)])
    expected = json.dumps(GOLDEN[cell]["report"], indent=2) + "\n"
    assert output.read_text() == expected
