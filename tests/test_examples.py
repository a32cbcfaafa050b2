"""The quick examples run to completion.

Each example is a script a reader runs first; this keeps them from
rotting when an API they print from changes.  ``serve_metrics_endpoint.py``
is left out: it serves a live endpoint for half a minute, and CI runs it
on its own.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
QUICK = (
    "quickstart.py",
    "continuous_monitoring.py",
    "geosocial_checkins.py",
    "indoor_tracking.py",
    "taxi_witness_search.py",
)


def test_every_example_is_quick_or_named():
    assert set(QUICK) | {"serve_metrics_endpoint.py"} == {
        path.name for path in EXAMPLES.glob("*.py")
    }


@pytest.mark.parametrize("name", QUICK)
def test_example_runs(name):
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
