"""The native kernel tier under AddressSanitizer and UBSan.

A sanitized build of the kernels (``tests/markov/sanitized.py``) runs the
arena lockstep, seeding and engine parity suites of ``test_native.py``
plus the adversarial fuzz of ``test_native_fuzz.py`` in a subprocess with
the sanitizer runtimes preloaded.  Every case must pass — bad input is a
``ValueError`` at the boundary, good input matches the numpy sweep byte
for byte — with zero sanitizer reports.  A second case proves the gate
has teeth: a raw kernel call placing a row past ``out`` must abort with a
heap-buffer-overflow report.

Skips where the tier itself cannot load (no cffi or compiler) or gcc has
no ASan/UBSan runtime.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.markov import native
from tests.markov import sanitized

pytestmark = pytest.mark.native

ROOT = Path(__file__).resolve().parents[2]
CASES = [
    "tests/markov/test_native_fuzz.py",
    "tests/markov/test_native.py::TestArenaLockstep",
    "tests/markov/test_native.py::TestNativeSeeding",
    "tests/markov/test_native.py::TestEngineParity",
]
REPORTS = ("AddressSanitizer", "runtime error:", "LeakSanitizer")


@pytest.fixture(scope="module")
def sanitized_run(tmp_path_factory):
    """``run(args)``: a Python subprocess on the sanitized kernels."""
    if not native.available():
        pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")
    env = sanitized.runtime_env()
    if env is None:
        pytest.skip("gcc with libasan and libubsan is required")
    so_path = sanitized.build(tmp_path_factory.mktemp("sanitized"))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])

    def run(args):
        return subprocess.run(
            [sys.executable, *args(so_path)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=900,
        )

    return run


def test_kernels_run_clean_under_asan_and_ubsan(sanitized_run):
    proc = sanitized_run(lambda so: [
        "-m", "pytest", "-p", "no:cacheprovider",
        "-p", "tests.markov.sanitized", f"--sanitized-kernels={so}", *CASES,
    ])
    log = proc.stdout + proc.stderr
    assert proc.returncode == 0, log[-4000:]
    assert "native kernels: sanitized build" in log  # the swap happened
    assert " skipped" not in log.splitlines()[-1], log[-2000:]
    for report in REPORTS:
        assert report not in log, log[-4000:]


OVERFLOW = """
import importlib.util
import sys
import numpy as np
spec = importlib.util.spec_from_file_location("_repro_native", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
ffi, lib = mod.ffi, mod.lib
per_state = np.zeros((1, 2))
block = np.zeros((1, 4), dtype=np.int64)
out = np.zeros((1, 1, 4))
ints = lambda v: ffi.from_buffer("int64_t[]", np.array(v, dtype=np.intp))
lib.repro_distance_gather_rows(
    ffi.from_buffer("double[]", per_state), 1, 2,
    ffi.new("void *[]", [ffi.from_buffer("char[]", block)]),
    ffi.new("uint8_t[]", [0]), 1,
    ints([1]), ints([0]), ints([1]), 2, 4,  # object 1 of a 1-object out
    ffi.from_buffer("double[]", out, require_writable=True))
print("no report")
"""


def test_the_gate_catches_an_out_of_bounds_write(sanitized_run):
    proc = sanitized_run(lambda so: ["-c", OVERFLOW, str(so)])
    assert proc.returncode != 0
    assert "heap-buffer-overflow" in proc.stderr, proc.stderr[-2000:]
    assert "repro_distance_gather_rows" in proc.stderr
