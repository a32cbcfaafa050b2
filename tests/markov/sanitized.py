"""AddressSanitizer/UBSan build of the native kernels, for tests only.

:func:`build` compiles the very ``CDEF`` + ``SOURCE`` of
:mod:`repro.markov._native_kernels` through cffi with the sanitizer
flags below into a directory of the caller's choosing — the production
build and its cache are never touched.  The module doubles as a pytest
plugin: ``pytest -p tests.markov.sanitized --sanitized-kernels=PATH``
swaps that extension in as ``repro.markov.native._module`` before any
test is collected, so every native code path of the run goes through the
instrumented kernels.  The process must start with the sanitizer
runtimes preloaded (:func:`runtime_env`): CPython itself is not
instrumented, so ASan has to come first in the library list.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
from pathlib import Path

SANITIZE_FLAGS = (
    "-O1",
    "-g",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
    "-fno-omit-frame-pointer",
)


def _runtime(name: str) -> str | None:
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    path = subprocess.run(
        [gcc, f"-print-file-name={name}"], capture_output=True, text=True
    ).stdout.strip()
    # gcc echoes the bare name back when it has no such library.
    return path if os.path.isabs(path) and os.path.exists(path) else None


def runtime_env() -> dict[str, str] | None:
    """Environment for a process running sanitized kernels, or ``None``
    when gcc or one of its sanitizer runtimes is missing."""
    libs = [_runtime("libasan.so"), _runtime("libubsan.so")]
    if None in libs:
        return None
    return {
        "LD_PRELOAD": " ".join(libs),
        "ASAN_OPTIONS": "detect_leaks=0:abort_on_error=0",
        "UBSAN_OPTIONS": "print_stacktrace=1:halt_on_error=1",
    }


def build(directory: Path) -> Path:
    """Compile the sanitized kernel extension into ``directory``."""
    import cffi

    from repro.markov import _native_kernels as kernels

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(kernels.CDEF)
    ffibuilder.set_source(
        kernels._MODULE_BASENAME,
        kernels.SOURCE,
        extra_compile_args=list(SANITIZE_FLAGS),
        extra_link_args=["-fsanitize=address,undefined"],
    )
    return Path(ffibuilder.compile(tmpdir=str(directory), verbose=False))


def pytest_addoption(parser):
    parser.addoption(
        "--sanitized-kernels",
        help="path of a sanitized kernel extension to run the native tier on",
    )


def pytest_configure(config):
    path = config.getoption("--sanitized-kernels")
    if not path:
        return
    from repro.markov import _native_kernels as kernels
    from repro.markov import native

    spec = importlib.util.spec_from_file_location(kernels._MODULE_BASENAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    native._module, native._load_error, native._probed = module, None, True
    native._seed_fill_ok = None  # the self-check reruns on these kernels


def pytest_report_header(config):
    path = config.getoption("--sanitized-kernels")
    if path:
        return f"native kernels: sanitized build {path}"
