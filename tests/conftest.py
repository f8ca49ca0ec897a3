"""Shared test plumbing: the acceptance verdict recorder, a traced-peak
probe, a guard that fails the session if it leaves a child process, and
the host fingerprint that byte-pin assertions print when they fail.

Criterion tests record exactly one PASS/FAIL line each; the lines are
replayed in the terminal summary so they survive output capture.
"""

import ctypes
import os
import tracemalloc

import numpy as np
import pytest

from vical import cli

VERDICTS = []


def openblas_core() -> str:
    """The loaded OpenBLAS's core name, found by the lookup that
    ``cli._set_blas_threads`` uses for its thread setter."""
    getter = cli._openblas_symbol("scipy_openblas_get_corename64_",
                                  "openblas_get_corename64_", "openblas_get_corename")
    if getter is None:
        return "unknown"
    getter.restype, getter.argtypes = ctypes.c_char_p, []
    return getter().decode("ascii")


def dispatch_targets() -> list:
    """The SIMD targets numpy dispatches to in this process."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def host_fingerprint() -> str:
    """The numerics a byte pin depends on: the numpy version, the SIMD
    targets numpy dispatches to, and the OpenBLAS core.

    The pins were recorded at numpy 2.4.6 dispatching up to X86_V4
    (AVX-512) with OpenBLAS's SkylakeX core. At another level ``log``,
    ``exp``, ``tanh`` and GEMMs round differently, so a pin that fails on
    a new host names an unrecorded level before it names a regression.
    """
    targets = dispatch_targets()
    return (f"host numerics: numpy {np.__version__}, dispatch {' '.join(targets) or 'baseline'}, "
            f"OpenBLAS core {openblas_core()} (pins recorded at numpy 2.4.6, X86_V4, SkylakeX)")


@pytest.fixture(scope="session", autouse=True)
def no_child_left_at_exit():
    """Every process a test starts is reaped by the end of the session."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test session left a child process "
                + ("running" if pid == 0 else f"{pid} unreaped"))


@pytest.fixture
def verdict():
    def record(num: int, ok: bool, detail: str):
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
        VERDICTS.append((num, line))
        print(line)
        assert ok, line
    return record


@pytest.fixture
def traced_peak():
    """Peak bytes tracemalloc sees during one call, after a warm-up call.

    numpy reports its data buffers to tracemalloc, so this bounds the
    arrays a call allocates.
    """
    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def pytest_terminal_summary(terminalreporter):
    if not VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(VERDICTS):
        terminalreporter.write_line(line)
