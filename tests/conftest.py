"""Shared test plumbing: the acceptance verdict recorder, a traced-peak
probe, and a guard that fails the session if it leaves a child process.

Criterion tests record exactly one PASS/FAIL line each; the lines are
replayed in the terminal summary so they survive output capture.
"""

import os
import tracemalloc

import pytest

VERDICTS = []


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
