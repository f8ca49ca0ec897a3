"""Shared test plumbing: the acceptance verdict recorder and a traced-peak probe.

Criterion tests record exactly one PASS/FAIL line each; the lines are
replayed in the terminal summary so they survive output capture.
"""

import tracemalloc

import pytest

VERDICTS = []


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
