"""Shared pytest configuration.

Prints a one-line verdict per acceptance criterion after the run, so the
acceptance status is readable without scrolling the full test log.  Fails
any test that leaves a child process alive, and provides ``pool_spy`` for
tests that must run a study through its process pool.
"""

import concurrent.futures
import multiprocessing
import re

import pytest

from usptest import simulate

_CRITERION_TITLES = {
    1: "classic Pearson statistic and p-value on the marital table",
    2: "classic G-test p-value on the marital table",
    3: "expected frequencies of the marital table",
    4: "USP permutation p-value on the marital table across 100 seeds",
    5: "one-pass D-hat equals the kernel-average oracle",
    6: "U-hat and D-hat rank identically under shared permutations",
    7: "D-hat is unbiased for the sparse alternative at epsilon 0.05",
    8: "permutation tests hold their size at the null",
    9: "power ordering on the sparse alternative at epsilon 0.06",
    10: "all tests have similar power on the dense alternative",
    11: "asymptotic size values and jump locations",
    12: "subsampling rejection rates on both datasets",
    13: "full-table eye-colour p-values across 100 seeds",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_results: dict[int, tuple[str, float]] = {}


def pytest_runtest_logreport(report):
    match = _NODE_RE.search(report.nodeid)
    if match and report.when == "call":
        num = int(match.group(1))
        _results[num] = ("PASS" if report.passed else "FAIL", report.duration)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_results):
        status, duration = _results[num]
        title = _CRITERION_TITLES.get(num, "")
        terminalreporter.write_line(
            f"criterion {num:02d} {status}  ({duration:7.1f}s)  {title}"
        )


@pytest.fixture(autouse=True)
def _no_child_process_left():
    yield
    left = multiprocessing.active_children()
    assert not left, f"the test left child processes alive: {left}"


@pytest.fixture
def pool_spy(monkeypatch):
    """Make every multi-block study start its pool; list the pools started.

    Studies start workers only for enough permutation work, and ``dhat`` only
    for enough replicates, which small test calls never reach.  This lowers
    both thresholds to one cell or replicate and reports two cores, so
    ``threads=2`` starts a 2-process pool; the returned list gets each pool's
    worker count.
    """
    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(simulate, "_POOL_MIN_CELLS", 1)
    monkeypatch.setattr(simulate, "_POOL_MIN_REPS", 1)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    # simulate imports the executor when it starts a pool, so patch its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started
