"""Shared pytest configuration.

Prints the numpy, scipy and Python versions in the header, since the sha256
pins of stdout hold for the numpy release they were recorded on (numpy does
not fix ``Generator`` streams across releases) and scipy is the accuracy
tests' oracle, and a one-line verdict per
acceptance criterion after the run, so the acceptance status is readable
without scrolling the full test log.  Fails
any test that leaves a child process or a pool's worker thread alive,
clears the permutation engine's memo of its last draw before each test, so
that no test is served tables an earlier test drew, and provides
``pool_spy`` for tests that check which pools a study starts.
"""

import concurrent.futures
import multiprocessing
import platform
import re
import threading

import numpy as np
import pytest
import scipy

from usptest import permutation, simulate

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


def pytest_report_header(config):
    return f"numpy {np.__version__}, scipy {scipy.__version__}, Python {platform.python_version()}"


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
def _no_remembered_draw():
    # a test that spies on or replaces a sampler must see it run, whatever
    # ran before it
    permutation._last_draw = None


@pytest.fixture(autouse=True)
def _no_child_process_left():
    yield
    left = multiprocessing.active_children()
    assert not left, f"the test left child processes alive: {left}"


@pytest.fixture(autouse=True)
def _no_pool_thread_left():
    yield
    # a ThreadPoolExecutor names its workers after itself unless given a prefix
    left = [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor-")]
    assert not left, f"the test left pool worker threads alive: {left}"


@pytest.fixture
def pool_spy(monkeypatch):
    """List every pool a study or ``dhat_samples`` starts, as (kind, workers).

    kind is "thread" or "process".  The pools are real and the thresholds
    are left as they are: a test that needs a small study to start a pool
    lowers the threshold itself.  Two cores are reported, so ``threads=2``
    can start two workers on any machine.
    """
    started = []

    def spy(kind, executor):
        class Spy(executor):
            def __init__(self, max_workers=None, **kwargs):
                started.append((kind, max_workers))
                super().__init__(max_workers=max_workers, **kwargs)

        return Spy

    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    # simulate looks the executors up when it starts a pool, so patch their source
    for kind, name in (("thread", "ThreadPoolExecutor"), ("process", "ProcessPoolExecutor")):
        monkeypatch.setattr(concurrent.futures, name, spy(kind, getattr(concurrent.futures, name)))
    return started
