"""Shared fixtures and the acceptance-criteria reporter.

Each acceptance test runs inside a `criterion(...)` block; the terminal
summary then prints one PASS/FAIL line per criterion, including the elapsed
time, so the acceptance status is readable at a glance.
"""

import time
from contextlib import contextmanager

import pytest

from nullcone import parse_catalog_spec, stratify

# every named instance the package ships with, in the parameterizations the
# rest of the suite pins values for
CATALOG_SPECS = (
    "torus:1,0|0,1|1,1",
    "sl2-forms:2,3,3,4,5",
    "sl3-forms:4",
    "adjoint:a1",
    "adjoint:a2",
    "adjoint:b2",
    "g2-adjoint",
    "gl2-ex3:2,1",
    "gl2-ex3:2,-1",
    "gl2-ex3:2,0",
    "direct-sum:sl2-forms:2+sl2-forms:3",
)

RANK2_CATALOG_SPECS = tuple(
    spec for spec in CATALOG_SPECS
    if spec not in ("adjoint:a1", "sl2-forms:2,3,3,4,5"))

_RESULTS = []


@pytest.fixture
def criterion():
    @contextmanager
    def run(number: int, title: str, budget: float = None):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            _RESULTS.append((number, title, "FAIL", time.perf_counter() - start))
            raise
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            _RESULTS.append((number, title, "FAIL", elapsed))
            pytest.fail(f"criterion {number} finished in {elapsed:.2f}s, "
                        f"over the {budget:.0f}s budget")
        _RESULTS.append((number, title, "PASS", elapsed))

    return run


_summaries = {}


@pytest.fixture(scope="session")
def summary_of():
    """Cached stratification results for non-timed tests."""

    def get(spec: str):
        if spec not in _summaries:
            _summaries[spec] = stratify(parse_catalog_spec(spec))
        return _summaries[spec]

    return get


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status, elapsed in sorted(_RESULTS):
        terminalreporter.write_line(
            f"criterion {number:2d} [{status}] {title} ({elapsed:.2f}s)")
