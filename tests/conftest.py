import re

import pytest

import rcalab.entropy as ENTROPY


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS line; mirror a FAIL line so every
    # criterion always reports exactly one verdict line
    if report.when != "call" or not report.failed:
        return
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if match:
        print(f"\nCRITERION {match.group(1)}: FAIL ({report.duration:.2f}s)")


@pytest.fixture
def memory_cap(monkeypatch):
    """Setter of rcalab.entropy.MEMORY_CAP for one test."""
    return lambda n_bytes: monkeypatch.setattr(ENTROPY, "MEMORY_CAP", n_bytes)


@pytest.fixture
def declared(monkeypatch):
    """The byte counts every engine passes to check_bytes, in call order."""
    from rcalab import analysis, bounds, circuits, exact, montecarlo

    calls, check = [], ENTROPY.check_bytes

    def spy(n_bytes, what):
        calls.append(n_bytes)
        return check(n_bytes, what)

    for module in (ENTROPY, analysis, bounds, circuits, exact, montecarlo):
        monkeypatch.setattr(module, "check_bytes", spy)
    return calls
