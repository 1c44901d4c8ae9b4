import pytest

from squeeze import (
    ConstructionParams,
    MarginSchedule,
    build,
    certify_smoothed,
    levi_verify,
    smooth,
)


@pytest.fixture(scope="session")
def p0():
    """Default construction: a = 2, halving radii, harmonic targets 1/k, 3 levels."""
    params = ConstructionParams(a="2", levels=3)
    domain, cert = build(params)
    return params, domain, cert


@pytest.fixture(scope="session")
def headline():
    """Margin schedule u = 0.05 at 2 levels: the desk-scale violation run."""
    params = ConstructionParams(a="2", levels=2, schedule=MarginSchedule("0.05"))
    domain, cert = build(params)
    return params, domain, cert


@pytest.fixture(scope="session")
def headline_smoothed(headline):
    _params, domain, cert = headline
    sd = smooth(domain)
    report = levi_verify(sd)
    smoothed = certify_smoothed(sd, cert.levels, cert.margin_guard)
    return sd, report, smoothed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in name:
                crit = name.split("test_criterion_", 1)[1]
                lines[crit] = outcome.upper()
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for crit in sorted(lines, key=lambda s: s.split("_")[0]):
            terminalreporter.write_line(f"criterion {crit}: {lines[crit]}")
