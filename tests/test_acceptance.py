"""End-to-end acceptance battery.

Runs every registered verification check at its stated tolerance and
prints one PASS/FAIL line per criterion so the suite output doubles as
an acceptance report.
"""

import pytest

from kdcheck.verify import CHECKS, run_check

_BY_NAME = {check.name: check for check in CHECKS}


@pytest.mark.parametrize("name", sorted(_BY_NAME))
def test_acceptance(name, capsys):
    check = _BY_NAME[name]
    result = run_check(check)
    status = "PASS" if result["passed"] else "FAIL"
    with capsys.disabled():
        print(f"{status} {name} ({result['elapsed_seconds']:.2f}s)")
    assert result["passed"], result["details"]


def test_registry_is_complete():
    assert len(CHECKS) == 10
    assert len(_BY_NAME) == 10
    for check in CHECKS:
        assert check.anchor


def test_sandwich_reports_its_closest_case():
    details = run_check(_BY_NAME["pgm-optimality-sandwich"])["details"]
    # Every case passes, so the larger of eopt^2 - egen and egen - eopt is
    # negative in each, and the closest case shows how close it came.
    assert details["violations"] == 0
    assert -1.0 < details["worst_signed_gap"] < 0.0
