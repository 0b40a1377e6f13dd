"""The checker's own verdicts fail when a route lies.

Each test makes one route that a check or a command reads return a wrong
value, and asserts that the check, or the command's exit code, says so.
"""

import math

import numpy as np
import pytest

from kdcheck import entropy, hashing, markov, quantum, semigroup, verify
from kdcheck.cli import main
from kdcheck.markov import Poly, RationalFunction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Route disagreements refused in semigroup
# ---------------------------------------------------------------------------

def test_determinant_routes_disagree(monkeypatch, capsys):
    monkeypatch.setattr(semigroup, "determinant_closed",
                        lambda spec: 2 * semigroup.determinant_lu(spec))
    with pytest.raises(ArithmeticError,
                       match="^determinant routes disagree: LU 1 vs closed form 2$"):
        semigroup.build_sigma(semigroup.CovSpec(1, (1.0,)))
    code, out, err = run_cli(capsys, "semigroup", "--variances", "1", "--points=0")
    assert code == 2 and out == ""
    assert err == "error: determinant routes disagree: LU 1 vs closed form 2\n"


def test_inverse_routes_disagree(monkeypatch, capsys):
    closed = semigroup._inverse_closed
    monkeypatch.setattr(semigroup, "_inverse_closed", lambda spec: 1.5 * closed(spec))
    spec = semigroup.CovSpec(2, (1.0, 1.0), (0.0,))
    with pytest.raises(ArithmeticError, match="^inverse routes disagree: max gap 0.5 "
                                              "beyond 1e-10$"):
        semigroup.inverse_sigma(spec)
    code, out, err = run_cli(capsys, "semigroup", "--variances", "1,1",
                             "--correlations", "0", "--points=0,0")
    assert code == 2 and out == ""
    assert err == "error: inverse routes disagree: max gap 0.5 beyond 1e-10\n"


# ---------------------------------------------------------------------------
# Counted failures of the acceptance checks
# ---------------------------------------------------------------------------

def test_sandwich_counts_a_generic_measurement_above_the_optimum(monkeypatch):
    monkeypatch.setattr(quantum, "e_gen", lambda ens: quantum.e_opt(ens) + 1)
    res = verify.check_pgm_sandwich()
    assert not res["passed"] and res["violations"] == res["cases"] == 500


@pytest.mark.parametrize("field,count", [("satisfied", "violations"),
                                         ("precondition_met", "violations"),
                                         ("exact_comparison", "inexact_comparisons")])
def test_side_register_counts_a_failed_report(monkeypatch, field, count):
    real = quantum.tripartite_report

    def lie(ens, family):
        return {**real(ens, family), field: False}
    monkeypatch.setattr(quantum, "tripartite_report", lie)
    res = verify.check_tripartite()
    assert not res["passed"] and res[count] == 50


def test_side_register_counts_a_trivial_register_gap(monkeypatch):
    real = hashing.lhl_distance
    monkeypatch.setattr(hashing, "lhl_distance", lambda f, fam: real(f, fam) + 1)
    res = verify.check_tripartite()
    assert not res["passed"] and res["trivial_side_register_gap"] == 1.0
    assert res["violations"] == res["inexact_comparisons"] == 0


# Each route of check 6 made to lie, and the failure it must name.
MARKOV_LIES = [
    (markov, "n_step", lambda chain, n: ((0,) * chain.n,) * chain.n, "powers"),
    (markov, "resolvent", lambda chain, i, j: RationalFunction(Poly([2]), Poly([1])),
     "series"),
    (markov, "first_return", lambda chain, i, n: (0,) * n, "recursion"),
    # Theta = r / 1000003: series terms that D**n never scales to integers.
    (markov, "theta_gf", lambda chain, i: RationalFunction(Poly([0, 1]), Poly([1000003])),
     "scale"),
    # Theta = r: integer terms that break the renewal convolution.
    (markov, "theta_gf", lambda chain, i: RationalFunction(Poly([0, 1]), Poly([1])),
     "convolution"),
    (RationalFunction, "eval", lambda rf, r: 0, "unit-sum"),
    (markov, "radius_of_convergence", lambda rf: 1.0, "radius"),
    (markov, "radius_of_convergence", lambda rf: 2.0, "reference-chains"),
]


@pytest.mark.parametrize("owner,name,lie,tag", MARKOV_LIES,
                         ids=["%s-%s" % (name, tag) for _, name, _, tag in MARKOV_LIES])
def test_return_time_check_names_the_lying_route(monkeypatch, owner, name, lie, tag):
    monkeypatch.setattr(owner, name, lie)
    res = verify.check_markov_gf()
    assert not res["passed"]
    assert tag in {f[0] for f in res["failures"]}


def test_covariance_check_counts_a_wrong_inverse(monkeypatch):
    monkeypatch.setattr(semigroup, "inverse_sigma",
                        lambda spec: (2 * np.linalg.inv(spec.sigma()), {"route": "cholesky"}))
    res = verify.check_covariance_forms()
    assert not res["passed"] and res["failures"] == res["cases"] == 100


def test_covariance_check_counts_a_route_disagreement(monkeypatch):
    real = semigroup.build_sigma

    def disagree(spec):
        if spec.dim == 3:
            raise ArithmeticError("determinant routes disagree")
        return real(spec)
    monkeypatch.setattr(semigroup, "build_sigma", disagree)
    res = verify.check_covariance_forms()
    # Trials 1, 4, ..., 97 draw three dimensions.
    assert not res["passed"] and res["failures"] == 33


# Each entropy route of check 9 made to lie, and the counter it must raise.
# The h2-versus-h_min lie is min-entropy alone: order inf, every other order true.
REAL_RENYI_ENTROPY = entropy.renyi_entropy
ENTROPY_LIES = [
    ("renyi_entropy", lambda f, a, base=None: float(a), "monotonicity_violations"),
    ("renyi_divergence", lambda f, g, a, base=None: -float(a), "monotonicity_violations"),
    ("renyi_entropy", lambda f, a, base=None: 1e9 if a == math.inf
     else REAL_RENYI_ENTROPY(f, a, base=base), "h2_vs_hmin_violations"),
    ("renyi_divergence", lambda f, g, a, base=None: 0.0, "kl_violations"),
]


@pytest.mark.parametrize("name,lie,counter", ENTROPY_LIES,
                         ids=["%s-%s" % (name, c[:4]) for name, _, c in ENTROPY_LIES])
def test_entropy_check_counts_the_lying_route(monkeypatch, name, lie, counter):
    monkeypatch.setattr(entropy, name, lie)
    res = verify.check_entropy_suite()
    assert not res["passed"] and res[counter] > 0


def test_a_check_that_raises_is_a_failed_check():
    def boom():
        raise RuntimeError("route crashed")
    res = verify.run_check(verify.Check("boom", "a crashing check", boom))
    assert res["passed"] is False
    assert res["details"] == {"error": "RuntimeError: route crashed"}


def test_verify_all_exits_three_on_a_failed_check(monkeypatch, capsys):
    failing = verify.Check("always-fails", "a check that fails", lambda: {"passed": False})
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1] + (failing,))
    code, out, err = run_cli(capsys, "verify-all")
    assert code == 3 and err == ""
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["PASS", "pgm-success-table"], ["FAIL", "always-fails"]]


# ---------------------------------------------------------------------------
# --assert-bounds
# ---------------------------------------------------------------------------

def test_lhl_assert_bounds_exits_three(capsys):
    # A floor far above h_min: the squared bound is violated.
    code, out, err = run_cli(capsys, "lhl", "--q", "2", "--m", "4", "--k", "2",
                             "--seed", "7", "--h-plus", "100", "--assert-bounds")
    assert code == 3 and err == "" and '"satisfied": false' in out


def test_lhl_assert_bounds_exits_three_on_a_collision_violation(monkeypatch, capsys):
    real = hashing.lhl_report
    monkeypatch.setattr(hashing, "lhl_report",
                        lambda f, fam, h_plus=None: {**real(f, fam, h_plus),
                                                     "collision_satisfied": False})
    code, _, _ = run_cli(capsys, "lhl", "--q", "2", "--m", "3", "--k", "1", "--uniform",
                         "--assert-bounds")
    assert code == 3


def test_quantum_lhl_assert_bounds_exits_three(monkeypatch, capsys):
    real = quantum.tripartite_report
    monkeypatch.setattr(quantum, "tripartite_report",
                        lambda ens, fam: {**real(ens, fam), "satisfied": False})
    argv = ("quantum-lhl", "--q", "2", "--m", "2", "--k", "1", "--seed", "3")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--assert-bounds")[0] == 3


def test_phi_assert_bounds_exits_three(monkeypatch, capsys):
    real = quantum.phi_report
    monkeypatch.setattr(quantum, "phi_report",
                        lambda n: {**real(n), "matches_closed_form": False})
    assert run_cli(capsys, "phi", "--n", "3")[0] == 0
    assert run_cli(capsys, "phi", "--n", "3", "--assert-bounds")[0] == 3
