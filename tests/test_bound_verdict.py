"""The shared entropy floor and squared-bound verdict of both hashed-key reports.

``earlier_lhl_verdict`` and ``earlier_tripartite_verdict`` keep the verdict
code the two reports had before they shared ``_entropy_floor`` and
``_bound_verdict``; every report field must equal theirs, value and type.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kdcheck.cli import main
from kdcheck.core import Alphabet, FiniteDistribution
from kdcheck.hashing import (
    MAX_FLOOR_BITS,
    build_family,
    joint_state,
    lhl_bound,
    lhl_report,
)
from kdcheck.quantum import (
    e_opt,
    hashed_joint_blocks,
    tripartite_distance,
    tripartite_report,
)
from kdcheck.verify import random_diagonal_ensemble, rotate_ensemble

H_PLUS = (None, 0, 3, 2.0, -2, Fraction(3, 2), 2.5, -0.75, Fraction(-7, 3))
SHAPES = [(q, k) for q in (2, 3, 5, 7) for k in (1, 2)]


def earlier_q_pow_neg(q, h_plus, f):
    if h_plus is None:
        if f is None:
            raise ValueError("h_plus required without a distribution")
        return Fraction(max(f.numerators), f.denominator)
    whole = not isinstance(h_plus, float) or h_plus.is_integer()
    frac = Fraction(h_plus) if whole else None
    if frac is None or frac.denominator != 1:
        raise ValueError("exact comparison needs integer h_plus or the h_min default")
    e = frac.numerator
    return Fraction(1, q**e) if e >= 0 else Fraction(q**-e)


def earlier_lhl_verdict(f, family, h_plus):
    q, k = family.q, family.k
    size = family.group_size
    js = joint_state(f, family)
    dist = js.distance()
    pcol = js.collision_probability()
    qk = Fraction(1, q**k)
    max_w = Fraction(max(f.numerators), f.denominator)
    try:
        q_pow_neg_h = earlier_q_pow_neg(q, h_plus, f)
        exact_cmp = True
    except ValueError:
        q_pow_neg_h = float(q) ** (-float(h_plus))
        exact_cmp = False
    mid_sq = Fraction(q**k, q**2) * (size * pcol - qk)
    bound_sq = Fraction(q**k, q**2) * q_pow_neg_h if exact_cmp \
        else float(q) ** (k - 2) * q_pow_neg_h
    final_sq = Fraction(q**k) * q_pow_neg_h if exact_cmp \
        else float(q) ** k * q_pow_neg_h
    col_bound = (qk + q_pow_neg_h) / size
    return {
        "q": q,
        "m": family.m,
        "k": k,
        "kind": family.kind,
        "group_size": size,
        "zeta": family.zeta,
        "distance": dist,
        "bound": lhl_bound(q, k, float(h_plus) if h_plus is not None
                           else -math.log(float(max_w)) / math.log(q)),
        "satisfied": dist * dist <= final_sq,
        "collision_probability": pcol,
        "collision_bound": col_bound,
        "collision_satisfied": pcol <= col_bound,
        "chain_cauchy_schwarz": dist * dist <= mid_sq,
        "chain_tail": mid_sq <= bound_sq,
        "precondition_met": q_pow_neg_h >= max_w,
        "exact_comparison": exact_cmp,
    }


def earlier_tripartite_verdict(ensemble, family, h_plus):
    dist = tripartite_distance(hashed_joint_blocks(ensemble, family))
    if not ensemble.exact:
        dist = float(dist)    # the float distance the earlier verdict read
    q, k = family.q, family.k
    eopt = e_opt(ensemble)
    if h_plus is None:
        q_pow_neg_h = eopt
        h_val = -math.log(float(eopt)) / math.log(q)
    else:
        try:
            q_pow_neg_h = earlier_q_pow_neg(q, h_plus, None)
        except ValueError:
            q_pow_neg_h = float(q) ** (-float(h_plus))
        h_val = float(h_plus)
    bound_sq = (Fraction(q**k) * q_pow_neg_h
                if isinstance(q_pow_neg_h, Fraction) and isinstance(dist, Fraction)
                else float(q**k) * float(q_pow_neg_h))
    return {
        "q": q,
        "m": family.m,
        "k": k,
        "group_size": family.group_size,
        "dim_q": ensemble.dim,
        "distance": dist,
        "bound": lhl_bound(q, k, h_val),
        "satisfied": bool(dist * dist <= bound_sq),
        "h_min_cond": h_val,
        "e_opt": eopt,
        "precondition_met": bool(q_pow_neg_h >= eopt),
        "exact_comparison": isinstance(dist, Fraction)
        and isinstance(q_pow_neg_h, Fraction),
    }


def assert_same_report(rep, ref):
    assert rep.keys() == ref.keys()
    for key, want in ref.items():
        got = rep[key]
        assert type(got) is type(want), key
        if isinstance(want, bool):
            assert got is want, key
        else:
            assert got == want, key


@pytest.mark.parametrize("q,k", SHAPES)
def test_lhl_report_matches_earlier_verdict(q, k):
    rng = np.random.default_rng(100 * q + k)
    family = build_family("toeplitz", q, 2, k)
    for h_plus in H_PLUS:
        f = FiniteDistribution.random_rational(Alphabet(q, 2), rng)
        assert_same_report(lhl_report(f, family, h_plus=h_plus),
                           earlier_lhl_verdict(f, family, h_plus))


@pytest.mark.parametrize("q,k", SHAPES)
@pytest.mark.parametrize("rotated", [False, True], ids=["exact", "float"])
def test_tripartite_report_matches_earlier_verdict(q, k, rotated):
    rng = np.random.default_rng(1000 * q + 10 * k + rotated)
    family = build_family("toeplitz", q, 2, k)
    ens = random_diagonal_ensemble(rng, q**2, 2)
    if rotated:
        ens = rotate_ensemble(ens, rng)
    assert ens.exact is not rotated
    for h_plus in H_PLUS:
        assert_same_report(tripartite_report(ens, family, h_plus=h_plus),
                           earlier_tripartite_verdict(ens, family, h_plus))


def test_collision_bound_needs_an_integer_floor():
    # The report's collision bound is an exact Fraction only for an integer
    # or default floor; any other floor gives a float.
    rng = np.random.default_rng(5)
    family = build_family("linear", 3, 2, 1)
    f = FiniteDistribution.random_rational(Alphabet(3, 2), rng)
    for h_plus in (None, 2, 2.0, -1, Fraction(4, 2)):
        want = (Fraction(1, 3) + earlier_q_pow_neg(3, h_plus, f)) / family.group_size
        got = lhl_report(f, family, h_plus)["collision_bound"]
        assert type(got) is Fraction and got == want
    for h_plus in (2.5, Fraction(3, 2), -0.5):
        got = lhl_report(f, family, h_plus)["collision_bound"]
        assert type(got) is float
        assert got == (1 / 3 + 3.0 ** -float(h_plus)) / family.group_size


# Largest admitted and smallest refused floors at q = 2 (log2 q = 1) and
# q = 3 (MAX_FLOOR_BITS / log2 3 lies between 630 and 631).
EDGES = [
    (2, MAX_FLOOR_BITS, MAX_FLOOR_BITS + 1),
    (2, float(MAX_FLOOR_BITS), math.nextafter(float(MAX_FLOOR_BITS), math.inf)),
    (3, 630, 631),
    (3, 630.9, 631.0),
]


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("q,admitted,refused", EDGES)
def test_floor_cap_edges(q, admitted, refused, sign):
    family = build_family("linear", q, 2, 1)
    f = FiniteDistribution.uniform(Alphabet(q, 2))
    ens = random_diagonal_ensemble(np.random.default_rng(9), q**2, 2)
    rep = lhl_report(f, family, h_plus=sign * admitted)
    assert math.isfinite(rep["bound"]) and rep["bound"] > 0
    assert math.isfinite(float(rep["collision_bound"]))
    assert rep["exact_comparison"] is float(admitted).is_integer()
    assert math.isfinite(tripartite_report(ens, family, h_plus=sign * admitted)["bound"])
    assert 0 < lhl_bound(q, 1, sign * admitted) < math.inf
    for call in (lambda: lhl_report(f, family, h_plus=sign * refused),
                 lambda: lhl_bound(q, 1, sign * refused),
                 lambda: tripartite_report(ens, family, h_plus=sign * refused)):
        with pytest.raises(ValueError, match="h_plus"):
            call()


@pytest.mark.parametrize("h_plus", [math.nan, math.inf, -math.inf,
                                    Fraction(10**400), -(10**400)])
def test_floor_cap_refuses_non_finite_and_huge(h_plus):
    family = build_family("linear", 2, 2, 1)
    with pytest.raises(ValueError, match="h_plus"):
        lhl_report(FiniteDistribution.uniform(Alphabet(2, 2)), family, h_plus=h_plus)
    with pytest.raises(ValueError, match="h_plus"):
        lhl_bound(2, 1, h_plus)


@pytest.mark.parametrize("q,admitted,refused", [
    (2, MAX_FLOOR_BITS, MAX_FLOOR_BITS + 1), (3, 630, 631)])
def test_lhl_bound_key_length_cap(q, admitted, refused):
    # The reports pass a built family's k; only a direct caller reaches this.
    for h_plus in (0, admitted, -admitted):
        assert 0 < lhl_bound(q, admitted, h_plus) < math.inf
        with pytest.raises(ValueError, match="^k=%d out of range" % refused):
            lhl_bound(q, refused, h_plus)


@pytest.mark.parametrize("k", [0, -1, -5000, 1.5, 2.0, Fraction(3), math.nan,
                               math.inf, pytest.param(10**400, id="10**400")])
def test_lhl_bound_refuses_bad_key_length(k):
    with pytest.raises(ValueError, match="^k="):
        lhl_bound(2, k, 0)


@pytest.mark.parametrize("admitted,refused", [
    ("1000", "1001"), ("-1000", "-1001"),
    ("1000.0", "1000.0000000000001"), ("-1000.0", "-1000.0000000000001"),
])
def test_cli_floor_cap_edges(capsys, admitted, refused):
    argv = ["lhl", "--q", "2", "--m", "2", "--k", "1", "--h-plus"]
    assert main(argv + [admitted]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep["bound"], float) and math.isfinite(rep["bound"])
    assert main(argv + [refused]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: h_plus=") and out.err.count("\n") == 1
