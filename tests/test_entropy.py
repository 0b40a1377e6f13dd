import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from kdcheck.cli import main
from kdcheck.core import Alphabet, FiniteDistribution, distribution_from_json
from kdcheck.entropy import (
    DENSITY_NODES,
    MASS_TOL,
    ContinuousDensity,
    aep_estimate,
    differential_entropy,
    divergence_report,
    entropy_report,
    renyi_divergence,
    renyi_entropy,
)

GAUSS_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)

F34 = FiniteDistribution(Alphabet(2), (Fraction(3, 4), Fraction(1, 4)))
U2 = FiniteDistribution.uniform(Alphabet(2))
STAIRS = FiniteDistribution(
    Alphabet(4),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)))


def weights_strategy(n, max_weight=40):
    return st.lists(st.integers(min_value=1, max_value=max_weight),
                    min_size=n, max_size=n)


def make_dist(raw):
    tot = sum(raw)
    return FiniteDistribution(Alphabet(len(raw)),
                              tuple(Fraction(r, tot) for r in raw))


# ---------------------------------------------------------------------------
# Divergence closed forms
# ---------------------------------------------------------------------------

def test_divergence_order2_oracle():
    # sum f^2/g = (9/16 + 1/16) / (1/2) = 5/4
    val = renyi_divergence(F34, U2, 2.0)
    assert abs(val - math.log2(5.0 / 4.0)) < 1e-12


def test_divergence_order_half_oracle():
    # -2 log sum sqrt(f g)
    s = math.sqrt(3.0 / 8.0) + math.sqrt(1.0 / 8.0)
    val = renyi_divergence(F34, U2, 0.5)
    assert abs(val - (-2.0) * math.log2(s)) < 1e-12


def test_divergence_kl_oracle():
    want = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
    assert abs(renyi_divergence(F34, U2, 1.0) - want) < 1e-12


def test_divergence_max_order_oracle():
    assert abs(renyi_divergence(F34, U2, math.inf) - math.log2(1.5)) < 1e-12


def test_divergence_order0_support():
    # order 0: -log of reference mass on the support of the first argument
    part = FiniteDistribution(Alphabet(2), (Fraction(1), Fraction(0)))
    assert abs(renyi_divergence(part, U2, 0.0) - 1.0) < 1e-12
    assert renyi_divergence(F34, U2, 0.0) == 0.0


def test_divergence_identical_is_zero_exactly():
    for a in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert renyi_divergence(F34, F34, a) == 0.0


def test_divergence_support_mismatch_infinite():
    part = FiniteDistribution(Alphabet(2), (Fraction(1), Fraction(0)))
    assert renyi_divergence(U2, part, 2.0) == math.inf
    assert renyi_divergence(U2, part, math.inf) == math.inf


def test_divergence_near_one_dispatches_to_kl():
    rep = divergence_report(F34, U2, 1.0 + 1e-12)
    assert rep["method"] == "closed-form:kl"
    kl = renyi_divergence(F34, U2, 1.0)
    assert abs(rep["value"] - kl) < 1e-9


def test_divergence_huge_order_dispatches_to_max():
    rep = divergence_report(F34, U2, 1e12)
    assert rep["method"] == "closed-form:max-ratio"
    assert abs(rep["value"] - math.log2(1.5)) < 1e-12


def test_divergence_generic_order_between_closed_forms():
    val = renyi_divergence(F34, U2, 1.5)
    lo = renyi_divergence(F34, U2, 1.0)
    hi = renyi_divergence(F34, U2, 2.0)
    assert lo - 1e-12 <= val <= hi + 1e-12


def test_divergence_order2_limit_agreement():
    # generic formula just off order 2 agrees with the closed form
    closed = renyi_divergence(F34, U2, 2.0)
    for a in (2.0 - 1e-6, 2.0 + 1e-6):
        assert abs(renyi_divergence(F34, U2, a) - closed) < 1e-6


def test_divergence_base_override():
    v2 = renyi_divergence(F34, U2, 2.0, base=2)
    ve = renyi_divergence(F34, U2, 2.0, base=math.e)
    assert abs(v2 * math.log(2.0) - ve) < 1e-12


@seed(11)
@given(weights_strategy(4), weights_strategy(4))
def test_divergence_nonnegative_and_monotone(raw_f, raw_g):
    f, g = make_dist(raw_f), make_dist(raw_g)
    orders = [0.0, 0.5, 1.0, 2.0, math.inf]
    vals = [renyi_divergence(f, g, a) for a in orders]
    assert all(v >= -1e-12 for v in vals)
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-10


# ---------------------------------------------------------------------------
# Entropy closed forms
# ---------------------------------------------------------------------------

def test_entropy_order2_oracle():
    # power sum 22/64, base 4
    want = -math.log(22.0 / 64.0, 4.0)
    assert abs(renyi_entropy(STAIRS, 2.0) - want) < 1e-12


def test_entropy_min_oracle():
    assert abs(renyi_entropy(STAIRS, math.inf) - 0.5) < 1e-12
    assert abs(renyi_entropy(STAIRS, math.inf, base=2) - 1.0) < 1e-12


def test_entropy_shannon_oracle():
    assert abs(renyi_entropy(STAIRS, 1.0) - 0.875) < 1e-12
    assert abs(renyi_entropy(STAIRS, 1.0, base=2) - 1.75) < 1e-12


def test_entropy_order0_counts_support():
    assert abs(renyi_entropy(STAIRS, 0.0) - 1.0) < 1e-12
    part = FiniteDistribution(Alphabet(4), (Fraction(1, 2), Fraction(1, 2),
                                            Fraction(0), Fraction(0)))
    assert abs(renyi_entropy(part, 0.0) - 0.5) < 1e-12


def test_entropy_uniform_is_one_in_native_base():
    for n in (2, 3, 5, 8):
        u = FiniteDistribution.uniform(Alphabet(n))
        for a in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert abs(renyi_entropy(u, a) - 1.0) < 1e-12


def test_entropy_report_methods():
    assert entropy_report(STAIRS, math.inf)["method"] == "closed-form:min-entropy"
    assert entropy_report(STAIRS, 1.0)["method"] == "closed-form:shannon"
    assert entropy_report(STAIRS, 0.0)["method"] == "closed-form:max-entropy"
    assert entropy_report(STAIRS, 2.0)["method"] == "closed-form:power-sum"
    assert entropy_report(STAIRS, 1.7)["method"] == "generic"


@pytest.mark.parametrize("order, method", [
    (0.0, "closed-form:max-entropy"),
    (0.5, "closed-form:power-sum"),
    (1.0, "closed-form:shannon"),
    (2.0, "closed-form:power-sum"),
    (3.0, "generic"),
    (math.inf, "closed-form:min-entropy"),
])
def test_entropy_report_matches_renyi_entropy(order, method):
    rep = entropy_report(STAIRS, order)
    assert rep["value"] == renyi_entropy(STAIRS, order)
    assert rep["method"] == method


@seed(12)
@given(weights_strategy(6))
def test_entropy_order_monotone(raw):
    f = make_dist(raw)
    orders = [0.0, 0.5, 1.0, 2.0, math.inf]
    vals = [renyi_entropy(f, a) for a in orders]
    for hi, lo in zip(vals, vals[1:]):
        assert hi >= lo - 1e-10
    assert vals[-1] >= 0.0


@seed(13)
@given(weights_strategy(5))
def test_collision_entropy_dominates_min_entropy(raw):
    f = make_dist(raw)
    assert renyi_entropy(f, 2.0) >= renyi_entropy(f, math.inf) - 1e-12


# ---------------------------------------------------------------------------
# Differential entropy
# ---------------------------------------------------------------------------

def test_gaussian_differential_entropy():
    d = ContinuousDensity.gaussian(0.0, 1.0)
    assert abs(differential_entropy(d)["value"] - GAUSS_ENTROPY) < 1e-6


def test_differential_entropy_translation_invariant():
    a = differential_entropy(ContinuousDensity.gaussian(0.0, 1.0))["value"]
    b = differential_entropy(ContinuousDensity.gaussian(5.0, 1.0))["value"]
    assert abs(a - b) < 1e-9


def test_differential_entropy_scaling():
    # h(aX) = h(X) + ln a; variance 4 doubles the width
    a = differential_entropy(ContinuousDensity.gaussian(0.0, 1.0))["value"]
    b = differential_entropy(ContinuousDensity.gaussian(0.0, 4.0))["value"]
    assert abs(b - a - math.log(2.0)) < 1e-6


def test_differential_entropy_report_fields():
    rep = differential_entropy(ContinuousDensity.gaussian(0.0, 1.0))
    assert rep["error_estimate"] < 1e-8
    assert rep["nodes"] == DENSITY_NODES >= 8
    assert rep["rule"] == "composite-gauss-legendre"


def test_uniform_density_entropy():
    d = ContinuousDensity(lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0),
                          lower=-1.0, upper=1.0)
    assert abs(differential_entropy(d)["value"] - math.log(2.0)) < 1e-6


@pytest.mark.parametrize("scale", [1 - 2 * MASS_TOL, 1 + 2 * MASS_TOL])
def test_window_mass_beyond_mass_tol_refused(scale):
    ContinuousDensity(lambda x: np.full(np.shape(x), 0.5 * (1 + MASS_TOL / 2)), -1.0, 1.0)
    with pytest.raises(ValueError, match="deviates from 1 beyond tol 1e-06"):
        ContinuousDensity(lambda x: np.full(np.shape(x), 0.5 * scale), -1.0, 1.0)


@pytest.mark.parametrize("make,message", [
    (lambda: ContinuousDensity(lambda x: np.exp(-np.abs(x)) / 2, -math.inf, math.inf),
     "window must be finite"),
    (lambda: ContinuousDensity(lambda x: np.full(np.shape(x), 0.5), math.nan, 2.0),
     "window must be finite"),
    (lambda: ContinuousDensity.gaussian(0.0, math.inf), "variance must be finite, got inf"),
    (lambda: ContinuousDensity.gaussian(math.nan, 1.0), "mean must be finite, got nan"),
    (lambda: ContinuousDensity.gaussian(0.0, math.nan), "variance must be finite, got nan"),
    (lambda: ContinuousDensity.gaussian(math.inf, 1.0), "mean must be finite, got inf"),
    (lambda: ContinuousDensity.gaussian(-math.inf, 1.0), "mean must be finite, got -inf"),
], ids=["window-inf", "window-nan", "gaussian-var-inf", "gaussian-mean-nan",
        "gaussian-var-nan", "gaussian-mean-inf", "gaussian-mean-minus-inf"])
def test_non_finite_window_refused_before_any_rule(monkeypatch, make, message):
    from kdcheck import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("built a rule")
    monkeypatch.setattr(quadrature, "gauss_legendre_1d", refuse)
    with pytest.raises(ValueError, match="^%s$" % message):
        make()


# ---------------------------------------------------------------------------
# Sampling estimators
# ---------------------------------------------------------------------------

def test_aep_discrete_converges():
    f = STAIRS
    h_nats = renyi_entropy(f, 1.0, base=math.e)
    est = aep_estimate(f, 10**4, seed=3)
    assert abs(est - h_nats) < 0.02


def test_aep_wide_alphabet_within_six_standard_errors():
    # 2**16 symbols, drawn by Generator.choice; the standard error of
    # -ln f(X) is taken from the exact law.
    f = FiniteDistribution.random_rational(Alphabet(2**16), np.random.default_rng(16))
    w = f.as_floats()
    h_nats = renyi_entropy(f, 1.0, base=math.e)
    se = math.sqrt((float(np.dot(w, np.log(w) ** 2)) - h_nats**2) / 10**5)
    assert abs(aep_estimate(f, 10**5, seed=4) - h_nats) <= 6 * se


def test_aep_gaussian_converges():
    d = ContinuousDensity.gaussian(0.0, 1.0)
    est = aep_estimate(d, 10**4, seed=7)
    assert abs(est - GAUSS_ENTROPY) < 0.05


def test_aep_deterministic_per_seed():
    f = STAIRS
    assert aep_estimate(f, 500, seed=5) == aep_estimate(f, 500, seed=5)
    assert aep_estimate(f, 500, seed=5) != aep_estimate(f, 500, seed=6)


def test_point_mass_entropy_zero():
    p = FiniteDistribution(Alphabet(4), (0, 0, 1, 0))
    for a in (0.5, 1.0, 2.0, math.inf):
        assert abs(renyi_entropy(p, a)) < 1e-12
    assert aep_estimate(p, 100, seed=0) == 0.0


def test_invalid_orders_rejected():
    with pytest.raises(ValueError, match="alpha >= 0"):
        renyi_entropy(STAIRS, -0.5)
    with pytest.raises(ValueError, match="alpha >= 0"):
        renyi_divergence(F34, U2, -1.0)


# ---------------------------------------------------------------------------
# Exact laws read as integer numerators over one denominator
# ---------------------------------------------------------------------------

# Printed by `kdcheck entropy --random 1048576 --order <order>` (seed 0)
# when each weight was held as a Fraction and read with float(w).
RANDOM_2_20 = {"0": 1.0, "0.5": 0.9923983707107981, "1": 0.9871335463618318,
               "2": 0.9803730401002313, "inf": 0.9522669409087312}


@pytest.mark.parametrize("order", sorted(RANDOM_2_20))
def test_random_2_20_entropy_pinned(capsys, order):
    assert main(["entropy", "--random", "1048576", "--order", order]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == RANDOM_2_20[order]


def fraction_entropy(weights, alpha, base):
    """Entropy read from one Fraction per weight, rounding each with float(w)."""
    if math.isinf(alpha):
        return -math.log(float(max(weights)), base)
    if alpha == 1.0:
        return math.fsum(-float(w) * math.log(float(w)) for w in weights if w > 0) \
            / math.log(base)
    if alpha == 0.0:
        return math.log(float(sum(1 for w in weights if w > 0)), base)
    s = math.fsum(float(w) ** alpha for w in weights if w > 0)
    return math.log(s, base) / (1.0 - alpha)


BIG_D = [Fraction(1, 3**40), Fraction(1, 5**30), Fraction(1, 7**25)]
BIG_D.append(1 - sum(BIG_D))
BIG_D_TEXT = ["%d/%d" % (w.numerator, w.denominator) for w in BIG_D]


def test_denominator_past_2_53_reads_like_fractions(capsys):
    f = distribution_from_json({"alphabet": {"size": 4}, "weights": BIG_D_TEXT})
    assert f.denominator >= 2**53
    assert f.as_floats().tolist() == [float(w) for w in BIG_D]
    for order in (0.0, 0.5, 0.7, 1.0, 2.0, 3.0, math.inf):
        assert renyi_entropy(f, order) == fraction_entropy(BIG_D, order, 4)
        assert main(["entropy", "--weights", ",".join(BIG_D_TEXT), "--order", repr(order)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == fraction_entropy(BIG_D, order, 4)
