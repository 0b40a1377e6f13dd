import math
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from kdcheck import quadrature, semigroup
from kdcheck.cli import _FUNCTIONS
from kdcheck.quadrature import MAX_TOTAL_NODES, PANEL_ORDER, gauss_legendre_1d, tensor_rule
from kdcheck.semigroup import (
    CovSpec,
    QuadratureWarning,
    apply,
    build_sigma,
    check_contraction,
    check_semigroup,
    determinant_closed,
    determinant_lu,
    inverse_sigma,
    kernel_pdf,
)

DET_TOL = 1e-10
COMPOSE_TOL = 1e-6


def gauss_pdf(mean, var):
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(
            2.0 * math.pi * var)
    return f


# ---------------------------------------------------------------------------
# Quadrature layer
# ---------------------------------------------------------------------------

def test_gauss_legendre_polynomial_exact():
    pts, wts = gauss_legendre_1d(-1.0, 1.0, 24)
    # degree-7 polynomial integrates exactly
    val = float(np.dot(wts, pts ** 7 + 2 * pts ** 2))
    assert abs(val - 4.0 / 3.0) < 1e-13


def separate_tensor_rule(lows, highs, nodes):
    """The Gauss-Legendre box rule as built before it shared its tensor step."""
    axes = [gauss_legendre_1d(float(lo), float(hi), nodes) for lo, hi in zip(lows, highs)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = axes[0][1]
    for j in range(1, len(axes)):
        wts = np.multiply.outer(wts, axes[j][1])
    return pts, wts.ravel()


def separate_whitened_rule(chol, t, n):
    """The whitened Hermite rule as built before it shared its tensor step."""
    d = chol.shape[0]
    z1, w1 = semigroup._hermite_1d(n)
    grids = np.meshgrid(*([z1] * d), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=-1)
    weights = w1
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, w1).ravel()
    return math.sqrt(t) * (z @ chol.T), weights


def assert_same_arrays(got, ref):
    for a, b in zip(got, ref, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("d,nodes", [
    (d, n) for d in (1, 2, 3, 4) for n in (1, 24, 25, 49)
    if (PANEL_ORDER * math.ceil(n / PANEL_ORDER)) ** d <= MAX_TOTAL_NODES])
def test_tensor_rule_matches_reference_rule(d, nodes):
    lows, highs = (-1.0, 0.0, -3.0, 2.0)[:d], (1.0, 3.0, 0.5, 2.25)[:d]
    assert_same_arrays(tensor_rule(lows, highs, nodes),
                       separate_tensor_rule(lows, highs, nodes))


@pytest.mark.parametrize("d,n", [
    (d, n) for d in (1, 2, 3, 4) for n in (2, 7, 20, 40) if n**d <= 200_000])
def test_whitened_rule_matches_reference_rule(d, n):
    spec = CovSpec(d, (1.0, 0.8, 1.2, 0.5)[:d], (0.2, -0.1, 0.3, 0.1, 0.0, -0.2)[:d * (d - 1) // 2])
    chol = semigroup._cholesky(spec)
    assert_same_arrays(semigroup._whitened_rule(chol, 0.6, n),
                       separate_whitened_rule(chol, 0.6, n))


def test_tensor_rule_volume():
    pts, wts = tensor_rule((-1.0, 0.0), (1.0, 3.0), 12)
    assert abs(float(wts.sum()) - 6.0) < 1e-12
    assert pts.shape == (wts.size, 2)


# ---------------------------------------------------------------------------
# Covariance specifications
# ---------------------------------------------------------------------------

def test_cov_spec_validation():
    with pytest.raises(ValueError):
        CovSpec(2, (1.0, -1.0), (0.0,))
    with pytest.raises(ValueError):
        CovSpec(2, (1.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        CovSpec(3, (1.0, 1.0, 1.0), (0.9, 0.9))


def test_cov_spec_rejects_non_positive_definite():
    # correlations mutually inconsistent: matrix not PD
    with pytest.raises(ValueError):
        CovSpec(3, (1.0, 1.0, 1.0), (0.9, 0.9, -0.9))


def test_det_closed_form_d2_oracle():
    spec = CovSpec(2, (1.0, 1.0), (0.5,))
    assert abs(determinant_closed(spec) - 0.75) < 1e-15
    assert abs(determinant_lu(spec) - 0.75) < 1e-12


def test_det_closed_form_d3_oracle():
    spec = CovSpec(3, (1.0, 1.0, 1.0), (0.5, 0.5, 0.5))
    # 1 - 3/4 + 2/8
    assert abs(determinant_closed(spec) - 0.5) < 1e-15
    assert abs(determinant_lu(spec) - 0.5) < 1e-12


def test_det_scales_with_variances():
    spec = CovSpec(2, (2.0, 3.0), (0.5,))
    assert abs(determinant_closed(spec) - 6.0 * 0.75) < 1e-12


def test_build_sigma_reports_agreement():
    spec = CovSpec(4, (1.0, 2.0, 0.5, 1.5), (0.2, -0.1, 0.3, 0.1, -0.2, 0.25))
    sigma, rep = build_sigma(spec)
    assert rep["agreement"] <= DET_TOL * max(1.0, abs(rep["det_lu"]))
    assert np.allclose(sigma, sigma.T)


def test_inverse_printed_form_d2():
    s11, s22, rho = 2.0, 0.5, 0.4
    spec = CovSpec(2, (s11, s22), (rho,))
    inv, rep = inverse_sigma(spec)
    pref = 1.0 / (s11 * s22 * (1.0 - rho * rho))
    cross = -rho * math.sqrt(s11 * s22)
    want = pref * np.array([[s22, cross], [cross, s11]])
    assert np.abs(inv - want).max() < 1e-12
    assert rep["agreement"] <= DET_TOL


def test_inverse_is_true_inverse_d3():
    spec = CovSpec(3, (1.0, 2.0, 1.5), (0.3, -0.2, 0.4))
    inv, _ = inverse_sigma(spec)
    assert np.abs(inv @ spec.sigma() - np.eye(3)).max() < 1e-10


def test_kernel_normalization_d1():
    spec = CovSpec(1, (0.7,))
    pdf = kernel_pdf(spec, 0.9)
    pts, wts = tensor_rule((-8.0,), (8.0,), 201)
    assert pts.shape[1] == 1 and pdf(pts).shape == (len(pts),)
    assert abs(float(np.dot(wts, pdf(pts))) - 1.0) < 1e-8


def test_kernel_normalization_d2_correlated():
    spec = CovSpec(2, (1.0, 1.0), (0.3,))
    pdf = kernel_pdf(spec, 1.0)
    pts, wts = tensor_rule((-8.0, -8.0), (8.0, 8.0), 101)
    assert abs(float(np.dot(wts, pdf(pts))) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# Averaging operator
# ---------------------------------------------------------------------------

SPEC_1D = CovSpec(1, (0.8,))
PTS_1D = [-1.0, 0.5]
ROUTES_1D = {
    "apply-identity": lambda f: apply(f, 0.0, SPEC_1D, PTS_1D),
    "apply-quadrature": lambda f: apply(f, 0.5, SPEC_1D, PTS_1D),
    "apply-mc": lambda f: apply(f, 0.5, SPEC_1D, PTS_1D, method="mc", samples=100),
    "compose-quadrature": lambda f: check_semigroup(f, 0.3, 0.5, SPEC_1D, PTS_1D),
    "compose-mc": lambda f: check_semigroup(f, 0.3, 0.5, SPEC_1D, PTS_1D,
                                            method="mc", samples=100),
    "contraction": lambda f: check_contraction(f, 0.5, SPEC_1D, ((-4.0,), (4.0,))),
}


@pytest.mark.parametrize("route", sorted(ROUTES_1D))
def test_one_dimensional_f_receives_n_by_one_arrays(route):
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.exp(-0.5 * x[:, 0] ** 2)

    ROUTES_1D[route](f)
    assert shapes and all(len(shape) == 2 and shape[1] == 1 for shape in shapes)


def test_time_zero_is_identity():
    spec = CovSpec(1, (1.0,))
    f = gauss_pdf(0.3, 0.4)
    pts = [-0.5, 0.0, 1.2]
    assert np.allclose(apply(f, 0.0, spec, pts), f(np.asarray(pts)))


def test_gaussian_conjugacy_quadrature():
    # averaging a Gaussian pdf gives the variance-shifted Gaussian pdf
    spec = CovSpec(1, (0.8,))
    f = gauss_pdf(0.1, 0.5)
    t = 0.6
    pts = np.array([-1.0, 0.0, 0.4, 2.0])
    got = apply(f, t, spec, pts)
    want = gauss_pdf(0.1, 0.5 + t * 0.8)(pts)
    assert np.abs(got - want).max() < 1e-8


def test_gaussian_conjugacy_mc():
    spec = CovSpec(1, (1.0,))
    f = gauss_pdf(0.0, 1.0)
    got = apply(f, 1.0, spec, [0.0], method="mc", seed=11,
                samples=200_000)[0]
    want = gauss_pdf(0.0, 2.0)(np.array([0.0]))[0]
    assert abs(got - want) < 3e-3


def test_composition_quadrature_d1():
    spec = CovSpec(1, (0.8,))
    f = gauss_pdf(0.2, 0.5)
    rep = check_semigroup(f, 0.5, 0.5, spec, [-1.0, 0.0, 0.5],
                          method="quadrature")
    assert rep["max_abs_deviation"] < COMPOSE_TOL


def test_composition_quadrature_d2():
    spec = CovSpec(2, (1.0, 0.7), (0.4,))

    def f(x):
        return np.exp(-0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2) / 2.0)

    rep = check_semigroup(f, 0.4, 0.7, spec, [[0.0, 0.0], [0.6, -0.3]],
                          method="quadrature")
    assert rep["max_abs_deviation"] < COMPOSE_TOL


def test_composition_mc_indicator_within_clt_band():
    # the MC route cannot beat its own standard error; three combined SEs
    spec = CovSpec(1, (1.0,))
    ind = lambda x: np.where(np.abs(np.asarray(x)) <= 1.0, 1.0, 0.0)
    rep = check_semigroup(ind, 1.0, 1.0, spec, [0.0, 0.5, -0.5],
                          method="mc", seed=0, samples=10**6)
    assert rep["max_deviation_in_se"] < 3.0


def test_contraction_battery():
    spec = CovSpec(1, (1.0,))
    f = lambda x: np.exp(-0.25 * np.asarray(x) ** 2) * np.cos(2.0 * np.asarray(x))
    rep = check_contraction(f, 0.5, spec, ((-6.0,), (6.0,)))
    assert rep["sup_contracts"] and rep["l1_contracts"]
    assert rep["sup_ptf"] <= rep["sup_f"] + 1e-9


def test_apply_deterministic_per_seed():
    spec = CovSpec(2, (1.0, 1.0), (0.2,))

    def f(x):
        return np.exp(-np.abs(x).sum(axis=1))

    a = apply(f, 0.5, spec, [[0.0, 0.0]], method="mc", seed=3, samples=5000)
    b = apply(f, 0.5, spec, [[0.0, 0.0]], method="mc", seed=3, samples=5000)
    c = apply(f, 0.5, spec, [[0.0, 0.0]], method="mc", seed=4, samples=5000)
    assert a[0] == b[0] and a[0] != c[0]


def closed_form_average(x, cov):
    """The standard normal pdf averaged over N(x, cov): the N(0, I + cov) pdf."""
    a = np.eye(len(x)) + cov
    quad = float(x @ np.linalg.solve(a, x))
    return math.exp(-0.5 * quad) / math.sqrt(
        (2.0 * math.pi) ** len(x) * np.linalg.det(a))


def test_hermite_rule_finite_and_exact():
    # Golub-Welsch stays finite where hermegauss overflows to NaN weights.
    z, w = semigroup._hermite_1d(1000)
    assert np.isfinite(z).all() and np.isfinite(w).all()
    assert abs(float(w.sum()) - 1.0) < 1e-14
    assert abs(float(np.dot(w, z ** 2)) - 1.0) < 1e-12
    # n nodes integrate polynomials of degree 2n - 1 against N(0, 1).
    z, w = semigroup._hermite_1d(5)
    assert abs(float(np.dot(w, z ** 8)) - 105.0) < 1e-11
    assert abs(float(np.dot(w, z ** 6 + z ** 9)) - 15.0) < 1e-12


@pytest.mark.parametrize("rho", [0.99, 0.999, 0.9999])
def test_gauss_average_closed_form_high_correlation(rho):
    spec = CovSpec(2, (1.0, 1.0), (rho,))
    t = 1.0
    pts = np.array([[0.0, 0.0], [0.3, -0.2], [-1.0, -1.1]])
    got = apply(_FUNCTIONS["gauss"], t, spec, pts)
    want = np.array([closed_form_average(x, t * spec.sigma()) for x in pts])
    assert np.abs(got / want - 1.0).max() < 1e-10


@pytest.mark.parametrize("chunk_rows", [500, 4000])
def test_batch_matches_single_point_calls(monkeypatch, chunk_rows):
    # 1600 nodes per point: 500 rows split each point's nodes into four
    # blocks, 4000 rows hold two points per block; either way the seven
    # points span at least three chunks.  At the default size all seven
    # points fit in one block.
    spec = CovSpec(2, (1.0, 0.7), (0.4,))
    pts = np.random.default_rng(5).standard_normal((7, 2))
    whole = apply(_FUNCTIONS["wave"], 0.8, spec, pts)
    monkeypatch.setattr(semigroup, "CHUNK_ROWS", chunk_rows)
    sizes = []

    def wave(x):
        sizes.append(len(x))
        return _FUNCTIONS["wave"](x)

    batch = apply(wave, 0.8, spec, pts)
    assert max(sizes) <= chunk_rows and len(sizes) >= 3
    single = np.array([apply(_FUNCTIONS["wave"], 0.8, spec, [p])[0] for p in pts])
    assert np.abs(batch - single).max() < 1e-14
    assert np.abs(batch - whole).max() < 1e-14


VERIFY_SPEC2 = CovSpec(2, (1.0, 0.7), (0.4,))


def verify_f2(x):
    return np.exp(-0.5 * ((x[:, 0] - 0.2) ** 2 + 0.8 * x[:, 1] ** 2) / 1.5) \
        * (1.0 + 0.3 * np.sin(x[:, 0]))


def verify_wave(x):
    x = np.asarray(x)
    return np.exp(-0.25 * x ** 2) * np.cos(2.0 * x)


def assert_rule_fields(rep, nodes):
    assert rep["rule"] == "gauss-hermite-whitened"
    assert rep["nodes_per_dim"] == nodes
    assert 0.0 <= rep["error_estimate"] <= 1e-6


@pytest.mark.parametrize("f, spec, s, t, pts", [
    (gauss_pdf(0.2, 0.5), CovSpec(1, (0.8,)), 0.3, 0.5, [-1.2, -0.3, 0.0, 0.7, 1.5]),
    (verify_wave, CovSpec(1, (0.8,)), 0.3, 0.5, [-1.2, -0.3, 0.0, 0.7, 1.5]),
    (verify_f2, VERIFY_SPEC2, 0.4, 0.7,
     [[0.0, 0.0], [0.5, -0.4], [-0.8, 0.3], [1.0, 1.0]]),
], ids=["d1-gauss", "d1-wave", "d2"])
def test_composition_verify_functions(f, spec, s, t, pts):
    rep = check_semigroup(f, s, t, spec, pts)
    assert rep["max_abs_deviation"] < COMPOSE_TOL
    assert_rule_fields(rep, 40)


# Sup and L1 norms of P_t f from the 8-sigma Gauss-Legendre box rule that
# the Hermite rule replaced (same window grids).
@pytest.mark.parametrize("f, spec, t, window, sup_ptf, l1_ptf, nodes", [
    (verify_wave, CovSpec(1, (0.8,)), 0.7, ((-6.0,), (6.0,)),
     0.36466981092042744, 0.9408063840748062, 40),
    (verify_f2, VERIFY_SPEC2, 0.5, ((-6.0, -6.0), (6.0, 6.0)),
     0.8558468179734393, 10.83388097883135, 20),
], ids=["d1", "d2"])
def test_contraction_matches_box_rule(f, spec, t, window, sup_ptf, l1_ptf, nodes):
    rep = check_contraction(f, t, spec, window)
    assert rep["sup_contracts"] and rep["l1_contracts"]
    assert abs(rep["sup_ptf"] - sup_ptf) < 1e-12
    assert abs(rep["l1_ptf"] - l1_ptf) < 1e-12
    assert_rule_fields(rep, nodes)


def contraction_window(spec, t, half_width):
    """The L1 grid of ``check_contraction`` on ``[-half_width, half_width]^d``."""
    d = spec.dim
    pad = semigroup.WINDOW_SIGMAS * np.sqrt(t * np.diag(spec.sigma()))
    pts, _ = tensor_rule(-half_width - pad, half_width + pad,
                         semigroup.WINDOW_NODES[d])
    return pts


def two_rung_average(f, t, spec, pts, n):
    """``(Q_n, n, max |Q_n - Q_{n/2}|)`` from the two rules alone."""
    chol = semigroup._cholesky(spec)
    fine = semigroup._average(f, pts, *semigroup._whitened_rule(chol, t, n))
    coarse = semigroup._average(f, pts, *semigroup._whitened_rule(chol, t, n // 2))
    return fine, n, float(np.abs(fine - coarse).max())


SPEC1 = CovSpec(1, (0.8,))
PTS1 = np.array([[-1.2], [-0.3], [0.0], [0.7], [1.5]])
PTS2 = np.array([[0.0, 0.0], [0.5, -0.4], [-0.8, 0.3], [1.0, 1.0]])


@pytest.mark.parametrize("f, t, spec, pts, rungs", [
    (_FUNCTIONS["wave"], 1.0, CovSpec(2, (1.0, 1.0), (0.4,)),
     np.random.default_rng(0).standard_normal((200, 2)), (10, 20, 40)),
    (gauss_pdf(0.2, 0.5), 0.8, SPEC1, PTS1, (10, 20, 40)),
    (verify_wave, 0.8, SPEC1, PTS1, (10, 20, 40)),
    (verify_f2, 1.1, VERIFY_SPEC2, PTS2, (10, 20, 40)),
    (verify_f2, 0.5, VERIFY_SPEC2, contraction_window(VERIFY_SPEC2, 0.5, 6.0),
     (10, 20)),
], ids=["cli-wave", "compose-d1-gauss", "compose-d1-wave", "compose-d2",
        "window-d2"])
def test_default_ladder_is_its_last_two_rungs(monkeypatch, f, t, spec, pts, rungs):
    # The default result, count and estimate are exactly those of the last
    # two rules the ladder built: a rung below them changes nothing.
    want = two_rung_average(f, t, spec, pts, rungs[-1])
    seen = []
    rule = semigroup._whitened_rule
    monkeypatch.setattr(semigroup, "_whitened_rule",
                        lambda chol, t, n: seen.append(n) or rule(chol, t, n))
    got, n, estimate = semigroup._hermite_average(
        f, t, semigroup._cholesky(spec), pts, None)
    assert tuple(seen) == rungs
    assert np.array_equal(got, want[0])
    assert (n, estimate) == want[1:]


def test_d2_contraction_window_settles_at_20():
    chol = semigroup._cholesky(VERIFY_SPEC2)
    pts = contraction_window(VERIFY_SPEC2, 0.5, 6.0)
    got, n, estimate = semigroup._hermite_average(verify_f2, 0.5, chol, pts, None)
    assert n == 20
    assert estimate <= semigroup.ESTIMATE_TOL
    # Every ninth window point against the 80-node rule.
    ref = semigroup._average(verify_f2, pts[::9],
                             *semigroup._whitened_rule(chol, 0.5, 80))
    assert np.abs(got[::9] - ref).max() <= estimate


def test_bump_warns_in_two_dimensions():
    spec = CovSpec(2, (1.0, 1.0), (0.4,))
    pts = [[0.0, 0.0], [1.0, -0.5]]
    with pytest.warns(QuadratureWarning, match="--nodes"):
        apply(_FUNCTIONS["bump"], 1.0, spec, pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply(_FUNCTIONS["wave"], 1.0, spec, pts)
        apply(_FUNCTIONS["gauss"], 1.0, spec, pts)


def test_bump_doubles_to_reference_in_one_dimension():
    spec = CovSpec(1, (1.0,))
    pts = [-2.0, 0.0, 0.5, 1.3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply(_FUNCTIONS["bump"], 1.0, spec, pts)
    ref = apply(_FUNCTIONS["bump"], 1.0, spec, pts, nodes=400)
    assert np.abs(got - ref).max() < 1e-6


@seed(51)
@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-0.8, max_value=0.8),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.2, max_value=3.0))
def test_det_closed_matches_lu_random_d2(rho, v1, v2):
    spec = CovSpec(2, (v1, v2), (rho,))
    assert abs(determinant_closed(spec) - determinant_lu(spec)) \
        <= DET_TOL * max(1.0, abs(determinant_lu(spec)))


def row_major_average(f, pts, offsets, weights, chunk_rows):
    """Reference kernel: each block broadcast as (point, node, coordinate)."""
    n_pts, d = pts.shape
    node_step = min(len(weights), chunk_rows)
    point_step = max(1, chunk_rows // node_step)
    out = np.zeros(n_pts)
    for i in range(0, n_pts, point_step):
        block = pts[i:i + point_step]
        for j in range(0, len(weights), node_step):
            rows = block[:, None, :] + offsets[None, j:j + node_step, :]
            vals = semigroup._eval_f(f, rows.reshape(-1, d)).reshape(len(block), -1)
            out[i:i + point_step] += vals @ weights[j:j + node_step]
    return out


@pytest.mark.parametrize("chunk_rows", [semigroup.CHUNK_ROWS, 64, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coordinate_major_average_matches_row_major(monkeypatch, d, chunk_rows):
    # The rule has 4**d nodes per point.  64 rows split the points into
    # blocks for d = 2, 3 and each point's nodes for d = 4; 7 rows split the
    # points for d = 1 and each point's nodes for d >= 2.  Both layouts add
    # the same two numbers for each coordinate, so the sums agree bit for bit.
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((11, d))
    spec = CovSpec(d, tuple(rng.uniform(0.5, 2.0, size=d)),
                   tuple(rng.uniform(-0.3, 0.3, size=d * (d - 1) // 2)))
    offsets, weights = semigroup._whitened_rule(semigroup._cholesky(spec), 0.6, 4)
    seen = []

    def f(x):
        seen.append(x)
        return np.cos(x[:, 0]) * np.exp(-0.5 * np.sum(x * x, axis=1))

    want = row_major_average(f, pts, offsets, weights, chunk_rows)
    seen.clear()
    monkeypatch.setattr(semigroup, "CHUNK_ROWS", chunk_rows)
    got = semigroup._average(f, pts, offsets, weights)
    assert np.array_equal(got, want)
    assert len(seen) > 1 if chunk_rows < len(pts) * len(weights) else len(seen) == 1
    for x in seen:
        assert x.dtype == np.float64
        assert x.shape == (len(x), d)
        assert 0 < len(x) <= chunk_rows


# ---------------------------------------------------------------------------
# Monte Carlo in CHUNK_ROWS blocks
# ---------------------------------------------------------------------------

MC_SPECS = {
    1: CovSpec(1, (0.8,)),
    2: CovSpec(2, (1.0, 0.7), (0.4,)),
    3: CovSpec(3, (1.0, 0.8, 1.2), (0.2, -0.1, 0.3)),
}
MC_POINTS = {1: [0.0, -0.7], 2: [[0.0, 0.0], [0.6, -0.3]],
             3: [[0.0, 0.0, 0.0], [0.5, -0.5, 0.2]]}
MC_SAMPLES = [2, semigroup.CHUNK_ROWS - 1, semigroup.CHUNK_ROWS,
              semigroup.CHUNK_ROWS + 1, 200_000]


def whole_array_apply_mc(f, t, spec, points, seed, samples):
    """Reference: Monte Carlo ``apply`` with one ``(samples, d)`` draw per point."""
    d = spec.dim
    pts = semigroup._as_points(points, d)
    scaled = math.sqrt(t) * semigroup._cholesky(spec)
    seeds = np.random.SeedSequence(seed).spawn(pts.shape[0])
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        z = np.random.default_rng(seeds[i]).standard_normal((samples, d))
        y = x[None, :] + semigroup._transform(z, scaled)
        out[i] = float(np.mean(semigroup._eval_f(f, y)))
    return out


def whole_array_compose_mc(f, s, t, spec, points, seed, samples):
    """Reference: ``(max_abs_deviation, max_deviation_in_se)`` from whole draws."""
    d = spec.dim
    pts = semigroup._as_points(points, d)
    chol = semigroup._cholesky(spec)
    seeds = np.random.SeedSequence(seed).spawn(pts.shape[0])
    max_dev_se = max_dev = 0.0
    for i, x in enumerate(pts):
        rng = np.random.default_rng(seeds[i])
        z1 = rng.standard_normal((samples, d))
        z2 = rng.standard_normal((samples, d))
        y = (x[None, :] + math.sqrt(s) * semigroup._transform(z1, chol)
             + math.sqrt(t) * semigroup._transform(z2, chol))
        v1 = semigroup._eval_f(f, y)
        z3 = rng.standard_normal((samples, d))
        v2 = semigroup._eval_f(
            f, x[None, :] + math.sqrt(s + t) * semigroup._transform(z3, chol))
        dev = abs(float(v1.mean() - v2.mean()))
        se = math.sqrt(v1.var(ddof=1) / samples + v2.var(ddof=1) / samples)
        max_dev = max(max_dev, dev)
        if se > 0:
            max_dev_se = max(max_dev_se, dev / se)
    return max_dev, max_dev_se


@pytest.mark.parametrize("samples", [1] + MC_SAMPLES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_mc_apply_matches_whole_draw(d, samples):
    f = _FUNCTIONS["wave"]
    got = apply(f, 0.6, MC_SPECS[d], MC_POINTS[d], method="mc", seed=9,
                samples=samples)
    want = whole_array_apply_mc(f, 0.6, MC_SPECS[d], MC_POINTS[d], 9, samples)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("samples", MC_SAMPLES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_mc_composition_matches_whole_draw(d, samples):
    f = _FUNCTIONS["gauss"]
    rep = check_semigroup(f, 0.3, 0.6, MC_SPECS[d], MC_POINTS[d], method="mc",
                          seed=88, samples=samples)
    want = whole_array_compose_mc(f, 0.3, 0.6, MC_SPECS[d], MC_POINTS[d], 88, samples)
    assert (rep["max_abs_deviation"], rep["max_deviation_in_se"]) == want


@pytest.mark.parametrize("rows", [1, semigroup.CHUNK_ROWS + 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_transform_matches_the_matrix_product(d, rows):
    m = semigroup._cholesky(MC_SPECS[d])
    z = np.random.default_rng(rows).standard_normal((rows, d))
    got = semigroup._transform(z, m)
    assert got.shape == (rows, d)
    # Relative to the result, cancellation leaves gaps of 1e-12; a rounding
    # error bound of a d-term dot product scales with its absolute terms.
    terms = np.abs(z) @ np.abs(m).T
    assert (np.abs(got - z @ m.T) <= d * np.finfo(float).eps * terms).all()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="no second core to wake")
def test_semigroup_check_wakes_no_worker_thread():
    # The d = 3 Monte Carlo and d = 2 quadrature compositions of verify-all.
    f3 = lambda x: np.exp(-0.25 * np.sum(x ** 2, axis=-1))
    pts3 = [[0.0, 0.0, 0.0], [0.5, -0.5, 0.2], [-0.7, 0.1, 0.9]]
    f2 = lambda x: np.exp(-0.5 * ((x[:, 0] - 0.2) ** 2 + 0.8 * x[:, 1] ** 2) / 1.5) \
        * (1.0 + 0.3 * np.sin(x[:, 0]))
    pts2 = [[0.0, 0.0], [0.5, -0.4], [-0.8, 0.3], [1.0, 1.0]]

    def checks():
        check_semigroup(f3, 0.3, 0.6, MC_SPECS[3], pts3, method="mc", seed=88,
                        samples=200_000)
        check_semigroup(f2, 0.4, 0.7, MC_SPECS[2], pts2)
    checks()
    # The sleeps let a worker woken before finish spinning, and count the
    # spin of one woken by the checks.
    time.sleep(0.3)
    proc, own = time.process_time(), time.thread_time()
    checks()
    time.sleep(0.3)
    own = time.thread_time() - own
    assert time.process_time() - proc - own < 0.1 * own


def test_hermite_rule_is_built_once_and_read_only():
    n = 13
    nodes, weights = semigroup._hermite_1d(n)
    again = semigroup._hermite_1d(n)
    assert again[0] is nodes and again[1] is weights
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # Golub-Welsch, symmetrized as the rule is.
    off = np.sqrt(np.arange(1.0, n))
    z, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 0.5 * (vecs[0] ** 2 + vecs[0, ::-1] ** 2)
    assert np.array_equal(nodes, 0.5 * (z - z[::-1]))
    assert np.array_equal(weights, w / w.sum())


def test_hermite_order_cap(monkeypatch):
    cap = semigroup.MAX_HERMITE_NODES
    spec1, spec2 = CovSpec(1, (1.0,)), CovSpec(2, (1.0, 1.0), (0.3,))
    # At the cap: P_1 of the standard normal density at 0 is N(0; 0, 2).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, = apply(_FUNCTIONS["gauss"], 1.0, spec1, [0.0], nodes=cap)
    assert abs(value - 1 / math.sqrt(4 * math.pi)) < 1e-12

    def unexpected(n):
        raise AssertionError("a rule was built")
    monkeypatch.setattr(semigroup, "_hermite_1d", unexpected)
    # One past it, refused before any rule is built, in one dimension and
    # in two, where (cap + 1)**2 is within MAX_TOTAL_NODES.
    assert (cap + 1) ** 2 <= MAX_TOTAL_NODES
    message = "^%d Gauss-Hermite nodes per dimension exceed the cap of %d$" % (cap + 1, cap)
    for spec, x in ((spec1, [0.0]), (spec2, [[0.0, 0.0]])):
        for call in (lambda: apply(_FUNCTIONS["gauss"], 1.0, spec, x, nodes=cap + 1),
                     lambda: check_semigroup(_FUNCTIONS["gauss"], 0.5, 0.5, spec, x,
                                             nodes=cap + 1),
                     lambda: check_contraction(_FUNCTIONS["gauss"], 0.5, spec,
                                               ([-3.0] * spec.dim, [3.0] * spec.dim),
                                               nodes=cap + 1)):
            with pytest.raises(ValueError, match=message):
                call()


def test_mc_f_never_sees_more_than_chunk_rows():
    seen = []

    def f(x):
        seen.append(len(x))
        return _FUNCTIONS["gauss"](x)

    spec, pts = MC_SPECS[3], MC_POINTS[3]
    apply(f, 0.5, spec, pts, method="mc", samples=200_000)
    check_semigroup(f, 0.3, 0.6, spec, pts, method="mc", samples=200_000)
    # 200 000 = 3 * 65 536 + 3 392: three full blocks and a partial one per
    # point, for the apply leg and the composition's two f legs.
    assert seen == ([semigroup.CHUNK_ROWS] * 3 + [3392]) * len(pts) * 3


def traced_peak(call):
    """Peak bytes that ``call`` allocates beyond what is live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_mc_peak_memory_is_bounded():
    # One whole (samples, d) draw per leg peaks at about 34 MB (composition)
    # and 16 MB (apply) here; blocked draws keep 8 bytes per sample per leg,
    # plus 8 d for the first leg, and about 5 MB of block temporaries.
    f, spec, pts = _FUNCTIONS["gauss"], MC_SPECS[3], MC_POINTS[3]
    compose = traced_peak(lambda: check_semigroup(f, 0.3, 0.6, spec, pts,
                                                  method="mc", samples=200_000))
    single = traced_peak(lambda: apply(f, 0.5, spec, pts, method="mc",
                                       samples=200_000))
    assert compose < 16e6
    assert single < 8e6


def refuse_rules(monkeypatch):
    """Make building any quadrature rule fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a rule")
    monkeypatch.setattr(quadrature, "gauss_legendre_1d", refuse)
    monkeypatch.setattr(semigroup, "_hermite_1d", refuse)


UNIT = CovSpec(1, (1.0,))


@pytest.mark.parametrize("call,message", [
    (lambda: CovSpec(1, (math.inf,)), "variances must be finite"),
    (lambda: CovSpec(2, (1.0, math.nan), (0.0,)), "variances must be finite"),
    (lambda: apply(_FUNCTIONS["gauss"], math.inf, UNIT, [1.0]), "time must be finite"),
    (lambda: apply(_FUNCTIONS["gauss"], math.nan, UNIT, [1.0]), "time must be finite"),
    (lambda: check_contraction(_FUNCTIONS["gauss"], -1.0, UNIT, ([-4.0], [4.0])),
     "time must be nonnegative"),
    (lambda: check_contraction(_FUNCTIONS["gauss"], math.inf, UNIT, ([-4.0], [4.0])),
     "time must be finite"),
    (lambda: check_semigroup(_FUNCTIONS["gauss"], 0.5, math.inf, UNIT, [1.0]),
     "both times must be finite"),
    (lambda: check_semigroup(_FUNCTIONS["gauss"], math.nan, 0.5, UNIT, [1.0]),
     "both times must be finite"),
    (lambda: check_semigroup(_FUNCTIONS["gauss"], math.inf, 0.5, UNIT, [1.0], method="mc"),
     "both times must be finite"),
], ids=["variance-inf", "variance-nan", "apply-inf", "apply-nan", "contract-negative",
        "contract-inf", "compose-t-inf", "compose-s-nan", "compose-mc-s-inf"])
def test_non_finite_parameters_refused_before_any_rule(monkeypatch, call, message):
    refuse_rules(monkeypatch)
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


GAUSS = _FUNCTIONS["gauss"]
WIDENED = ("the bounds and width of the window widened by 8 kernel standard "
           "deviations must be finite, got %s")


@pytest.mark.parametrize("call,message", [
    (lambda: apply(GAUSS, 1.0, UNIT, [0.0, math.nan]), "query points must be finite, got nan"),
    (lambda: apply(GAUSS, 0.0, UNIT, [math.inf]), "query points must be finite, got inf"),
    (lambda: apply(GAUSS, 1.0, UNIT, [math.nan], method="mc"),
     "query points must be finite, got nan"),
    (lambda: apply(GAUSS, 1.0, CovSpec(2, (1.0, 1.0), (0.3,)), [[0.0, 0.0], [1.0, -math.inf]]),
     "query points must be finite, got -inf"),
    (lambda: check_semigroup(GAUSS, 0.5, 0.5, UNIT, [math.nan]),
     "query points must be finite, got nan"),
    (lambda: check_semigroup(GAUSS, 0.5, 0.5, UNIT, [1.0, math.inf], method="mc"),
     "query points must be finite, got inf"),
    (lambda: check_contraction(GAUSS, 1.0, UNIT, ([-math.inf], [4.0])),
     "window must be finite, got -inf"),
    (lambda: check_contraction(GAUSS, 1.0, UNIT, ([-4.0], [math.nan])),
     "window must be finite, got nan"),
    (lambda: check_contraction(GAUSS, 1.0, UNIT, ([-1e308], [1e308])), WIDENED % "inf"),
    (lambda: check_contraction(GAUSS, 1e308, CovSpec(1, (10.0,)), ([-4.0], [4.0])),
     WIDENED % "-inf"),
], ids=["apply-nan", "apply-t0-inf", "apply-mc-nan", "apply-d2-minus-inf", "compose-nan",
        "compose-mc-inf", "contract-window-minus-inf", "contract-window-nan",
        "contract-width-overflows", "contract-half-overflows"])
def test_non_finite_points_and_windows_refused_before_any_rule(monkeypatch, call, message):
    refuse_rules(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("made a generator")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            call()


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_bad_tolerance_refused_before_any_rule(monkeypatch, method, tol):
    refuse_rules(monkeypatch)
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative, got "):
        check_semigroup(GAUSS, 0.5, 0.5, UNIT, [0.0], method=method, tol=tol)


def test_zero_tolerance_is_admitted():
    rep = check_semigroup(GAUSS, 0.5, 0.5, UNIT, [0.0], tol=0.0)
    assert rep["bound"] == 0.0 and rep["passed"] == (rep["value"] == 0.0)
