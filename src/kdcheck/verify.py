"""Acceptance checks shared by ``kdcheck verify-all`` and the test suite.

Each check runs one claim end to end at its stated tolerance and returns a
dict with a boolean ``passed``, the measured quantities, and the tolerance
it enforced.  The registry order follows the claim list.  ``run_all``
enforces one total time budget (300 s by default): once the checks run so
far have spent more than it, the rest are skipped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .core import Alphabet, FiniteDistribution, StateDensity
from . import entropy as ent
from . import hashing
from . import markov
from . import quantum
from . import semigroup as sg
from . import treeproc
from .quadrature import tensor_rule


# ---------------------------------------------------------------------------
# Random object generators (deterministic per seed)
# ---------------------------------------------------------------------------

def random_diagonal_ensemble(rng: np.random.Generator, n_symbols: int,
                             dim: int) -> quantum.Ensemble:
    """Exact ensemble of diagonal states, drawn as integers with no Fraction per entry."""
    prior = FiniteDistribution.random_rational(Alphabet(n_symbols), rng, 16)
    raws = [rng.integers(1, 16, size=dim) for _ in range(n_symbols)]
    return quantum.Ensemble(prior, [StateDensity._from_integers(int(raw.sum()), raw.tolist())
                                    for raw in raws])


def rotate_ensemble(ens: quantum.Ensemble,
                    rng: np.random.Generator) -> quantum.Ensemble:
    """Conjugate every state by one random orthogonal matrix.

    The result is a dense commuting ensemble with the same spectrum data.
    """
    dim = ens.dim
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    states = []
    for s in ens.states:
        m = basis @ s.to_matrix() @ basis.T.conj()
        states.append(StateDensity.from_matrix(m))
    return quantum.Ensemble(ens.prior, states)


# ---------------------------------------------------------------------------
# Check 1: exact PGM success probability table
# ---------------------------------------------------------------------------

def check_pgm_table() -> dict:
    reports = [quantum.phi_report(n) for n in range(2, 7)]
    two = reports[0]
    return {
        "passed": all(r["matches_closed_form"] for r in reports)
        and two["phi"] == Fraction(5, 9),
        "tolerance": "exact rational equality",
        "n_range": [2, 6],
        "phi_n2": two["phi"],
        "rows": [{"n": r["n"], "phi": str(r["phi"])} for r in reports],
    }


# ---------------------------------------------------------------------------
# Check 2: PGM optimality sandwich on random commuting ensembles
# ---------------------------------------------------------------------------

def check_pgm_sandwich() -> dict:
    rng = np.random.default_rng(2024)
    dense_tol = 1e-9
    violations = 0
    cases = 0
    worst_gap = -math.inf  # largest of eopt^2 - egen and egen - eopt; < 0 passes
    for trial in range(500):
        n_sym = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        ens = random_diagonal_ensemble(rng, n_sym, dim)
        tol = dense_tol if trial % 2 else 0
        if trial % 2:
            ens = rotate_ensemble(ens, rng)
        eopt = quantum.e_opt(ens)
        egen = quantum.e_gen(ens)
        if not (eopt * eopt - tol <= egen <= eopt + tol):
            violations += 1
        worst_gap = max(worst_gap, float(max(eopt * eopt - egen, egen - eopt)))
        cases += 1
    return {
        "passed": violations == 0,
        "cases": cases,
        "violations": violations,
        "dense_tolerance": dense_tol,
        "exact_cases": "even trials, zero tolerance",
        "worst_signed_gap": worst_gap,
    }


# ---------------------------------------------------------------------------
# Checks 3 and 4: exhaustive binary hashed-key sweeps (shared work)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _classical_sweep() -> Tuple[dict, ...]:
    rng = np.random.default_rng(77)
    reports = []
    for m, k in ((2, 1), (3, 1), (3, 2)):
        family = hashing.build_family("linear", 2, m, k)
        for _ in range(100):
            f = FiniteDistribution.random_rational(Alphabet(2, m), rng)
            reports.append(hashing.lhl_report(f, family))
    return tuple(reports)


def check_lhl_distance() -> dict:
    reports = _classical_sweep()
    bad = [r for r in reports
           if not (r["satisfied"] and r["chain_cauchy_schwarz"]
                   and r["chain_tail"] and r["precondition_met"]
                   and r["exact_comparison"])]
    worst = max(float(r["distance"]) / r["bound"] for r in reports)
    return {
        "passed": not bad,
        "cases": len(reports),
        "violations": len(bad),
        "tolerance": "exact rational comparison (squared form)",
        "worst_distance_over_bound": worst,
    }


def check_collision_bound() -> dict:
    reports = _classical_sweep()
    bad = [r for r in reports if not r["collision_satisfied"]]
    worst = max(float(r["collision_probability"] / r["collision_bound"])
                for r in reports)
    return {
        "passed": not bad,
        "cases": len(reports),
        "violations": len(bad),
        "tolerance": "exact rational comparison",
        "worst_collision_over_bound": worst,
    }


# ---------------------------------------------------------------------------
# Check 5: hashed key with a side register
# ---------------------------------------------------------------------------

def check_tripartite() -> dict:
    rng = np.random.default_rng(501)
    family = hashing.build_family("linear", 2, 2, 1)
    violations = 0
    inexact = 0
    for _ in range(50):
        dim_q = int(rng.integers(2, 5))
        ens = random_diagonal_ensemble(rng, 4, dim_q)
        rep = quantum.tripartite_report(ens, family)
        if not (rep["satisfied"] and rep["precondition_met"]):
            violations += 1
        if not rep["exact_comparison"]:
            inexact += 1
    # Trivial side register must reproduce the classical distance exactly.
    trivial_gap = Fraction(0)
    for _ in range(10):
        prior = FiniteDistribution.random_rational(Alphabet(2, 2), rng)
        ens = quantum.Ensemble(prior, [StateDensity.from_diag((1,))] * 4)
        dist_q = quantum.tripartite_distance(quantum.hashed_joint_blocks(ens, family))
        trivial_gap = max(trivial_gap, abs(dist_q - hashing.lhl_distance(prior, family)))
    return {
        "passed": violations == 0 and inexact == 0 and trivial_gap == 0,
        "cases": 50,
        "violations": violations,
        "inexact_comparisons": inexact,
        "trivial_side_register_gap": float(trivial_gap),
        "trivial_tolerance": 0,
        "tolerance": "exact rational comparison (squared form)",
    }


# ---------------------------------------------------------------------------
# Check 6: first-return generating functions
# ---------------------------------------------------------------------------

def _random_positive_chain(rng: np.random.Generator, n: int) -> markov.TransitionMatrix:
    rows = []
    for _ in range(n):
        raw = [int(x) for x in rng.integers(1, 10, size=n)]
        tot = sum(raw)
        rows.append([Fraction(r, tot) for r in raw])
    return markov.TransitionMatrix.build(rows)


def _mat_mul(a, b):
    """Exact product of two square integer matrices, as nested tuples."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def _scaled(x: Fraction, scale: int) -> Optional[int]:
    """``x * scale`` when it is an integer, else None."""
    q, r = divmod(scale, x.denominator)
    return None if r else x.numerator * q


def check_markov_gf() -> dict:
    rng = np.random.default_rng(606)
    chains = [_random_positive_chain(rng, int(rng.integers(2, 6)))
              for _ in range(50)]
    swap = markov.TransitionMatrix.build([[0, 1], [1, 0]])
    lazy = markov.TransitionMatrix.build(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    chains += [swap, lazy]
    n_terms = 12
    min_radius = math.inf
    failures = []
    for idx, chain in enumerate(chains):
        size = chain.n
        # One running product N^n = N^(n-1) N of the integer matrix N = D P,
        # pinned to binary powering at the last term; neither route touches
        # the resolvent elimination.  P^n is N^n / D^n.
        d = math.lcm(*(p.denominator for row in chain.rows for p in row))
        scale = [d**n for n in range(n_terms + 1)]
        base = tuple(tuple(p.numerator * (d // p.denominator) for p in row)
                     for row in chain.rows)
        powers = [tuple(tuple(int(i == j) for j in range(size)) for i in range(size))]
        for _ in range(n_terms):
            powers.append(_mat_mul(powers[-1], base))
        pinned = markov.n_step(chain, n_terms)
        if any(x.numerator * scale[-1] != y * x.denominator
               for xs, ys in zip(pinned, powers[-1]) for x, y in zip(xs, ys)):
            failures.append(("powers", idx))
        diagonal = []
        for i in range(size):
            for j in range(size):
                series = markov.resolvent(chain, i, j).series(n_terms)
                if i == j:
                    diagonal.append(series)
                for n in range(n_terms + 1):
                    if series[n].numerator * scale[n] != powers[n][i][j] * series[n].denominator:
                        failures.append(("series", idx, i, j, n))
        for i, p_series in enumerate(diagonal):
            theta = markov.theta_gf(chain, i)
            t_series = theta.series(n_terms)
            recursion = markov.first_return(chain, i, n_terms)
            if t_series[0] != 0 or tuple(t_series[1:]) != recursion:
                failures.append(("recursion", idx, i))
            # The renewal convolution on the series scaled by D^n, in ints.
            p_int = [_scaled(x, c) for x, c in zip(p_series, scale)]
            t_int = [_scaled(x, c) for x, c in zip(t_series, scale)]
            if None in p_int or None in t_int:
                failures.append(("scale", idx, i))
            else:
                for n in range(1, n_terms + 1):
                    if sum(t_int[m] * p_int[n - m] for m in range(1, n + 1)) != p_int[n]:
                        failures.append(("convolution", idx, i, n))
            if theta.eval(Fraction(1)) != 1:
                failures.append(("unit-sum", idx, i))
            rad = markov.radius_of_convergence(theta)
            min_radius = min(min_radius, rad)
            if not rad > 1 + 1e-6:
                failures.append(("radius", idx, i, rad))
    # Pinned displays for the two reference chains.
    display_ok = (
        markov.theta_gf(swap, 0).display() == "r^2"
        and markov.resolvent(lazy, 0, 0).display() == "(1-r/2)/(1-r)"
        and markov.theta_gf(lazy, 0).display() == "(r/2)/(1-r/2)"
        and markov.radius_of_convergence(markov.theta_gf(swap, 0)) == math.inf
        and abs(markov.radius_of_convergence(markov.theta_gf(lazy, 0)) - 2.0) < 1e-9
    )
    if not display_ok:
        failures.append(("reference-chains",))
    return {
        "passed": not failures,
        "chains": len(chains),
        "series_terms": n_terms,
        "failures": failures[:10],
        "min_pole_radius": min_radius,
        "tolerance": "exact coefficients; radius > 1 + 1e-6",
    }


# ---------------------------------------------------------------------------
# Check 7: covariance closed forms
# ---------------------------------------------------------------------------

def _random_cov_spec(rng: np.random.Generator, d: int) -> sg.CovSpec:
    a = rng.standard_normal((d, d))
    s0 = a @ a.T + 0.5 * np.eye(d)
    sd = np.sqrt(np.diag(s0))
    corrs = []
    for i in range(d):
        for j in range(i + 1, d):
            corrs.append(float(s0[i, j] / (sd[i] * sd[j])))
    return sg.CovSpec(d, tuple(float(v) for v in np.diag(s0)), tuple(corrs))


def check_covariance_forms() -> dict:
    rng = np.random.default_rng(707)
    worst_det = 0.0
    worst_inv = 0.0
    failures = 0
    for trial in range(100):
        d = 2 + trial % 3
        spec = _random_cov_spec(rng, d)
        try:
            _, det_rep = sg.build_sigma(spec)
            worst_det = max(worst_det, det_rep["agreement"]
                            / max(1.0, abs(det_rep["det_lu"])))
            inv, inv_rep = sg.inverse_sigma(spec)
            if "agreement" in inv_rep:
                worst_inv = max(worst_inv, inv_rep["agreement"])
            residual = float(np.abs(inv @ spec.sigma() - np.eye(d)).max())
            if residual > 1e-8:
                failures += 1
        except ArithmeticError:
            failures += 1
    # Kernel normalization for the printed two-dimensional cases.
    worst_mass = 0.0
    pts, wts = tensor_rule((-8.0, -8.0), (8.0, 8.0), 101)
    for rho in (0.0, 0.3, -0.3, 0.7, -0.7):
        spec = sg.CovSpec(2, (1.0, 1.0), (rho,))
        pdf = sg.kernel_pdf(spec, 1.0)
        mass = math.fsum(wts * pdf(pts))  # independent of the BLAS thread count
        worst_mass = max(worst_mass, abs(mass - 1.0))
    return {
        "passed": failures == 0 and worst_det <= 1e-10 and worst_inv <= 1e-10
        and worst_mass <= 1e-6,
        "cases": 100,
        "failures": failures,
        "worst_det_gap_rel": worst_det,
        "worst_inverse_gap": worst_inv,
        "worst_kernel_mass_gap": worst_mass,
        "tolerances": {"det": 1e-10, "inverse": 1e-10, "kernel_mass": 1e-6},
    }


# ---------------------------------------------------------------------------
# Check 8: semigroup composition and contraction
# ---------------------------------------------------------------------------

def _rule_fields(rep: dict) -> dict:
    return {k: rep[k] for k in ("max_abs_deviation", "rule", "nodes_per_dim",
                                "error_estimate")}


def check_semigroup_property() -> dict:
    dev1 = dev2 = 0.0
    composition = {}
    passed = []
    # One dimension, two test functions.
    spec1 = sg.CovSpec(1, (0.8,))
    f_gauss = lambda x: np.exp(-0.5 * (np.asarray(x) - 0.2) ** 2 / 0.5) \
        / math.sqrt(2 * math.pi * 0.5)
    f_wave = lambda x: np.exp(-0.25 * np.asarray(x) ** 2) * np.cos(2.0 * np.asarray(x))
    pts1 = [-1.2, -0.3, 0.0, 0.7, 1.5]
    for name, f in (("d1-gauss", f_gauss), ("d1-wave", f_wave)):
        rep = sg.check_semigroup(f, 0.3, 0.5, spec1, pts1, method="quadrature")
        dev1 = max(dev1, rep["max_abs_deviation"])
        passed.append(rep["passed"])
        composition[name] = _rule_fields(rep)
    # Two dimensions with correlation.
    spec2 = sg.CovSpec(2, (1.0, 0.7), (0.4,))
    f2 = lambda x: np.exp(-0.5 * ((x[:, 0] - 0.2) ** 2 + 0.8 * x[:, 1] ** 2) / 1.5) \
        * (1.0 + 0.3 * np.sin(x[:, 0]))
    pts2 = [[0.0, 0.0], [0.5, -0.4], [-0.8, 0.3], [1.0, 1.0]]
    rep2 = sg.check_semigroup(f2, 0.4, 0.7, spec2, pts2, method="quadrature")
    dev2 = rep2["max_abs_deviation"]
    passed.append(rep2["passed"])
    composition["d2"] = _rule_fields(rep2)
    # Three dimensions by Monte Carlo, deviation in combined standard errors.
    spec3 = sg.CovSpec(3, (1.0, 0.8, 1.2), (0.2, -0.1, 0.3))
    f3 = lambda x: np.exp(-0.25 * np.sum(np.asarray(x) ** 2, axis=-1))
    pts3 = [[0.0, 0.0, 0.0], [0.5, -0.5, 0.2], [-0.7, 0.1, 0.9]]
    rep3 = sg.check_semigroup(f3, 0.3, 0.6, spec3, pts3, method="mc",
                              seed=88, samples=200_000)
    # Contraction battery.
    con1 = sg.check_contraction(f_wave, 0.7, spec1, ((-6.0,), (6.0,)))
    con2 = sg.check_contraction(f2, 0.5, spec2, ((-6.0, -6.0), (6.0, 6.0)))
    contraction_ok = (con1["sup_contracts"] and con1["l1_contracts"]
                      and con2["sup_contracts"] and con2["l1_contracts"])
    return {
        "passed": all(passed) and rep3["passed"] and contraction_ok,
        "max_deviation_d1": dev1,
        "max_deviation_d2": dev2,
        "mc_deviation_in_se_d3": rep3["max_deviation_in_se"],
        "composition": composition,
        "contraction": {"d1": con1, "d2": con2},
        "tolerances": {"quadrature": 1e-6, "mc": "%g standard errors" % sg.MC_SE_BOUND},
    }


# ---------------------------------------------------------------------------
# Check 9: entropy order family and estimators
# ---------------------------------------------------------------------------

def check_entropy_suite() -> dict:
    rng = np.random.default_rng(909)
    orders = [0.0, 0.5, 1.0, 2.0, math.inf]
    mono_tol = 1e-10
    mono_bad = 0
    h2_bad = 0
    kl_bad = 0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        alphabet = Alphabet(n)
        f = FiniteDistribution.random_rational(alphabet, rng)
        g = FiniteDistribution.random_rational(alphabet, rng)
        hs = [ent.renyi_entropy(f, a) for a in orders]
        if any(hs[i] < hs[i + 1] - mono_tol for i in range(len(hs) - 1)):
            mono_bad += 1
        ds = [ent.renyi_divergence(f, g, a) for a in orders]
        if any(ds[i] > ds[i + 1] + mono_tol for i in range(len(ds) - 1)):
            mono_bad += 1
        if ent.renyi_entropy(f, 2.0) < ent.renyi_entropy(f, math.inf, base=n) - mono_tol:
            h2_bad += 1
        kl = ent.renyi_divergence(f, g, 1.0)
        if f == g:
            if kl != 0.0:
                kl_bad += 1
        elif not kl > 0.0:
            kl_bad += 1
        if ent.renyi_divergence(f, f, 1.0) != 0.0:
            kl_bad += 1
    gauss = ent.ContinuousDensity.gaussian(0.0, 1.0)
    h_gauss = ent.differential_entropy(gauss)["value"]
    target = 0.5 * math.log(2.0 * math.pi * math.e)
    shifted = ent.ContinuousDensity.gaussian(5.0, 1.0)
    shift_gap = abs(ent.differential_entropy(shifted)["value"] - h_gauss)
    aep_gauss_gap = abs(ent.aep_estimate(gauss, 10**4, seed=7) - target)
    aep_disc_gap = 0.0
    for s in range(3):
        f8 = FiniteDistribution.random_rational(Alphabet(8), rng)
        h_nats = ent.renyi_entropy(f8, 1.0, base=math.e)
        aep_disc_gap = max(aep_disc_gap,
                           abs(ent.aep_estimate(f8, 10**4, seed=100 + s) - h_nats))
    return {
        "passed": mono_bad == 0 and h2_bad == 0 and kl_bad == 0
        and abs(h_gauss - target) <= 1e-4 and shift_gap <= 1e-6
        and aep_gauss_gap <= 0.05 and aep_disc_gap <= 0.02,
        "monotonicity_violations": mono_bad,
        "h2_vs_hmin_violations": h2_bad,
        "kl_violations": kl_bad,
        "gaussian_entropy": h_gauss,
        "gaussian_entropy_target": target,
        "translation_gap": shift_gap,
        "aep_gaussian_gap": aep_gauss_gap,
        "aep_discrete_gap": aep_disc_gap,
        "tolerances": {"monotonicity": mono_tol, "gaussian": 1e-4,
                       "translation": 1e-6, "aep_gaussian": 0.05,
                       "aep_discrete": 0.02},
    }


# ---------------------------------------------------------------------------
# Check 10: bridge-refined path ensembles
# ---------------------------------------------------------------------------

def check_tree_process() -> dict:
    reps = 10**4
    ens = treeproc.simulate_ensemble(3, 4, reps, seed=0)
    w1 = ens.values[:, -1, :]
    variances = w1.var(axis=0, ddof=1)
    var_ok = bool(np.all((variances >= 0.95) & (variances <= 1.05)))
    stats = treeproc.increment_stats(ens)
    corr_ok = stats["corr_violations"] == 0
    deltas = treeproc.refinement_delta(3, [4, 6, 8], seed=1, reps=100)
    medians = np.median(deltas, axis=0)
    dec_ok = bool(medians[0] > medians[1] > medians[2])
    return {
        "passed": var_ok and corr_ok and dec_ok,
        "reps": reps,
        "variance_w1": [float(v) for v in variances],
        "variance_window": [0.95, 1.05],
        "increment_stats": stats,
        "refinement_medians": [float(m) for m in medians],
        "tolerances": {"variance": "[0.95, 1.05]",
                       "correlation": "4/sqrt(reps)",
                       "refinement": "strictly decreasing medians"},
    }


# ---------------------------------------------------------------------------
# Registry and runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    fn: Callable[[], dict]


CHECKS: Tuple[Check, ...] = (
    Check("pgm-success-table",
          "exact measurement success for basis-plus-mixed ensembles",
          check_pgm_table),
    Check("pgm-optimality-sandwich",
          "generic measurement squeezed between opt squared and opt",
          check_pgm_sandwich),
    Check("lhl-classical",
          "hashed-key uniformity bound, exhaustive binary sweeps",
          check_lhl_distance),
    Check("lhl-collision",
          "hashed-key collision probability bound",
          check_collision_bound),
    Check("lhl-side-register",
          "hashed-key uniformity with a commuting side register",
          check_tripartite),
    Check("return-time-gf",
          "first-return generating functions: series, convolution, poles",
          check_markov_gf),
    Check("covariance-closed-forms",
          "covariance determinant and inverse closed forms vs factorization",
          check_covariance_forms),
    Check("gaussian-semigroup",
          "Gaussian averaging composition and contraction",
          check_semigroup_property),
    Check("entropy-orders",
          "entropy order monotonicity, divergence positivity, estimators",
          check_entropy_suite),
    Check("bridge-refinement",
          "bridge-refined paths: variance, decorrelation, refinement decay",
          check_tree_process),
)


def run_check(check: Check) -> dict:
    start = time.perf_counter()
    try:
        details = check.fn()
    except Exception as exc:  # a crashed check is a failed check
        details = {"passed": False, "error": "%s: %s" % (type(exc).__name__, exc)}
    elapsed = time.perf_counter() - start
    out = {
        "schema": 1,
        "name": check.name,
        "paper_anchor": check.anchor,
        "passed": bool(details.get("passed", False)),
        "elapsed_seconds": elapsed,
    }
    out["details"] = {k: v for k, v in details.items() if k != "passed"}
    return out


def run_all(filter_substr: Optional[str] = None,
            budget: float = 300.0) -> dict:
    if not budget >= 0:  # NaN too
        raise ValueError("budget must be a nonnegative number of seconds, got %r" % budget)
    selected = [c for c in CHECKS
                if filter_substr is None or filter_substr in c.name]
    if not selected:
        raise ValueError("filter %r selects no check" % filter_substr)
    results = []
    total = 0.0
    for check in selected:
        if total > budget:
            results.append({
                "schema": 1,
                "name": check.name,
                "paper_anchor": check.anchor,
                "passed": False,
                "skipped": True,
                "reason": "time budget exhausted",
            })
            continue
        res = run_check(check)
        total += res["elapsed_seconds"]
        results.append(res)
    return {
        "schema": 1,
        "results": results,
        "total_seconds": total,
        "budget_seconds": budget,
        "budget_exceeded": total > budget,  # total only grows
        "all_passed": all(r.get("passed") for r in results),
    }
