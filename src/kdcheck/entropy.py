"""Renyi divergences and entropies, differential entropy, sampling estimators.

Sign convention: ``renyi_divergence`` is the nonnegative divergence
``D_a(f || g) = (1/(a-1)) log_b sum f^a g^(1-a)``, continuous in the order
``a`` with ``D_1 = KL >= 0`` and ``D_a`` nondecreasing in ``a``.  Closed
forms are dispatched at ``a in {0, 1/2, 1, 2, inf}``; for ``a > 1`` they
are the negatives of the corresponding small-order forms, so e.g.
``D_2 = +log_b sum f^2/g``.  Logarithms are taken base ``|A|`` (alphabet
size) by default, so values are measured in alphabet digits.

Entropies use ``h_a(f) = (1/(1-a)) log_b sum f^a`` with base defaulting to
the number of symbols, so the uniform distribution has entropy one.
Min-entropy and Shannon entropy are ``renyi_entropy`` at orders
``math.inf`` and 1.  ``aep_estimate`` draws discrete symbols with
``Generator.choice`` and continuous ones by inverse-CDF tabulation.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .core import FiniteDistribution, check_mc_samples
from .quadrature import tensor_rule

# Orders within KL_WINDOW of 1 use the KL limit form; orders above
# INF_THRESHOLD use the max-ratio form.
KL_WINDOW = 1e-9
INF_THRESHOLD = 1e9
# A continuous density is integrated with DENSITY_NODES composite
# Gauss-Legendre nodes, and its window mass may deviate from 1 by at most
# MASS_TOL.
DENSITY_NODES = 201
MASS_TOL = 1e-6


def _order_value(order) -> float:
    """``alpha >= 0`` as a float; ``math.inf`` is the max-ratio order."""
    a = float(order)
    if not a >= 0:
        raise ValueError("divergence order must satisfy alpha >= 0, got %r" % (order,))
    return a


def _resolve_base(base, default: float) -> float:
    if base is None:
        return float(default)
    b = float(base)
    if not b > 1:
        raise ValueError("logarithm base must exceed 1")
    return b


def _readout(f: FiniteDistribution) -> Tuple[list, list]:
    """Float weights, and which are positive: an exact law's integers decide,
    so that a weight rounding to 0.0 stays positive."""
    w = f.as_floats()
    return w.tolist(), (f.numerators > 0 if f.exact else w > 0).tolist()


def _refuse_underflow(w: list, ons: tuple, law: str, route: str, use: str) -> None:
    """Refuse, before any sum, a weight of ``law`` that is positive but 0.0 as
    a float (below ``2**-1075``), where ``route`` would take its log or divide
    by it: ``w`` holds the law's float weights, and the route reads the
    symbols at which every positivity list in ``ons`` is true."""
    if 0.0 in w:
        for x, (v, *read) in enumerate(zip(w, *ons)):
            if v == 0.0 and all(read):
                raise ValueError(
                    "symbol %d of %s has a positive weight that rounds to 0.0 as a "
                    "float; the %s %s" % (x, law, route, use))


def _finite_sum(terms, p: list, route: str) -> float:
    """``math.fsum(terms)``, refused where a term or the sum passes the float
    range, naming the symbol of the largest ratio of f to f_plus (``p`` holds
    ``(w, w > 0, v, v > 0)`` per symbol)."""
    try:
        s = math.fsum(terms)
    except OverflowError:
        s = math.inf
    if math.isinf(s):
        _, x = max((math.log(w) - math.log(v), x) for x, (w, _, v, _) in enumerate(p) if w and v)
        raise ValueError("symbol %d of f_plus lies so far below f that the %s "
                         "overflows a float" % (x, route))
    return s


def _divergence_with_method(
    f: FiniteDistribution, f_plus: FiniteDistribution, alpha: float, base: float
) -> Tuple[float, str]:
    if f.alphabet != f_plus.alphabet:
        raise ValueError("divergence needs a common alphabet")
    w_f, on_f = _readout(f)
    w_g, on_g = _readout(f_plus)
    ons = (on_f, on_g)
    p = list(zip(w_f, on_f, w_g, on_g))  # (w, w > 0, v, v > 0) per symbol

    if alpha == 0.0:
        on = np.array(on_f, dtype=bool)  # an exact mass is an integer sum, rounded once
        mass, den = ((f_plus.numerators[on].sum(initial=0), f_plus.denominator)
                     if f_plus.exact else (math.fsum(f_plus.as_floats()[on]), 1.0))
        if mass == 0:
            return math.inf, "closed-form:support-mass"
        return -math.log(mass / den, base), "closed-form:support-mass"

    if alpha == 0.5:
        s = math.fsum(math.sqrt(w * v) for w, _, v, _ in p)
        if s == 0.0:
            return math.inf, "closed-form:bhattacharyya"
        return -2.0 * math.log(s, base), "closed-form:bhattacharyya"

    outside = any(pw and not pv for _, pw, _, pv in p)  # supp f not in supp f_plus

    if abs(alpha - 1.0) < KL_WINDOW:
        # KL limit.  Exact zero when the two laws are equal.
        if f == f_plus:
            return 0.0, "closed-form:kl"
        if outside:
            return math.inf, "closed-form:kl"
        _refuse_underflow(w_f, ons, "f", "KL divergence", "takes its log")
        _refuse_underflow(w_g, ons, "f_plus", "KL divergence", "divides by it")
        total = 0.0
        for w, pw, v, _ in p:
            if pw:
                total += w * math.log(w / v)
        return _finite_sum((total,), p, "KL divergence") / math.log(base), "closed-form:kl"

    if math.isinf(alpha) or alpha > INF_THRESHOLD:
        if outside:
            return math.inf, "closed-form:max-ratio"
        _refuse_underflow(w_g, ons, "f_plus", "max-ratio divergence", "divides by it")
        worst = 0.0
        for w, pw, v, _ in p:
            if pw:
                worst = max(worst, w / v)
        worst = _finite_sum((worst,), p, "max-ratio divergence")
        return math.log(worst, base), "closed-form:max-ratio"

    if alpha > 1.0 and outside:
        return math.inf, "closed-form:chi-square" if alpha == 2.0 else "generic"
    if alpha == 2.0:
        _refuse_underflow(w_g, ons, "f_plus", "order-2 divergence", "divides by it")
        s = _finite_sum((w ** 2 / v for w, pw, v, _ in p if pw), p, "order-2 divergence")
        return math.log(s, base), "closed-form:chi-square"

    for law, weights in (("f", w_f), ("f_plus", w_g)):
        _refuse_underflow(weights, ons, law, "order-%g divergence" % alpha, "takes its log")
    s = _finite_sum((
        math.exp(alpha * math.log(w) + (1.0 - alpha) * math.log(v))
        for w, pw, v, pv in p
        if pw and pv
    ), p, "order-%g divergence" % alpha)
    if s == 0.0:
        return math.inf, "generic"
    return math.log(s, base) / (alpha - 1.0), "generic"


def renyi_divergence(
    f: FiniteDistribution,
    f_plus: FiniteDistribution,
    order: float,
    base=None,
) -> float:
    """Order-``alpha`` divergence of ``f`` from ``f_plus``, base ``|A|`` digits.

    Parameters
    ----------
    f, f_plus : FiniteDistribution
        Distributions on a common alphabet; ``f_plus`` is the reference.
    order : float
        ``alpha >= 0``; ``math.inf`` gives the max-ratio order.  Orders
        within 1e-9 of 1 dispatch to the KL limit.
    base : int or float, optional
        Logarithm base; defaults to the alphabet size.

    Returns
    -------
    float
        Nonnegative; ``math.inf`` when the support condition fails
        (for ``alpha >= 1``, ``supp f`` must lie inside ``supp f_plus``).
    """
    return _divergence_with_method(
        f, f_plus, _order_value(order), _resolve_base(base, f.alphabet.size))[0]


def divergence_report(f, f_plus, order, base=None) -> dict:
    """Value plus the dispatch arm used, for report emission."""
    alpha, b = _order_value(order), _resolve_base(base, f.alphabet.size)
    value, method = _divergence_with_method(f, f_plus, alpha, b)
    return {"order": alpha, "value": value, "method": method, "log_base": b}


def _entropy_with_method(
    f: FiniteDistribution, alpha: float, base: float
) -> Tuple[float, str]:
    w, pos = _readout(f)
    if math.isinf(alpha) or alpha > INF_THRESHOLD:
        return -math.log(max(w), base), "closed-form:min-entropy"
    if abs(alpha - 1.0) < KL_WINDOW:
        _refuse_underflow(w, (pos,), "f", "Shannon entropy", "takes its log")
        total = math.fsum(-x * math.log(x) for x, on in zip(w, pos) if on)
        return total / math.log(base), "closed-form:shannon"
    if alpha == 0.0:
        return math.log(float(sum(pos)), base), "closed-form:max-entropy"
    s = math.fsum(x ** alpha for x, on in zip(w, pos) if on)
    method = "closed-form:power-sum" if alpha in (0.5, 2.0) else "generic"
    return math.log(s, base) / (1.0 - alpha), method


def renyi_entropy(
    f: FiniteDistribution, order: float, base=None
) -> float:
    """Order-``alpha`` entropy, base defaulting to the symbol count.

    With the default base the uniform distribution has entropy exactly 1.
    Pass ``base=f.alphabet.size`` to measure strings over a power alphabet
    in single-symbol digits instead.
    """
    return _entropy_with_method(
        f, _order_value(order), _resolve_base(base, f.alphabet.num_symbols))[0]


def entropy_report(f: FiniteDistribution, order, base=None) -> dict:
    """Entropy value plus the dispatch arm used, for report emission."""
    alpha, b = _order_value(order), _resolve_base(base, f.alphabet.num_symbols)
    value, method = _entropy_with_method(f, alpha, b)
    return {"order": alpha, "value": value, "method": method, "log_base": b}


# ---------------------------------------------------------------------------
# Continuous densities
# ---------------------------------------------------------------------------

class ContinuousDensity:
    """Probability density on an interval, integrated with
    ``DENSITY_NODES`` composite Gauss-Legendre nodes.

    Parameters
    ----------
    pdf : callable
        Vectorized density, mapping an (N,) array to (N,).
    lower, upper : float
        Integration window, whose mass must lie within ``MASS_TOL`` of 1.
    """

    __slots__ = ("pdf", "lower", "upper")

    def __init__(self, pdf: Callable, lower: float, upper: float):
        lower, upper = float(lower), float(upper)
        if upper <= lower:
            raise ValueError("window must have positive volume")
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError("window must be finite")
        self.pdf = pdf
        self.lower = lower
        self.upper = upper
        pts, wts = tensor_rule((lower,), (upper,), DENSITY_NODES)
        vals = np.asarray(pdf(pts[:, 0]), dtype=float)
        if vals.min() < -1e-12:
            raise ValueError("density is negative on the window")
        mass = float(np.dot(wts, np.clip(vals, 0.0, None)))
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(
                "window mass %.3g deviates from 1 beyond tol %.1g"
                % (mass, MASS_TOL)
            )

    @classmethod
    def gaussian(cls, mean=0.0, var=1.0) -> "ContinuousDensity":
        """Scalar normal density on the +/- 8 sigma window.

        A non-finite mean or variance is refused before the window is formed.
        """
        mean = float(mean)
        var = float(var)
        if not math.isfinite(mean):
            raise ValueError("mean must be finite, got %r" % mean)
        if var <= 0:
            raise ValueError("variance must be positive")
        if not math.isfinite(var):
            raise ValueError("variance must be finite, got %r" % var)
        sd = math.sqrt(var)
        norm = 1.0 / math.sqrt(2.0 * math.pi * var)

        def pdf(x):
            return norm * np.exp(-0.5 * (np.asarray(x) - mean) ** 2 / var)

        return cls(pdf, mean - 8 * sd, mean + 8 * sd)


def differential_entropy(density: ContinuousDensity) -> dict:
    """``-integral f ln f`` in nats over the density's window.

    Returns the ``value``, a node-halving ``error_estimate``, the ``rule``
    and its ``nodes``.
    """

    def entropy_at(nodes: int) -> float:
        pts, wts = tensor_rule((density.lower,), (density.upper,), nodes)
        vals = np.clip(np.asarray(density.pdf(pts[:, 0]), dtype=float), 0.0, None)
        mask = vals > 0
        return float(-np.dot(wts[mask], vals[mask] * np.log(vals[mask])))

    value = entropy_at(DENSITY_NODES)
    return {
        "value": value,
        "error_estimate": abs(value - entropy_at(DENSITY_NODES // 2)),
        "rule": "composite-gauss-legendre",
        "nodes": DENSITY_NODES,
    }


# ---------------------------------------------------------------------------
# Sampling estimators
# ---------------------------------------------------------------------------

# Inverse-CDF table resolution for continuous sampling.
_CDF_GRID = 4097


def sample_continuous(
    density: ContinuousDensity, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` scalars by tabulated inverse-CDF inversion."""
    xs = np.linspace(density.lower, density.upper, _CDF_GRID)
    fx = np.clip(np.asarray(density.pdf(xs), dtype=float), 0.0, None)
    cdf = np.concatenate([[0.0], np.cumsum((fx[1:] + fx[:-1]) * 0.5 * np.diff(xs))])
    cdf /= cdf[-1]
    # Strictly increasing knots only, so interpolation is well defined.
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    u = rng.random(n)
    return np.interp(u, cdf[keep], xs[keep])


def aep_estimate(f, n: int, seed: int = 0) -> float:
    """Empirical entropy-rate estimate ``-(1/n) sum ln f(X_i)`` in nats.

    ``f`` may be a :class:`FiniteDistribution` (drawn by
    ``Generator.choice``) or a :class:`ContinuousDensity` (inverse-CDF
    sampling).  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    check_mc_samples(n)
    rng = np.random.default_rng(seed)
    if isinstance(f, FiniteDistribution):
        w = f.as_floats()
        xs = rng.choice(len(w), size=n, p=w)
        return float(-np.mean(np.log(w[xs])))
    if isinstance(f, ContinuousDensity):
        xs = sample_continuous(f, n, rng)
        vals = np.asarray(f.pdf(xs), dtype=float)
        return float(-np.mean(np.log(vals)))
    raise ValueError("expected a FiniteDistribution or ContinuousDensity")
