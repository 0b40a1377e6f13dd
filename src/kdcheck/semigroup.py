"""Gaussian averaging semigroup ``P_t f(x) = E[f(x + sqrt(t) A z)]``.

``A A^T = Sigma`` is assembled from per-coordinate variances and pairwise
correlations (dimension at most 4).  Determinants are computed twice, by
LAPACK LU and by the hand-expanded closed forms, and must agree to 1e-10;
likewise the inverse (Cholesky route vs cofactor closed forms for d <= 3).

A test function ``f`` maps an ``(N, d)`` array of points to ``N`` values,
in every dimension, one included.

``apply`` evaluates ``P_t f`` either by seeded Monte Carlo with per-point
derived seeds or by quadrature in whitened coordinates,
``P_t f(x) = sum_k w_k f(x + sqrt(t) L z_k)``, where ``L`` is the Cholesky
factor of Sigma and ``(z_k, w_k)`` is the d-fold tensor of the
probabilists' Gauss-Hermite rule (Golub-Welsch, weights summing to 1).
Every query point runs through one broadcast, in chunks of at most
``CHUNK_ROWS`` (point, node) rows.  A chunk is laid out coordinate-major,
one contiguous (point, node) plane per coordinate, and ``f`` receives the
``(N, d)`` view of those planes, whose columns are contiguous.  The error
estimate is
``max |Q_n - Q_{n/2}|`` over the points; by default the rule starts at
``HERMITE_NODES`` per dimension and doubles while the estimate exceeds
``ESTIMATE_TOL * max(1, max |Q_n|)``, up to ``MAX_RULE_NODES`` nodes per
point, and warns (``QuadratureWarning``) if it is still too large there.
The rungs are 10 (compared against only), 20, 40, ... nodes per
dimension, so the estimate, not the starting rung, decides the count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import _refuse_non_finite, check_mc_samples
from .quadrature import MAX_TOTAL_NODES, _tensor_grid, tensor_rule

DET_CROSS_TOL = 1e-10
INV_CROSS_TOL = 1e-10
DEFAULT_MC_SAMPLES = 10**6
MC_SE_BOUND = 3.0  # Monte Carlo compositions pass below this many standard errors

HERMITE_NODES = 20
MAX_HERMITE_NODES = 1024  # per dimension; Golub-Welsch solves a dense n x n eigenproblem
ESTIMATE_TOL = 1e-6
CHUNK_ROWS = 2**16
# Nodes per query point of the 8-sigma Gauss-Legendre box that the Hermite
# rule replaced; doubling stops before a rule would use more than these
# (in four dimensions, more than MAX_TOTAL_NODES).
MAX_RULE_NODES = {1: 216, 2: 120**2, 3: 48**3}

# The L1 integral of ``check_contraction`` runs over the window widened by
# WINDOW_SIGMAS kernel standard deviations, on a Gauss-Legendre grid with
# these nodes per dimension.
WINDOW_SIGMAS = 8.0
WINDOW_NODES = {1: 201, 2: 101, 3: 41}


class QuadratureWarning(UserWarning):
    """The halving error estimate stayed above ``ESTIMATE_TOL``."""


@dataclass(frozen=True)
class CovSpec:
    """Covariance specification: variances plus upper-triangle correlations.

    ``correlations`` lists ``rho_ij`` for ``i < j`` in row-major order:
    (1,2), (1,3), ..., (1,d), (2,3), ...  The assembled matrix must be
    positive definite.
    """

    dim: int
    variances: Tuple[float, ...]
    correlations: Tuple[float, ...] = ()

    def __post_init__(self):
        if not 1 <= self.dim <= 4:
            raise ValueError("dimension must lie in 1..4")
        object.__setattr__(self, "variances",
                           tuple(float(v) for v in self.variances))
        object.__setattr__(self, "correlations",
                           tuple(float(r) for r in self.correlations))
        if len(self.variances) != self.dim:
            raise ValueError("need one variance per coordinate")
        if any(v <= 0 for v in self.variances):
            raise ValueError("variances must be positive")
        if not all(map(math.isfinite, self.variances)):
            raise ValueError("variances must be finite")
        n_corr = self.dim * (self.dim - 1) // 2
        if len(self.correlations) != n_corr:
            raise ValueError("need %d correlations for dimension %d"
                             % (n_corr, self.dim))
        if any(not -1 < r < 1 for r in self.correlations):
            raise ValueError("correlations must lie in (-1, 1)")
        try:
            np.linalg.cholesky(self.sigma())
        except np.linalg.LinAlgError:
            raise ValueError("assembled covariance is not positive definite")

    def corr(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        if i > j:
            i, j = j, i
        idx = sum(self.dim - 1 - a for a in range(i)) + (j - i - 1)
        return self.correlations[idx]

    def sigma(self) -> np.ndarray:
        sd = np.sqrt(np.array(self.variances))
        out = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                out[i, j] = sd[i] * sd[j] * self.corr(i, j)
        return out


def _det_correlation_closed(spec: CovSpec) -> float:
    d = spec.dim
    if d == 1:
        return 1.0
    if d == 2:
        r = spec.corr(0, 1)
        return 1.0 - r * r
    if d == 3:
        a, b, c = spec.corr(0, 1), spec.corr(0, 2), spec.corr(1, 2)
        return 1.0 - a * a - b * b - c * c + 2.0 * a * b * c
    r12, r13, r14 = spec.corr(0, 1), spec.corr(0, 2), spec.corr(0, 3)
    r23, r24, r34 = spec.corr(1, 2), spec.corr(1, 3), spec.corr(2, 3)
    return (
        1.0
        - r12**2 - r13**2 - r14**2 - r23**2 - r24**2 - r34**2
        + r12**2 * r34**2 + r13**2 * r24**2 + r14**2 * r23**2
        + 2.0 * (r12 * r13 * r23 + r12 * r14 * r24
                 + r13 * r14 * r34 + r23 * r24 * r34)
        - 2.0 * (r12 * r13 * r24 * r34 + r12 * r14 * r23 * r34
                 + r13 * r14 * r23 * r24)
    )


def determinant_closed(spec: CovSpec) -> float:
    """Closed-form ``det Sigma``: product of variances times the correlation det."""
    out = _det_correlation_closed(spec)
    for v in spec.variances:
        out *= v
    return out


def determinant_lu(spec: CovSpec) -> float:
    """LAPACK LU determinant of the assembled covariance."""
    return float(np.linalg.det(spec.sigma()))


def build_sigma(spec: CovSpec) -> Tuple[np.ndarray, dict]:
    """Assemble Sigma and cross-check the two determinant routes.

    Raises if LU and the closed form disagree beyond 1e-10 relative.
    """
    sigma = spec.sigma()
    det_lu = determinant_lu(spec)
    det_cf = determinant_closed(spec)
    scale = max(1.0, abs(det_lu))
    if abs(det_lu - det_cf) > DET_CROSS_TOL * scale:
        raise ArithmeticError(
            "determinant routes disagree: LU %.15g vs closed form %.15g"
            % (det_lu, det_cf)
        )
    report = {
        "det_lu": det_lu,
        "det_closed_form": det_cf,
        "agreement": abs(det_lu - det_cf),
    }
    return sigma, report


def _inverse_closed(spec: CovSpec) -> Optional[np.ndarray]:
    sd = [math.sqrt(v) for v in spec.variances]
    if spec.dim == 2:
        s1, s2 = sd
        r = spec.corr(0, 1)
        det = (s1 * s2) ** 2 * (1.0 - r * r)
        return np.array([
            [s2 * s2, -s1 * s2 * r],
            [-s1 * s2 * r, s1 * s1],
        ]) / det
    if spec.dim == 3:
        s1, s2, s3 = sd
        a, b, c = spec.corr(0, 1), spec.corr(0, 2), spec.corr(1, 2)
        det = (s1 * s2 * s3) ** 2 * _det_correlation_closed(spec)
        cof = np.array([
            [s2**2 * s3**2 * (1 - c * c),
             s1 * s2 * s3**2 * (b * c - a),
             s1 * s2**2 * s3 * (a * c - b)],
            [s1 * s2 * s3**2 * (b * c - a),
             s1**2 * s3**2 * (1 - b * b),
             s1**2 * s2 * s3 * (a * b - c)],
            [s1 * s2**2 * s3 * (a * c - b),
             s1**2 * s2 * s3 * (a * b - c),
             s1**2 * s2**2 * (1 - a * a)],
        ])
        return cof / det
    return None


def inverse_sigma(spec: CovSpec) -> Tuple[np.ndarray, dict]:
    """Inverse covariance via Cholesky, cross-checked against cofactor forms.

    The printed cofactor inverses exist for d in {2, 3}; other dimensions
    report the Cholesky route alone.
    """
    sigma = spec.sigma()
    chol = np.linalg.cholesky(sigma)
    linv = np.linalg.solve(chol, np.eye(spec.dim))
    inv = linv.T @ linv
    report = {"route": "cholesky"}
    closed = _inverse_closed(spec)
    if closed is not None:
        scale = max(1.0, float(np.abs(inv).max()))
        gap = float(np.abs(inv - closed).max())
        if gap > INV_CROSS_TOL * scale:
            raise ArithmeticError(
                "inverse routes disagree: max gap %.3g beyond 1e-10" % gap
            )
        report = {"route": "cholesky+closed-form", "agreement": gap}
    return inv, report


def kernel_pdf(spec: CovSpec, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Density of ``N(0, t Sigma)`` as a vectorized callable on (N, dim) arrays."""
    if t <= 0:
        raise ValueError("kernel time must be positive")
    d = spec.dim
    _, det_report = build_sigma(spec)
    det = det_report["det_closed_form"] * t**d
    inv, _ = inverse_sigma(spec)
    inv = inv / t
    norm = 1.0 / math.sqrt((2.0 * math.pi) ** d * det)

    def pdf(x: np.ndarray) -> np.ndarray:
        z = np.asarray(x, dtype=float)
        return norm * np.exp(-0.5 * np.einsum("ni,ij,nj->n", z, inv, z))

    return pdf


def _as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if dim == 1:
        pts = pts.reshape(-1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != dim:
        raise ValueError("query points must have %d coordinates" % dim)
    _refuse_non_finite(pts, "query point")
    return pts


def _eval_f(f: Callable, pts: np.ndarray) -> np.ndarray:
    return np.asarray(f(pts), dtype=float).reshape(pts.shape[0])


def _check_time(t: float) -> None:
    """Reject a negative or non-finite time before any rule is built."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not math.isfinite(t):
        raise ValueError("time must be finite")


def _check_nodes(nodes: Optional[int], dim: int) -> None:
    """Reject a node count before any rule is built."""
    if nodes is None:
        return
    if nodes < 2:
        raise ValueError("nodes per dimension must be at least 2 "
                         "(the halving estimate uses nodes // 2), got %d" % nodes)
    if nodes > MAX_HERMITE_NODES:
        raise ValueError("%d Gauss-Hermite nodes per dimension exceed the cap of %d"
                         % (nodes, MAX_HERMITE_NODES))
    if nodes**dim > MAX_TOTAL_NODES:
        raise ValueError("%d^%d quadrature nodes per point exceed the cap of %d"
                         % (nodes, dim, MAX_TOTAL_NODES))


def _cholesky(spec: CovSpec) -> np.ndarray:
    """Cholesky factor of Sigma, after both cross-checked factorizations."""
    sigma, _ = build_sigma(spec)
    inverse_sigma(spec)
    return np.linalg.cholesky(sigma)


_hermite_cache: dict = {}


def _hermite_1d(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite rule by Golub-Welsch, weights summing to 1.

    The nodes are the eigenvalues of the Jacobi matrix with off-diagonal
    ``sqrt(k)``; each weight is the squared first component of its
    eigenvector, which stays finite where ``hermegauss`` overflows.  The
    rule is built once per order and returned as read-only arrays: an
    ``eigh`` of order 40 wakes an OpenBLAS worker thread, which spins on
    after the call returns.
    """
    if n not in _hermite_cache:
        off = np.sqrt(np.arange(1.0, n))
        nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        weights = vecs[0] ** 2
        # The rule is symmetric; symmetrize away eigensolver rounding.
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        weights = weights / weights.sum()
        nodes.flags.writeable = weights.flags.writeable = False
        _hermite_cache[n] = nodes, weights
    return _hermite_cache[n]


def _whitened_rule(chol: np.ndarray, t: float,
                   n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets ``sqrt(t) L z_k`` and weights of the d-fold Hermite tensor."""
    d = chol.shape[0]
    z1, w1 = _hermite_1d(n)
    z, weights = _tensor_grid([z1] * d, [w1] * d)
    return math.sqrt(t) * (z @ chol.T), weights


def _average(f: Callable, pts: np.ndarray, offsets: np.ndarray,
             weights: np.ndarray) -> np.ndarray:
    """``sum_k w_k f(x + offsets_k)`` for every row ``x`` of ``pts``.

    Points and nodes are broadcast together in blocks of at most
    ``CHUNK_ROWS`` (point, node) rows, so no temporary grows with the
    point count.  A block is built coordinate-major, one contiguous
    (point, node) plane per coordinate, and ``f`` gets the ``(N, d)``
    view of those planes: the same values, with contiguous columns.
    """
    n_pts, d = pts.shape
    node_step = min(len(weights), CHUNK_ROWS)
    point_step = max(1, CHUNK_ROWS // node_step)
    pts_t = np.ascontiguousarray(pts.T)
    off_t = np.ascontiguousarray(offsets.T)
    out = np.zeros(n_pts)
    for i in range(0, n_pts, point_step):
        block = pts_t[:, i:i + point_step]
        for j in range(0, len(weights), node_step):
            planes = block[:, :, None] + off_t[:, None, j:j + node_step]
            vals = _eval_f(f, planes.reshape(d, -1).T).reshape(block.shape[1], -1)
            out[i:i + point_step] += vals @ weights[j:j + node_step]
    return out


def _hermite_average(f: Callable, t: float, chol: np.ndarray, pts: np.ndarray,
                     nodes: Optional[int]) -> Tuple[np.ndarray, int, float]:
    """``(P_t f at pts, nodes per dimension, halving estimate)``.

    With ``nodes`` given the rule is fixed; otherwise it starts at
    ``HERMITE_NODES`` (compared with ``HERMITE_NODES // 2``) and doubles
    while the estimate is too large, reusing the previous result as the
    coarser rule.  Each rung costs ``2**-d`` of the next, so starting low
    adds little to an integrand that needs more nodes.
    """
    d = chol.shape[0]
    n = HERMITE_NODES if nodes is None else nodes
    cap = MAX_RULE_NODES.get(d, MAX_TOTAL_NODES)
    coarse = _average(f, pts, *_whitened_rule(chol, t, n // 2))
    while True:
        fine = _average(f, pts, *_whitened_rule(chol, t, n))
        estimate = float(np.abs(fine - coarse).max(initial=0.0))
        tol = ESTIMATE_TOL * max(1.0, float(np.abs(fine).max(initial=0.0)))
        if estimate <= tol or nodes is not None or (2 * n)**d > cap:
            break
        coarse, n = fine, 2 * n
    if not estimate <= tol:
        warnings.warn(
            "Gauss-Hermite halving estimate %.3g exceeds %.3g at %d nodes per "
            "dimension; pass a larger --nodes (at most %d, with nodes^%d at most %d)"
            % (estimate, tol, n, MAX_HERMITE_NODES, d, MAX_TOTAL_NODES),
            QuadratureWarning, stacklevel=3)
    return fine, n, estimate


def _transform(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``z @ m.T``, each output coordinate a multiply-add over ``z``'s columns.

    No BLAS call: at ``CHUNK_ROWS`` rows the product is past OpenBLAS's
    threading cut, and its worker thread adds CPU time to a Monte Carlo
    leg without shortening it.  The bytes depend on no BLAS build or
    thread count.  The result is the ``(N, d)`` view of a coordinate-major
    block, as in ``_average``: what is computed from it runs along
    contiguous columns, not along rows of ``d`` entries.
    """
    out = np.empty((m.shape[0], len(z)))
    for r, row in enumerate(m):
        np.multiply(z[:, 0], row[0], out=out[r])
        for c in range(1, len(row)):
            out[r] += z[:, c] * row[c]
    return out.T


def _mc_rows(rng: np.random.Generator, out: np.ndarray, d: int,
             leg: Callable) -> None:
    """Fill ``out[rows] = leg(rows, z)`` in blocks of at most ``CHUNK_ROWS`` rows;
    the blocks' normals ``z`` are the stream of one ``(len(out), d)`` draw."""
    for i in range(0, len(out), CHUNK_ROWS):
        rows = slice(i, min(i + CHUNK_ROWS, len(out)))
        out[rows] = leg(rows, rng.standard_normal((rows.stop - i, d)))


def apply(
    f: Callable,
    t: float,
    spec: CovSpec,
    points,
    method: str = "quadrature",
    seed: int = 0,
    nodes: Optional[int] = None,
    samples: int = DEFAULT_MC_SAMPLES,
) -> np.ndarray:
    """Evaluate ``P_t f`` at query points.

    Parameters
    ----------
    f : callable
        Vectorized test function, mapping an (N, dim) array to (N,).
    t : float
        Nonnegative time; ``t == 0`` returns ``f`` at the points.
    spec : CovSpec
        Covariance specification for the averaging kernel.
    points : array-like
        Finite query points, shape (N,) for dim 1 or (N, dim).
    method : {"quadrature", "mc"}
        Gauss-Hermite in whitened coordinates with a halving error
        estimate, or Monte Carlo with a derived seed per query point.
    nodes : int, optional
        Gauss-Hermite nodes per dimension, at least 2.  Fixes the rule (the
        estimate is still computed); by default the rule starts at
        ``HERMITE_NODES`` and doubles until the estimate meets
        ``ESTIMATE_TOL``.  Warns with ``QuadratureWarning`` if the final
        estimate does not.
    samples : int
        Monte Carlo sample count per query point.
    """
    _check_time(t)
    d = spec.dim
    _check_nodes(nodes, d)
    pts = _as_points(points, d)
    if t == 0:
        return _eval_f(f, pts)
    if method == "quadrature":
        return _hermite_average(f, t, _cholesky(spec), pts, nodes)[0]
    if method == "mc":
        if samples < 1:
            raise ValueError("Monte Carlo needs samples >= 1, got %d" % samples)
        check_mc_samples(samples)
        scaled = math.sqrt(t) * _cholesky(spec)
        seeds = np.random.SeedSequence(seed).spawn(pts.shape[0])
        out, vals = np.empty(pts.shape[0]), np.empty(samples)
        for i, x in enumerate(pts):
            _mc_rows(np.random.default_rng(seeds[i]), vals, d,
                     lambda _, z: _eval_f(f, x[None, :] + _transform(z, scaled)))
            out[i] = float(np.mean(vals))
        return out
    raise ValueError("method must be 'quadrature' or 'mc'")


def _rule_report(n: int, estimate: float) -> dict:
    return {"rule": "gauss-hermite-whitened", "nodes_per_dim": n,
            "error_estimate": estimate}


def check_semigroup(
    f: Callable,
    s: float,
    t: float,
    spec: CovSpec,
    points,
    method: str = "quadrature",
    seed: int = 0,
    nodes: Optional[int] = None,
    samples: int = 200_000,
    tol: float = 1e-6,
) -> dict:
    """Compare ``P_s(P_t f)`` with ``P_{s+t} f`` at finite query points.

    Quadrature mode settles the node count (and its halving estimate) on
    the direct route ``P_{s+t} f``, then nests the two averaging sums at
    that fixed count.  Monte Carlo mode draws the two increments
    independently and reports the deviation in units of the combined
    standard error.  ``value``, ``bound`` and ``passed`` give the verdict
    against ``tol`` (quadrature) or ``MC_SE_BOUND`` (Monte Carlo).
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative, got %r" % tol)
    if s <= 0 or t <= 0:
        raise ValueError("both times must be positive")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("both times must be finite")
    d = spec.dim
    _check_nodes(nodes, d)
    pts = _as_points(points, d)
    if method == "quadrature":
        chol = _cholesky(spec)
        rhs, n, estimate = _hermite_average(f, s + t, chol, pts, nodes)
        inner_rule = _whitened_rule(chol, t, n)
        inner = lambda y: _average(f, y, *inner_rule)
        lhs = _average(inner, pts, *_whitened_rule(chol, s, n))
        dev = float(np.abs(lhs - rhs).max())
        return {
            "method": "quadrature",
            "max_abs_deviation": dev,
            "value": dev,
            "bound": tol,
            "passed": dev <= tol,
            **_rule_report(n, estimate),
            "lhs": lhs.tolist(),
            "rhs": rhs.tolist(),
        }
    if method == "mc":
        if samples < 2:
            raise ValueError("a Monte Carlo standard error needs samples >= 2, got %d"
                             % samples)
        check_mc_samples(samples)
        chol = _cholesky(spec)
        seeds = np.random.SeedSequence(seed).spawn(pts.shape[0])
        max_dev_se = 0.0
        max_dev = 0.0
        first, v1, v2 = np.empty((samples, d)), np.empty(samples), np.empty(samples)
        for i, x in enumerate(pts):
            rng = np.random.default_rng(seeds[i])
            # z1's normals all precede z2's in the stream, so the first leg
            # x + A is stored whole; adding B to it rounds as x + A + B does.
            _mc_rows(rng, first, d,
                     lambda _, z: x[None, :] + math.sqrt(s) * _transform(z, chol))
            _mc_rows(rng, v1, d, lambda rows, z: _eval_f(
                f, first[rows] + math.sqrt(t) * _transform(z, chol)))
            _mc_rows(rng, v2, d, lambda _, z: _eval_f(
                f, x[None, :] + math.sqrt(s + t) * _transform(z, chol)))
            dev = abs(float(v1.mean() - v2.mean()))
            se = math.sqrt(v1.var(ddof=1) / samples + v2.var(ddof=1) / samples)
            max_dev = max(max_dev, dev)
            if se > 0:
                max_dev_se = max(max_dev_se, dev / se)
        return {
            "method": "mc",
            "max_abs_deviation": max_dev,
            "max_deviation_in_se": max_dev_se,
            "samples": samples,
            "value": max_dev_se,
            "bound": MC_SE_BOUND,
            "passed": max_dev_se < MC_SE_BOUND,
        }
    raise ValueError("method must be 'quadrature' or 'mc'")


def check_contraction(
    f: Callable,
    t: float,
    spec: CovSpec,
    window: Tuple[Sequence[float], Sequence[float]],
    nodes: Optional[int] = None,
) -> dict:
    """Sup-norm and L1 contraction of ``P_t`` on a window.

    The window should contain the essential support of ``f``; the L1
    integral of ``P_t f`` runs over the window expanded by the kernel's
    8-sigma radius, on a fixed Gauss-Legendre grid (``WINDOW_NODES``).  A
    window that is not finite, or whose widened bounds or width overflow,
    is refused.
    ``nodes`` is the Gauss-Hermite node count of ``P_t``, as in ``apply``.
    """
    _check_time(t)
    d = spec.dim
    _check_nodes(nodes, d)
    lows, highs = (np.atleast_1d(np.asarray(w, dtype=float)) for w in window)
    _refuse_non_finite(np.concatenate([lows, highs]), "window bound")
    with np.errstate(over="ignore"):
        half = WINDOW_SIGMAS * np.sqrt(t * np.diag(spec.sigma()))
        lows, highs = lows - half, highs + half
        _refuse_non_finite(np.concatenate([lows, highs, highs - lows]),
                           "bound or width of the window widened by %g kernel "
                           "standard deviations" % WINDOW_SIGMAS)
    pts_out, wts_out = tensor_rule(lows, highs, WINDOW_NODES.get(d, 41))
    f_out = _eval_f(f, pts_out)
    ptf_out, n, estimate = _hermite_average(f, t, _cholesky(spec), pts_out,
                                            nodes)
    sup_f = float(np.abs(f_out).max())
    sup_ptf = float(np.abs(ptf_out).max())
    # fsum, not a BLAS dot, so the bytes do not depend on the thread count.
    l1_f = math.fsum(wts_out * np.abs(f_out))
    l1_ptf = math.fsum(wts_out * np.abs(ptf_out))
    return {
        "sup_f": sup_f,
        "sup_ptf": sup_ptf,
        "sup_contracts": sup_ptf <= sup_f + 1e-9,
        "l1_f": l1_f,
        "l1_ptf": l1_ptf,
        "l1_contracts": l1_ptf <= l1_f + 1e-6,
        **_rule_report(n, estimate),
    }
