"""Brownian paths on factorial-dyadic grids with level-by-level refinement.

Level ``eta`` (even, up to 16) carries the uniform grid with
``f(eta) = (eta/2)! * 2**(eta/2)`` steps on [0, 1]; consecutive levels
nest because ``f(eta+2)/f(eta) = (eta/2 + 1) * 2`` is an integer.  Point
``j`` sits at time ``j / f(eta)``.

Standard mode inserts each new grid point by sequential bridge sampling:
given the current left anchor (a, W_a) and the enclosing right anchor
(r, W_r), the value at ``t`` is Gaussian with mean the linear interpolant
and variance ``(t - a)(r - t)/(r - a)``; the single-midpoint case reduces
to ``(W_l + W_r)/2 + sqrt(r - l)/2 * Z``.  Coordinates are independent.

The "paper-literal" mode instead applies the printed interpolation rule
``W(t) = (1/eta!) * (W(l) + W(l + 1/f(eta-2))) * k + (1/f(eta)) * Z``
with ``k`` the 1-based left-to-right index of the new point at its level
and ``(l, l + 1/f(eta-2))`` the enclosing previous-level gap.  That rule
is not distribution preserving, so no statistical claim attaches to its
paths: ``increment_stats`` refuses them.

Both modes share one refinement kernel.  It walks a level in blocks of
whole gaps, takes one normal draw per block in (gap, position, rep,
coordinate) order, and fills one position inside every gap of the block
at once.  That order is the order of a per-point loop over gaps and
positions, so the random stream does not depend on the block size.
Refinement copies every existing point and draws only for new ones, so
the level-k points of a level-eta path are the level-k path itself, bit
for bit: a coarse level is the slice ``values[:, ::f(eta) // f(k)]`` of
a finer one, and each call simulates one level only.
Replications are simulated in fixed chunks of 256, each chunk seeded by
``SeedSequence(seed).spawn``, so results are identical for a fixed
(seed, reps).  ``simulate`` returns one repetition of such an ensemble:
it simulates only the chunk that holds it, and since each draw spans the
chunk's repetitions it still draws every normal of that chunk, but fills
and keeps only the one path.  Path arrays are capped at ``MAX_PATH_CELLS``
values, both per chunk and as returned (for ``simulate``, as its whole
ensemble would be), and the cap is checked before simulating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAX_ETA = 16
CHUNK = 256
MAX_PATH_CELLS = 2**24
_BLOCK_NORMALS = 2**16  # per draw; a whole-level draw nearly doubles peak memory


def _check_eta(eta: int):
    if eta < 0 or eta % 2 != 0 or eta > MAX_ETA:
        raise ValueError("level must be even and lie in 0..%d, got %r" % (MAX_ETA, eta))


def grid_factor(eta: int) -> int:
    """Steps per unit time at level ``eta``: ``(eta/2)! * 2**(eta/2)``."""
    _check_eta(eta)
    h = eta // 2
    return math.factorial(h) * 2**h


@dataclass(frozen=True)
class PathEnsemble:
    """Replicated paths on one grid: values has shape (reps, factor + 1, dim)."""

    dim: int
    eta: int
    values: np.ndarray
    mode: str

    @property
    def factor(self) -> int:
        return grid_factor(self.eta)

    @property
    def reps(self) -> int:
        return self.values.shape[0]

    def path(self, rep: int = 0) -> np.ndarray:
        return self.values[rep]


def _refine(vals: np.ndarray, eta_prev: int, eta: int, rng: np.random.Generator,
            mode: str, reps: int, keep: slice) -> np.ndarray:
    """One refinement step: (kept, P_prev, d) -> (kept, P_new, d).

    Normals are drawn for all ``reps`` paths of the chunk, so the random
    stream is the whole chunk's; only the paths ``keep`` selects, which
    ``vals`` holds, are filled.
    """
    f_prev = grid_factor(eta_prev)
    f_new = grid_factor(eta)
    ratio = f_new // f_prev
    kept, _, d = vals.shape
    out = np.empty((kept, f_new + 1, d))
    out[:, ::ratio, :] = vals
    prefac = 1.0 / math.factorial(eta)
    innov = 1.0 / f_new
    step = max(1, _BLOCK_NORMALS // ((ratio - 1) * reps * d))
    for g0 in range(0, f_prev, step):
        g1 = min(g0 + step, f_prev)
        z = rng.standard_normal((g1 - g0, ratio - 1, reps, d))
        # Gap g spans points g*ratio .. (g+1)*ratio; slices run over the block.
        left = out[:, g0 * ratio:g1 * ratio:ratio, :]
        right = out[:, (g0 + 1) * ratio:g1 * ratio + 1:ratio, :]
        k = np.arange(g0, g1)[None, :, None] * (ratio - 1)
        for p in range(1, ratio):
            noise = z[:, p - 1, keep].transpose(1, 0, 2)
            if mode == "standard":
                # Sequential bridge fill, left to right inside the gap; times
                # in units of 1/f_new, variance scales accordingly.
                prev = out[:, g0 * ratio + p - 1:g1 * ratio:ratio, :]
                mean = prev + (right - prev) / (ratio - p + 1)
                var = (ratio - p) / ((ratio - p + 1) * f_new)
                new = mean + math.sqrt(var) * noise
            else:
                new = prefac * (left + right) * (k + p) + innov * noise
            out[:, g0 * ratio + p:g1 * ratio:ratio, :] = new
    return out


def _simulate_chunk(dim: int, eta: int, reps: int, rng: np.random.Generator,
                    mode: str, keep: slice) -> np.ndarray:
    """Level-``eta`` paths of one chunk, refined up from level 0.

    Every normal of the chunk's ``reps`` paths is drawn; only the paths
    ``keep`` selects are filled and returned.
    """
    w1 = rng.standard_normal((reps, dim))[keep]
    vals = np.zeros((len(w1), 2, dim))
    vals[:, 1, :] = w1
    for e in range(2, eta + 1, 2):
        vals = _refine(vals, e - 2, e, rng, mode, reps, keep)
    return vals


def _check_args(dim: int, reps: int, mode: str):
    if mode not in ("standard", "paper-literal"):
        raise ValueError("mode must be 'standard' or 'paper-literal'")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if reps < 1:
        raise ValueError("replication count must be >= 1")


def _check_cells(what: str, reps: int, eta: int, dim: int):
    cells = reps * (grid_factor(eta) + 1) * dim
    if cells > MAX_PATH_CELLS:
        raise ValueError("%s of %d path cells exceeds cap %d"
                         % (what, cells, MAX_PATH_CELLS))


def _chunks(dim: int, eta: int, reps: int, seed: int, mode: str,
            rep: Optional[int] = None):
    """Level-``eta`` paths in fixed chunks, each simulated when it is reached.

    With ``rep`` given, only the chunk that holds repetition ``rep`` is
    simulated, and it returns that one path.  The working-level cap is
    checked here, before any chunk is drawn.
    """
    _check_cells("working level", min(reps, CHUNK), eta, dim)
    sizes = [CHUNK] * (reps // CHUNK) + [reps % CHUNK] * (reps % CHUNK > 0)
    plan = list(zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))))
    keep = slice(None)
    if rep is not None:
        chunk, row = divmod(rep, CHUNK)
        plan, keep = plan[chunk:chunk + 1], slice(row, row + 1)
    return (_simulate_chunk(dim, eta, size, np.random.default_rng(s), mode, keep)
            for size, s in plan)


def simulate(dim: int, eta: int, seed: int = 0, mode: str = "standard",
             reps: int = 1, rep: int = 0) -> PathEnsemble:
    """Repetition ``rep`` of a ``reps``-path ensemble, as a one-path ensemble.

    The path is bit for bit ``simulate_ensemble(dim, eta, reps, seed,
    mode).path(rep)``, and the same calls are refused, but only the chunk
    that holds it is simulated and only the path itself is stored.
    """
    _check_eta(eta)
    _check_args(dim, reps, mode)
    if not 0 <= rep < reps:
        raise ValueError("rep index out of range")
    _check_cells("returned level", reps, eta, dim)
    values = next(_chunks(dim, eta, reps, seed, mode, rep))
    return PathEnsemble(dim, eta, values, mode)


def simulate_ensemble(dim: int, eta: int, reps: int, seed: int = 0,
                      mode: str = "standard") -> PathEnsemble:
    """Replicated paths on the level-``eta`` grid."""
    _check_eta(eta)
    _check_args(dim, reps, mode)
    _check_cells("returned level", reps, eta, dim)
    chunks = list(_chunks(dim, eta, reps, seed, mode))
    # A lone chunk is already a fresh array; concatenating would copy it.
    values = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)
    return PathEnsemble(dim, eta, values, mode)


def _check_stats(mode: str, reps: int):
    if mode == "paper-literal":
        raise ValueError("increment statistics attach to standard mode only")
    if reps < 2:
        raise ValueError("increment statistics need at least 2 replications")


def increment_stats(ensemble: PathEnsemble) -> dict:
    """Mean, variance, and pairwise correlation of disjoint grid increments.

    Correlations are computed across all increment-coordinate series;
    entries beyond ``4/sqrt(reps)`` in absolute value are counted as
    violations.
    """
    _check_stats(ensemble.mode, ensemble.reps)
    vals = ensemble.values
    reps, n_pts, d = vals.shape
    inc = np.diff(vals, axis=1)  # (reps, n_inc, d)
    n_inc = n_pts - 1
    dt = 1.0 / n_inc
    series = inc.reshape(reps, n_inc * d)
    means = series.mean(axis=0)
    variances = series.var(axis=0, ddof=1)
    # One series (eta 0 in one dimension) has a 0-d correlation "matrix".
    corr = np.atleast_2d(np.corrcoef(series, rowvar=False))
    off = corr[np.triu_indices(n_inc * d, k=1)]
    threshold = 4.0 / math.sqrt(reps)
    return {
        "eta": ensemble.eta,
        "reps": reps,
        "n_increments": n_inc,
        "dt": dt,
        "max_abs_mean": float(np.abs(means).max()),
        "var_min": float(variances.min()),
        "var_max": float(variances.max()),
        "expected_var": dt,
        "max_abs_corr": float(np.abs(off).max()) if off.size else 0.0,
        "corr_threshold": threshold,
        "corr_violations": int((np.abs(off) > threshold).sum()),
        "n_pairs": int(off.size),
    }


def refinement_delta(dim: int, etas: Sequence[int], seed: int = 0,
                     reps: int = 1) -> np.ndarray:
    """Sup deviation of each level from the previous level's interpolant.

    Standard-mode paths are simulated once, to level ``max(etas)``.  For
    each ``eta`` in ``etas`` (even, >= 2) the coupled pair
    ``(W_{eta-2}, W_eta)`` is read as two slices of them and
    ``sup_t |W_eta(t) - interp(W_{eta-2})(t)|`` over the level-``eta``
    grid is recorded.  Returns shape (reps, len(etas)).
    """
    _check_args(dim, reps, "standard")
    etas = list(etas)
    if not etas:
        raise ValueError("need at least one level")
    for eta in etas:
        _check_eta(eta)
        if eta < 2:
            raise ValueError("refinement levels start at 2")
    top = max(etas)

    def deltas(vals: np.ndarray) -> np.ndarray:
        out = np.empty((vals.shape[0], len(etas)))
        for col, eta in enumerate(etas):
            # Both levels are slices of the level-top path (levels nest).
            coarse = vals[:, ::grid_factor(top) // grid_factor(eta - 2), :]
            fine = vals[:, ::grid_factor(top) // grid_factor(eta), :]
            ratio = grid_factor(eta) // grid_factor(eta - 2)
            # Linear interpolation of the coarse path onto the fine grid.
            idx = np.arange(fine.shape[1])
            g = idx // ratio
            frac = (idx % ratio) / ratio
            g_next = np.minimum(g + 1, coarse.shape[1] - 1)
            interp = (coarse[:, g, :] * (1.0 - frac)[None, :, None]
                      + coarse[:, g_next, :] * frac[None, :, None])
            out[:, col] = np.abs(fine - interp).max(axis=(1, 2))
        return out

    chunks = _chunks(dim, top, reps, seed, "standard")
    return np.concatenate([deltas(vals) for vals in chunks], axis=0)
