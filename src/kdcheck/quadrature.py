"""Composite Gauss-Legendre quadrature on boxes, up to three dimensions."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

PANEL_ORDER = 24
# Tensor grids grow as nodes**dim; refuse anything past desk scale.
MAX_TOTAL_NODES = 2**22

_rule_cache: dict = {}


def _panel_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    if order not in _rule_cache:
        _rule_cache[order] = np.polynomial.legendre.leggauss(order)
    return _rule_cache[order]


def gauss_legendre_1d(lo: float, hi: float, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite rule with order-24 panels totalling at least ``nodes`` points.

    Returns (points, weights) with points ascending in [lo, hi].
    """
    if not hi > lo:
        raise ValueError("empty interval [%g, %g]" % (lo, hi))
    if nodes < 1:
        raise ValueError("node count must be positive")
    panels = max(1, math.ceil(nodes / PANEL_ORDER))
    x0, w0 = _panel_rule(PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    wts = (half[:, None] * w0[None, :]).ravel()
    return pts, wts


def tensor_rule(
    lows: Sequence[float], highs: Sequence[float], nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule over a box.

    Returns (points, weights) with points of shape (N, d) and weights (N,).
    """
    d = len(lows)
    if len(highs) != d:
        raise ValueError("lows and highs must have equal length")
    axes = [gauss_legendre_1d(float(lows[i]), float(highs[i]), nodes) for i in range(d)]
    per_dim = len(axes[0][0])
    if per_dim**d > MAX_TOTAL_NODES:
        raise ValueError(
            "quadrature grid %d^%d exceeds the node cap; lower the node count"
            % (per_dim, d)
        )
    return _tensor_grid([a[0] for a in axes], [a[1] for a in axes])


def _tensor_grid(points, weights) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor product of 1-D rules: ``(N, d)`` points, ``(N,)`` weights."""
    grids = np.meshgrid(*points, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = weights[0]
    for w in weights[1:]:
        wts = np.multiply.outer(wts, w)
    return pts, wts.ravel()
