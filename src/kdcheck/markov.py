"""Return-time generating functions of finite Markov chains, exactly.

Transition matrices carry ``Fraction`` entries.  The n-step return
probabilities, the first-return sequence, the resolvent entries
``[(I - rP)^-1]_{i,j}`` as rational functions of ``r``, and the
first-return generating function ``Theta_{i,i}(r) = 1 - 1/P_{i,i}(r)``
are all computed in exact arithmetic; only the radius of convergence
(smallest pole magnitude) goes through floating point root finding,
polished by Newton steps.

All resolvent entries of a chain come from one fraction-free
Gauss-Jordan elimination (Bareiss 1968) of ``[I - rP | I]`` into
``[det * I | adj]``, memoised on the immutable ``TransitionMatrix``.  It
needs no pivoting, because each pivot is a leading principal minor of
``I - rP`` and equals 1 at ``r = 0``.  Matrix powers (``n_step``,
``first_return``, ``period``) never use it, so the series of a resolvent
can be checked against powers computed independently.  ``first_return``
and ``period`` read the diagonals of ``P, P^2, ...``, which each chain
grows once from one running product ``P^m = P^(m-1) P`` and memoises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

NEWTON_TOL = 1e-12
NEWTON_STEPS = 60


class Poly:
    """Univariate polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence = ()):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # zero polynomial has degree -1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.c])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([x * other for x in self.c])
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        q = [Fraction(0)] * max(0, len(rem) - len(other.c) + 1)
        d = other.c
        while len(rem) >= len(d) and any(rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - len(d)
            coef = rem[-1] / d[-1]
            q[shift] = coef
            for i, b in enumerate(d):
                rem[shift + i] -= coef * b
            rem.pop()
        return Poly(q), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division left a remainder")
        return q

    def eval(self, r):
        out = Fraction(0) if isinstance(r, (int, Fraction)) else 0.0
        for c in reversed(self.c):
            out = out * r + (c if isinstance(r, (int, Fraction)) else float(c))
        return out

    def eval_complex(self, z: complex) -> complex:
        out = 0j
        for c in reversed(self.c):
            out = out * z + complex(c)
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.c)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.c[-1]
        return Poly([x / lead for x in self.c])

    def __repr__(self) -> str:
        return "Poly(%s)" % (poly_str(self),)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def poly_str(p: Poly, var: str = "r") -> str:
    """Compact display like ``1-r/2+r^2``."""
    if p.is_zero():
        return "0"
    out = ""
    for k, c in enumerate(p.c):
        if c == 0:
            continue
        a = abs(c)
        if k == 0:
            s = str(a)
        else:
            v = var if k == 1 else "%s^%d" % (var, k)
            if a == 1:
                s = v
            elif a.denominator == 1:
                s = "%d%s" % (a.numerator, v)
            elif a.numerator == 1:
                s = "%s/%d" % (v, a.denominator)
            else:
                s = "%d%s/%d" % (a.numerator, v, a.denominator)
        if not out:
            out = ("-" if c < 0 else "") + s
        else:
            out += ("-" if c < 0 else "+") + s
    return out


class RationalFunction:
    """Quotient of two polynomials, gcd-reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        lead = den.c[-1]
        if lead != 1:
            num = num * (Fraction(1) / lead)
            den = den.monic()
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def series(self, n: int) -> Tuple[Fraction, ...]:
        """First ``n + 1`` Taylor coefficients at 0; needs ``den(0) != 0``."""
        d0 = self.den.eval(Fraction(0))
        if d0 == 0:
            raise ValueError("series expansion needs den(0) != 0")
        num, den = self.num.c, self.den.c
        out = []
        for j in range(n + 1):
            acc = num[j] if j < len(num) else Fraction(0)
            for i in range(1, min(j, len(den) - 1) + 1):
                acc -= den[i] * out[j - i]
            out.append(acc / d0)
        return tuple(out)

    def eval(self, r) -> Fraction:
        d = self.den.eval(r)
        if d == 0:
            raise ValueError("pole at r=%s" % (r,))
        return self.num.eval(r) / d

    def display(self, var: str = "r") -> str:
        """Human form with the denominator scaled to constant term 1."""
        num, den = self.num, self.den
        d0 = den.eval(Fraction(0))
        if d0 != 0:
            num = num * (Fraction(1) / d0)
            den = den * (Fraction(1) / d0)
        if den == Poly.one():
            return poly_str(num, var)
        return "(%s)/(%s)" % (poly_str(num, var), poly_str(den, var))

    def __repr__(self) -> str:
        return "RationalFunction(%s)" % self.display()


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix with exact Fraction entries."""

    rows: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("transition matrix must be nonempty")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("transition matrix must be square")
            if any(p < 0 for p in row):
                raise ValueError("transition probabilities must be nonnegative")
            if sum(row, start=Fraction(0)) != 1:
                raise ValueError("rows must sum to exactly 1")

    @classmethod
    def build(cls, rows) -> "TransitionMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_irreducible(self) -> bool:
        n = self.n
        # Reachability in both directions via BFS on positive entries.
        def reach(start, forward: bool) -> set:
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in range(n):
                    edge = self.rows[u][v] if forward else self.rows[v][u]
                    if edge > 0 and v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen

        return all(len(reach(s, True)) == n for s in range(n))

    @cached_property
    def _det_adj(self) -> Tuple[Poly, Tuple[Tuple[Poly, ...], ...]]:
        return _det_adjugate(self.rows)

    @cached_property
    def _power_memo(self) -> list:
        """``[P^m, [diag(P^1), ..., diag(P^m)]]`` for the largest m read."""
        return [None, []]

    def _diagonals(self, n: int) -> List[Tuple[Fraction, ...]]:
        """Diagonals of ``P^1 .. P^n``, extending the memoised running product."""
        memo = self._power_memo
        power, diags = memo
        while len(diags) < n:
            power = self.rows if power is None else _mat_mul(power, self.rows)
            diags.append(tuple(power[i][i] for i in range(self.n)))
        memo[0] = power
        return diags[:n]


def _det_adjugate(rows) -> Tuple[Poly, Tuple[Tuple[Poly, ...], ...]]:
    """``det(I - rP)`` and ``adj(I - rP)`` from one fraction-free elimination.

    Bareiss's Gauss-Jordan form reduces ``[I - rP | I]`` to
    ``[det * I | adj]``; every division is exact.  No pivoting is needed:
    the k-th pivot is the k-th leading principal minor of ``I - rP``, which
    is 1 at ``r = 0`` and so never the zero polynomial.
    """
    n = len(rows)
    m = [
        [Poly((int(a == b), -rows[a][b])) for b in range(n)]
        + [Poly((int(a == b),)) for b in range(n)]
        for a in range(n)
    ]
    prev = Poly.one()
    for k in range(n):
        pivot = m[k][k]
        for i in range(n):
            if i == k:
                continue
            factor = m[i][k]
            m[i] = [
                (pivot * m[i][j] - factor * m[k][j]).exact_div(prev)
                for j in range(2 * n)
            ]
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in m)


def _as_matrix(P) -> TransitionMatrix:
    if isinstance(P, TransitionMatrix):
        return P
    return TransitionMatrix.build(P)


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), start=Fraction(0))
         for j in range(n)]
        for i in range(n)
    ]


def n_step(P, n: int):
    """Exact ``n``-step transition matrix as nested Fraction tuples."""
    P = _as_matrix(P)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    size = P.n
    out = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    base = [list(row) for row in P.rows]
    k = n
    while k:
        if k & 1:
            out = _mat_mul(out, base)
        k >>= 1
        if k:
            base = _mat_mul(base, base)
    return tuple(tuple(row) for row in out)


def first_return(P, i: int, n_max: int) -> Tuple[Fraction, ...]:
    """First-return probabilities ``theta^(1..n_max)`` to state ``i``, exact.

    Computed by peeling the renewal identity: the n-step return splits
    over the time of first return, so
    ``theta^(n) = P^n_{i,i} - sum_{m=1}^{n-1} theta^(m) P^(n-m)_{i,i}``.
    """
    P = _as_matrix(P)
    if not 0 <= i < P.n:
        raise ValueError("state index out of range")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    diag = [Fraction(1)] + [d[i] for d in P._diagonals(n_max)]
    theta = []
    for n in range(1, n_max + 1):
        acc = diag[n]
        for m in range(1, n):
            acc -= theta[m - 1] * diag[n - m]
        theta.append(acc)
    return tuple(theta)


def resolvent(P, i: int, j: int) -> RationalFunction:
    """Entry ``[(I - rP)^-1]_{i,j}`` as a reduced rational function of ``r``.

    The entry is ``adj(I - rP)[i][j] / det(I - rP)``.  Both come from a
    single fraction-free elimination per ``TransitionMatrix``, memoised on
    the object, so a sweep over all entries of one chain eliminates once.
    """
    P = _as_matrix(P)
    if not (0 <= i < P.n and 0 <= j < P.n):
        raise ValueError("state index out of range")
    det, adj = P._det_adj
    return RationalFunction(adj[i][j], det)


def theta_gf(P, i: int) -> RationalFunction:
    """First-return generating function ``Theta_{i,i}(r) = 1 - 1/P_{i,i}(r)``."""
    pii = resolvent(P, i, i)
    return RationalFunction(pii.num - pii.den, pii.num)


def radius_of_convergence(rf: RationalFunction) -> float:
    """Smallest pole magnitude of the reduced function; ``inf`` if entire."""
    den = rf.den
    if den.degree < 1:
        return math.inf
    coeffs = [float(c) for c in den.c]
    roots = np.roots(coeffs[::-1])
    dp = den.derivative()
    best = math.inf
    for z in roots:
        z = complex(z)
        for _ in range(NEWTON_STEPS):
            d = dp.eval_complex(z)
            if d == 0:
                break
            step = den.eval_complex(z) / d
            z -= step
            if abs(step) < NEWTON_TOL:
                break
        best = min(best, abs(z))
    return best


def period(P, i: int) -> int:
    """gcd of feasible return times to ``i``; 0 when no return occurs.

    Simple cycles through ``i`` have length at most the state count and
    generate the semigroup of return times, so scanning that many powers
    is sufficient.
    """
    P = _as_matrix(P)
    g = 0
    for n, d in enumerate(P._diagonals(P.n), start=1):
        if d[i] > 0:
            g = math.gcd(g, n)
    return g


def markov_report(P, i: int, series_terms: int = 8) -> dict:
    """Generating functions, series prefix, and pole radius for one state."""
    P = _as_matrix(P)
    pii = resolvent(P, i, i)
    theta = theta_gf(P, i)
    irreducible = P.is_irreducible()
    report = {
        "state": i,
        "P_gf": pii.display(),
        "Theta_gf": theta.display(),
        "theta_series": list(first_return(P, i, series_terms)),
        "radius": radius_of_convergence(theta),
        "period": period(P, i),
        "irreducible": irreducible,
    }
    if irreducible:
        report["theta_at_1"] = theta.eval(Fraction(1))
    return report
