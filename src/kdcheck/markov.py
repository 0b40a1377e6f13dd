"""Return-time generating functions of finite Markov chains, exactly.

A chain is held as ``P = A/D``: ``D`` is the least common denominator
of the entries and ``A`` an integer matrix.  The n-step and first-return
probabilities, the resolvent entries ``[(I - rP)^-1]_{i,j}`` and the
first-return generating function ``Theta_{i,i}(r) = 1 - 1/P_{i,i}(r)``
are computed over the integers, and a ``Fraction`` is built only when a
value leaves the module.  A ``RationalFunction`` is canonical: coprime
integer polynomials whose coefficients have gcd 1, with a positive
leading coefficient in the denominator.  It is reduced by ``poly_gcd``, a
primitive pseudo-remainder sequence over the integers (Collins 1967;
Brown 1971) that returns a primitive integer polynomial, so by Gauss's
lemma both divisions by the gcd stay in ints too.  Exact powers ``P^n``
are refused before any is built when ``n * D.bit_length()`` exceeds
``MAX_POWER_BITS``, and the resolvent below before it runs when
``n**3 * (D.bit_length() + (n + 1).bit_length())`` exceeds
``MAX_ELIMINATION_COST`` or ``D`` itself has more than ``MAX_POWER_BITS``
bits, and ``markov_report`` refuses a report that would print an integer
of more than ``MAX_PRINTED_DIGITS`` decimal digits.  Only the radius of convergence
(smallest pole magnitude) goes through floating point root finding,
polished by Newton steps.

All resolvent entries of a chain come from ``det(D*I - rA)`` and
``adj(D*I - rA)``, memoised on the immutable ``TransitionMatrix``.  They
are evaluated at the ``n + 1`` points ``r = k/(n + 1)``, each by one
scalar fraction-free Gauss-Jordan elimination over the integers (Bareiss
1968), and interpolated from those values by Newton's forward differences,
which stay integers at integer points (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5).  Every division is checked to be exact.  Matrix
powers (``n_step``, ``first_return``, ``period``, ``is_irreducible``)
never use the resolvent, so its series can be checked against powers
computed independently.  The last three read ``A, A^2, ...``, which each
chain grows once from one running product ``A^m = A^(m-1) A`` and memoises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import List, Sequence, Tuple

import numpy as np

from .core import scale_to_integers

NEWTON_TOL = 1e-12
NEWTON_STEPS = 60
# Cap on n * D.bit_length() for an exact n-step power of a chain with
# common denominator D: its entries reach D**n, and the work of building
# them grows faster than their size.  The cap keeps every such Fraction
# well under CPython's 4300-digit limit on int-to-str conversion.  It also
# caps D's bits for the resolvent.
MAX_POWER_BITS = 2**13
# Cap on the decimal digits of every integer that ``markov_report`` puts in
# a report: CPython's default limit on int-to-str conversion, whatever
# limit the running interpreter was given.
MAX_PRINTED_DIGITS = 4300
# Cap on n**3 * (D.bit_length() + (n + 1).bit_length()) for the resolvent
# of an n-state chain.  Its elimination makes on the order of n**4 integer
# products of up to n * (D.bit_length() + (n + 1).bit_length()) bits, and
# the cost of a product, and of reducing the resulting polynomials, grows
# about with the square of that size.  Calibrated on whole ``kdcheck markov``
# calls on a 2-core host: seeded chains of 5 to 36 states at the cap, with
# generic numerators or sparse rows, take 0.7-1.6 s; a 20-state chain with a
# 60-bit D (a third over the cap) took 1.9 s.
MAX_ELIMINATION_COST = 3 * 2**17


class Poly:
    """Univariate polynomial with int coefficients, ascending order."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence[int] = ()):
        c = list(coeffs)
        if not all(isinstance(x, int) for x in c):
            raise TypeError("polynomial coefficients must be ints")
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # zero polynomial has degree -1

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.c])

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient by a polynomial that divides this one over the integers,
        by long division; ``ArithmeticError`` on any remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, d = list(self.c), other.c
        q = [0] * max(0, len(rem) - len(d) + 1)
        for shift in reversed(range(len(q))):
            # The leading coefficient's own remainder stays in ``rem``.
            top = shift + len(d) - 1
            q[shift], rem[top] = divmod(rem[top], d[-1])
            for i, b in enumerate(d[:-1]):
                rem[shift + i] -= q[shift] * b
        if any(rem):
            raise ArithmeticError("polynomial division left a remainder")
        return Poly(q)

    def eval(self, r) -> Fraction:
        """Exact value at a rational ``r``, by Horner's rule."""
        out = Fraction(0)
        for c in reversed(self.c):
            out = out * r + c
        return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor as a primitive integer polynomial (integer
    coefficients with gcd 1) with a positive leading coefficient.

    Both arguments are made primitive, then reduced by the primitive
    pseudo-remainder sequence (Collins 1967; Brown 1971): each
    pseudo-remainder is computed in ints and divided by its content, so no
    ``Fraction`` is built.  A zero argument gives the other one's
    primitive part; two zeros give zero.
    """
    def primitive(p):
        return p if p.is_zero() else _primitive(p)[0]

    a, b = primitive(a), primitive(b)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, primitive(_pseudo_rem(a, b))
    return a


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of ``lc(b)**(deg a - deg b + 1) * a`` divided by ``b``, for
    integer polynomials: every step stays in ints."""
    rem, d = list(a.c), b.c
    lead = d[-1]
    for shift in reversed(range(len(rem) - len(d) + 1)):
        coef = rem.pop()
        rem = [x * lead for x in rem]
        for i, x in enumerate(d[:-1]):
            rem[shift + i] -= coef * x
    return Poly(rem)


def _primitive(*polys: Poly) -> Tuple[Poly, ...]:
    """``polys`` divided by the one integer that leaves all their coefficients
    with gcd 1 and the last one's leading coefficient positive."""
    n = [x for p in polys for x in p.c]
    g = math.gcd(*n)
    if polys[-1].c[-1] < 0:
        g = -g
    it = (v // g for v in n)
    return tuple(Poly(islice(it, len(p.c))) for p in polys)


def poly_str(coeffs: Sequence) -> str:
    """Compact display like ``1-r/2+r^2`` of rational coefficients, ascending."""
    out = ""
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        a = abs(c)
        if k == 0:
            s = str(a)
        else:  # like 3r^2/4, with a numerator or denominator of 1 left out
            s = ("%d" % a.numerator if a.numerator != 1 else "") \
                + ("r" if k == 1 else "r^%d" % k) \
                + ("/%d" % a.denominator if a.denominator != 1 else "")
        out += ("-" if c < 0 else "+" if out else "") + s
    return out or "0"


class RationalFunction:
    """Quotient of two coprime integer polynomials whose coefficients have
    gcd 1, with a positive leading coefficient in the denominator.  The
    zero function is ``0/1``.  ``coprime=True`` skips the gcd of a coprime pair."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, coprime: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly([1])
        elif not coprime:
            g = poly_gcd(num, den)
            num, den = num.exact_div(g), den.exact_div(g)
        self.num, self.den = _primitive(num, den)

    def series(self, n: int) -> Tuple[Fraction, ...]:
        """First ``n + 1`` Taylor coefficients at 0; needs ``den(0) != 0``."""
        num, den = self.num.c, self.den.c
        d0 = den[0]
        if d0 == 0:
            raise ValueError("series expansion needs den(0) != 0")
        # s[j] = d0**(j+1) * (coefficient j) is an integer, and
        # s[j] = num[j] d0**j - sum_i den[i] d0**(i-1) s[j-i].
        pw = [d0**k for k in range(n + 2)]
        w = [den[i] * pw[i - 1] for i in range(1, len(den))]
        s = []
        for j in range(n + 1):
            acc = num[j] * pw[j] if j < len(num) else 0
            for i in range(1, min(j, len(w)) + 1):
                acc -= w[i - 1] * s[j - i]
            s.append(acc)
        return tuple(Fraction(v, pw[j + 1]) for j, v in enumerate(s))

    def eval(self, r) -> Fraction:
        d = self.den.eval(r)
        if d == 0:
            raise ValueError("pole at r=%s" % (r,))
        return self.num.eval(r) / d

    def display(self) -> str:
        """Human form with the denominator scaled to constant term 1, or to
        leading coefficient 1 when its constant term is 0."""
        scale = self.den.c[0] or self.den.c[-1]
        num, den = (poly_str([Fraction(c, scale) for c in p.c]) for p in (self.num, self.den))
        if self.den.degree == 0:
            return num
        return "(%s)/(%s)" % (num, den)


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
        """Every state reaches every state, itself included, within n steps."""
        powers = self._powers(self.n)
        return all(any(a[i][j] for a in powers)
                   for i in range(self.n) for j in range(self.n))

    @cached_property
    def _scaled(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        return _scale_rows(self.rows)

    @cached_property
    def _det_adj(self) -> Tuple[Poly, Tuple[Tuple[Poly, ...], ...]]:
        bits = self._scaled[0].bit_length()
        if bits > MAX_POWER_BITS:
            raise ValueError("the resolvent of a chain with a %d-bit common denominator "
                             "is over the cap of %d bits" % (bits, MAX_POWER_BITS))
        extra = (self.n + 1).bit_length()
        cost = self.n**3 * (bits + extra)
        if cost > MAX_ELIMINATION_COST:
            raise ValueError("the resolvent of a %d-state chain with a %d-bit "
                             "common denominator costs n^3*(bits+%d) = %d, over "
                             "the cap of %d" % (self.n, bits, extra, cost,
                                                MAX_ELIMINATION_COST))
        return _det_adjugate(self.rows)

    @cached_property
    def _power_memo(self) -> list:
        """``[A^1, ..., A^m]`` for the largest m read."""
        return [self._scaled[1]]

    def _powers(self, n: int) -> List[Tuple[Tuple[int, ...], ...]]:
        """``A^1 .. A^n``, extending the memoised running product."""
        memo = self._power_memo
        while len(memo) < n:
            memo.append(_mat_mul(memo[-1], memo[0]))
        return memo[:n]


def _scale_rows(rows) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """``(D, A)`` with ``rows = A/D``, from ``core.scale_to_integers``."""
    d, a = scale_to_integers(p for row in rows for p in row)
    return d, tuple(zip(*[iter(a)] * len(rows)))


def _det_adjugate(rows) -> Tuple[Poly, Tuple[Tuple[Poly, ...], ...]]:
    """``det(D*I - rA)`` and ``D * adj(D*I - rA)``, whose quotient is
    ``(I - rP)^-1``, by evaluation and interpolation over the integers.

    With ``M = n + 1``, the integer matrix ``C_k = D*M*I - kA`` is ``M``
    times ``D*I - rA`` at ``r = k/M``, so ``det C_k`` and ``adj C_k`` are
    the wanted polynomials at that point, scaled by ``M**n`` and
    ``M**(n-1)``.  They come from one scalar Gauss-Jordan elimination per
    ``k = 0..n``; each entry is then interpolated in ``k``.
    """
    d, a = _scale_rows(rows)
    n = len(a)
    m = n + 1
    dets, adjs = [], []
    for k in range(n + 1):
        det, adj = _gauss_jordan([[d * m * (i == j) - k * a[i][j] for j in range(n)]
                                  for i in range(n)])
        dets.append([det])
        adjs.append([x for row in adj for x in row])
    det = Poly([c[0] for c in _interpolate(dets, m)])
    adj = _interpolate(adjs[:n], m)
    return det, tuple(tuple(Poly([c[i * n + j] * d for c in adj]) for j in range(n))
                      for i in range(n))


def _exact_quotients(values: List[int], divisor: int) -> List[int]:
    """``[v // divisor for v in values]``, or ``ArithmeticError`` unless every
    division is exact."""
    q = [v // divisor for v in values]
    # Floor division leaves remainders of one sign: they all vanish iff their sum does.
    if sum(values) != divisor * sum(q):
        raise ArithmeticError("an exact division by %d left a remainder" % divisor)
    return q


def _gauss_jordan(c: List[List[int]]) -> Tuple[int, List[List[int]]]:
    """``det(c)`` and ``adj(c)`` of an integer matrix by fraction-free
    Gauss-Jordan elimination (Bareiss 1968), in place: once column ``k`` is
    eliminated it holds column ``k`` of the adjugate.

    No pivoting is needed for the matrices of ``_det_adjugate``: they are
    ``D*M`` times ``I - rP`` with ``0 <= r < 1``, whose leading principal
    submatrices are strictly diagonally dominant (Levy-Desplanques), so
    every pivot, a leading principal minor, is nonzero.
    """
    prev = 1
    for k, pivot_row in enumerate(c):
        pivot = pivot_row[k]
        for i, row in enumerate(c):
            if i != k:
                factor = row[k]
                c[i] = _exact_quotients([pivot * x - factor * y
                                         for x, y in zip(row, pivot_row)], prev)
                c[i][k] = -factor
        pivot_row[k] = prev
        prev = pivot
    return prev, c


def _interpolate(values: List[List[int]], m: int) -> List[List[int]]:
    """Coefficients ``c_0..c_deg`` (each a vector, like the values) of the
    integer polynomials ``p`` with ``values[k] = m**deg * p(k/m)`` for
    ``k = 0..deg``.

    Newton's forward differences ``Delta^j q(0) / j!`` of ``q(k) = m**deg
    p(k/m)``, an integer polynomial, are integers; the falling factorial
    form expands to ``q``'s coefficients ``c_j * m**(deg-j)`` by Horner's rule.
    """
    deg = len(values) - 1
    b = list(values)
    for j in range(1, deg + 1):
        for i in range(deg, j - 1, -1):
            b[i] = [x - y for x, y in zip(b[i], b[i - 1])]
    b = [_exact_quotients(v, math.factorial(j)) for j, v in enumerate(b)]
    q = [b[deg]]
    for j in reversed(range(deg)):  # q <- q * (k - j) + b[j]
        q = [[x - j * y for x, y in zip(lo, hi)]
             for lo, hi in zip([b[j]] + q, q)] + [q[-1]]
    return [_exact_quotients(v, m**(deg - t)) for t, v in enumerate(q)]


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _check_power_bits(P: TransitionMatrix, n: int) -> None:
    """Reject ``P^n`` before any power is built if ``D**n`` is too large."""
    bits = n * P._scaled[0].bit_length()
    if bits > MAX_POWER_BITS:
        raise ValueError("%d steps of a chain with common denominator %d need "
                         "%d-bit powers, over the cap of %d bits"
                         % (n, P._scaled[0], bits, MAX_POWER_BITS))


def n_step(P: TransitionMatrix, n: int):
    """Exact ``n``-step transition matrix as nested Fraction tuples."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    _check_power_bits(P, n)
    d, base = P._scaled
    out = tuple(tuple(int(i == j) for j in range(P.n)) for i in range(P.n))
    k = n
    while k:
        if k & 1:
            out = _mat_mul(out, base)
        k >>= 1
        if k:
            base = _mat_mul(base, base)
    scale = d**n
    return tuple(tuple(Fraction(x, scale) for x in row) for row in out)


def first_return(P: TransitionMatrix, i: int, n_max: int) -> Tuple[Fraction, ...]:
    """First-return probabilities ``theta^(1..n_max)`` to state ``i``, exact.

    Computed by peeling the renewal identity: the n-step return splits
    over the time of first return, so
    ``theta^(n) = P^n_{i,i} - sum_{m=1}^{n-1} theta^(m) P^(n-m)_{i,i}``.
    Scaled by ``D**n``, it runs on the integer diagonals of ``A^n``.
    """
    if not 0 <= i < P.n:
        raise ValueError("state index out of range")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_power_bits(P, n_max)
    diag = [1] + [a[i][i] for a in P._powers(n_max)]
    theta = []
    for n in range(1, n_max + 1):
        theta.append(diag[n] - sum(theta[m - 1] * diag[n - m] for m in range(1, n)))
    d = P._scaled[0]
    return tuple(Fraction(t, d**n) for n, t in enumerate(theta, start=1))


def resolvent(P: TransitionMatrix, i: int, j: int) -> RationalFunction:
    """Entry ``[(I - rP)^-1]_{i,j}`` as a reduced rational function of ``r``.

    Both parts of the entry come from one determinant and adjugate per
    ``TransitionMatrix`` (``_det_adjugate``), memoised on the object, so a
    sweep over all entries of one chain computes them once.
    """
    if not (0 <= i < P.n and 0 <= j < P.n):
        raise ValueError("state index out of range")
    det, adj = P._det_adj
    return RationalFunction(adj[i][j], det)


def theta_gf(P: TransitionMatrix, i: int) -> RationalFunction:
    """First-return generating function ``Theta_{i,i}(r) = 1 - 1/P_{i,i}(r)``."""
    return _theta(resolvent(P, i, i))


def _theta(pii: RationalFunction) -> RationalFunction:
    """``1 - 1/P_{i,i}(r)`` from the reduced ``P_{i,i}``: ``gcd(num - den, num) = 1``."""
    return RationalFunction(pii.num - pii.den, pii.num, coprime=True)


def _horner(coeffs: Sequence[float], z: complex) -> complex:
    """Value at ``z`` of the polynomial with descending ``coeffs``."""
    out = 0j
    for c in coeffs:
        out = out * z + c
    return out


def radius_of_convergence(rf: RationalFunction) -> float:
    """Smallest pole magnitude of the reduced function; ``inf`` if entire."""
    den = rf.den
    if den.degree < 1:
        return math.inf
    # Root finding and Newton run on the monic denominator and its
    # derivative, each coefficient rounded once from its exact value.
    lead = den.c[-1]
    monic = [c / lead for c in reversed(den.c)]
    deriv = [k * c / lead for k, c in enumerate(den.c)][:0:-1]
    best = math.inf
    for z in np.roots(monic):
        z = complex(z)
        for _ in range(NEWTON_STEPS):
            d = _horner(deriv, z)
            if d == 0:
                break
            step = _horner(monic, z) / d
            z -= step
            if abs(step) < NEWTON_TOL:
                break
        best = min(best, abs(z))
    return best


def period(P: TransitionMatrix, i: int) -> int:
    """gcd of feasible return times to ``i``; 0 when no return occurs.

    Simple cycles through ``i`` have length at most the state count and
    generate the semigroup of return times, so scanning that many powers
    is sufficient.
    """
    if not 0 <= i < P.n:
        raise ValueError("state index out of range")
    g = 0
    for n, a in enumerate(P._powers(P.n), start=1):
        if a[i][i]:
            g = math.gcd(g, n)
    return g


def markov_report(P: TransitionMatrix, i: int, series_terms: int = 8) -> dict:
    """Generating functions, series prefix, and pole radius for one state."""
    series = list(first_return(P, i, series_terms))
    pii = resolvent(P, i, i)
    theta = _theta(pii)
    irreducible = P.is_irreducible()
    at_1 = theta.eval(Fraction(1)) if irreducible else Fraction(0)
    # Each printed numerator and denominator divides one of these integers.
    widest = max(map(abs, (*pii.num.c, *pii.den.c, *theta.num.c, *theta.den.c,
                           at_1.numerator, at_1.denominator)))
    if widest >= 10**MAX_PRINTED_DIGITS:
        raise ValueError("the report of a %d-state chain with a %d-bit common "
                         "denominator prints a %d-bit integer, over the cap of %d "
                         "decimal digits" % (P.n, P._scaled[0].bit_length(),
                                             widest.bit_length(), MAX_PRINTED_DIGITS))
    report = {
        "state": i,
        "P_gf": pii.display(),
        "Theta_gf": theta.display(),
        "theta_series": series,
        "radius": radius_of_convergence(theta),
        "period": period(P, i),
        "irreducible": irreducible,
    }
    if irreducible:
        report["theta_at_1"] = at_1
    return report
