"""Universal hash families over prime fields and exact key-uniformity bounds.

Symbols are integers in ``[0, q**m)`` identified with little-endian base-q
digit vectors (digit 0 is the least significant).  A family is its one
``(|G|, q**m)`` lookup table, built by linearity (the key digits of
``x + d q**j`` are those of ``x`` plus ``d`` times matrix column ``j``, mod
q) and held as the only copy; ``HashFamily.maps`` rebuilds it as int
tuples on each read, for reference code.  Probabilities are integer sums:
each (key, member) cell of the joint law sums the input law's integer
numerators over ``|G| D`` (``D`` its denominator) as float64 limbs small
enough to be exact in any order (``_limbs``; Ozaki, Ogita, Oishi and Rump
2012), the cells are held as one read-only integer array (int64 where a
bound on the state's sizes lets every readout fit, else Python ints), and
distances and collision probabilities are integer sums turned into a
``Fraction`` once.  Bound comparisons are exact, with square-form
comparisons used wherever the bound itself is an irrational square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import FiniteDistribution

# Family enumeration cap: q**(m*k) members for the all-linear kind.
MAX_FAMILY_SIZE = 2**20
# Lookup-table cap for the enumerated kinds: |G| * q**m cells.
MAX_TABLE_CELLS = 2**22
# Largest |h_plus| * log2(q) admitted as an entropy floor.  A squared bound
# adds at most q**k <= 2**22 (MAX_TABLE_CELLS), so every floor q**-h_plus,
# bound and square stays below 2**1024: a finite float, and a Fraction well
# inside CPython's 4300-digit limit on printing an int.
MAX_FLOOR_BITS = 1000
# Table cells per step of an exact pushforward, so that no temporary grows
# with the family.  The four hash-scale reports on Toeplitz (2, 8, 3) and
# (3, 5, 2) take 14.7 ms in steps of 2**12 cells, 10.9 ms at 2**14, 10.4 ms
# at 2**15, 10.8 ms at 2**16 and 12.5 ms at 2**17 (medians of 25 passes,
# 2-core host); (2, 8, 3) then takes 8 steps of 128 members, not 64 of 16.
CHUNK_CELLS = 2**15
# A joint law's counts are int64 when ``(q**k * denominator)**2`` and
# ``counts.size * denominator`` are below this: every sum its readouts take
# then fits (``_set_counts``).  A side-register column's limbs are summed in
# int64 under the same bound (``quantum.CqKeyState._wide``).
INT64_BOUND = 2**63
# One-byte key digits made per step of a table build: Toeplitz (2, 10, 3)
# builds ~10x faster than in steps of 2**12 cells; larger steps gain little.
_BUILD_DIGITS = 2**17


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _check_shape(q: int, m: int, k: int) -> None:
    if not _is_prime(q):
        raise ValueError("alphabet size must be prime, got %d" % q)
    if k < 1 or m < k:
        raise ValueError("need m >= k >= 1, got m=%d k=%d" % (m, k))


@dataclass(frozen=True, eq=False)
class HashFamily:
    """Finite family of maps ``[0, q**m) -> [0, q**k)`` with uniform seeding.

    ``table[g, x]`` is the output of member ``g`` on symbol ``x``: one
    read-only ``(|G|, q**m)`` array of the narrowest unsigned dtype, and
    the family's only copy.  ``zeta`` is ``log_q |G|`` when that is exact
    (all enumerated kinds), else None; bound formulas use ``1/|G|``
    directly so an inexact zeta never enters the arithmetic.
    """

    q: int
    m: int
    k: int
    kind: str
    table: np.ndarray

    def __post_init__(self):
        _check_shape(self.q, self.m, self.k)
        table = np.asarray(self.table)
        if not table.size:
            raise ValueError("family must be nonempty")
        if table.ndim != 2 or table.shape[1] != self.q**self.m:
            raise ValueError("each map needs %d entries" % self.q**self.m)
        n_out = self.q**self.k
        if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= n_out:
            raise ValueError("map output out of range [0, %d)" % n_out)
        narrow = np.min_scalar_type(n_out - 1)
        if table.dtype != narrow or table.flags.writeable or not table.flags.owndata:
            # A private copy: nobody else can write the validated outputs.
            table = table.astype(narrow)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def maps(self) -> Tuple[Tuple[int, ...], ...]:
        """``table`` as a tuple of int tuples, built anew on each read."""
        return tuple(map(tuple, self.table.tolist()))

    @property
    def group_size(self) -> int:
        return len(self.table)

    @property
    def zeta(self) -> Optional[Fraction]:
        # Exact log_q |G| exists iff |G| is a power of q.
        e = round(math.log(self.group_size, self.q))
        return Fraction(e) if self.q**e == self.group_size else None


def _member_tables(kind: str, q: int, m: int, k: int, n_params: int) -> np.ndarray:
    """Lookup tables of all ``q**n_params`` members, in ``itertools.product`` order.

    Member ``g`` has the base-q digits of ``g``, most significant first, as
    its parameters: the k x m matrix row by row ("linear"), or the
    diagonals ``T[i][j] = params[i - j + m - 1]`` ("toeplitz").
    """
    n_in = q**m
    size = q**n_params
    place = q ** np.arange(n_params - 1, -1, -1, dtype=np.int64)
    diagonals = np.arange(k)[:, None] - np.arange(m) + m - 1
    digit = np.min_scalar_type(2 * q - 2)
    out = np.empty((size, n_in), dtype=np.min_scalar_type(q**k - 1))
    step = max(1, _BUILD_DIGITS // (k * n_in))
    for lo in range(0, size, step):
        params = np.arange(lo, min(size, lo + step))[:, None] // place % q
        matrices = (params.reshape(-1, k, m) if kind == "linear"
                    else params[:, diagonals]).astype(digit)
        digits = np.zeros((n_in, k, len(params)), dtype=digit)   # [x, i, g]
        for j in range(m):
            span, column = q**j, matrices[:, :, j].T
            for d in range(1, q):
                part = digits[d * span:(d + 1) * span]
                np.add(digits[(d - 1) * span:d * span], column, out=part)
                # Unsigned wrap-around: part - q is the smaller iff part >= q.
                np.minimum(part, part - digit.type(q), out=part)
        keys = digits[:, k - 1].astype(out.dtype)
        for i in range(k - 2, -1, -1):
            keys *= q
            keys += digits[:, i]
        out[lo:lo + len(params)] = keys.T
    out.flags.writeable = False  # HashFamily keeps it without a copy
    return out


def build_family(kind: str, q: int, m: int, k: int) -> HashFamily:
    """Enumerate a hash family.

    Parameters
    ----------
    kind : {"linear", "toeplitz"}
        "linear" enumerates every k x m matrix over GF(q); "toeplitz"
        enumerates the q**(m+k-1) Toeplitz matrices.  Both are capped at
        ``MAX_FAMILY_SIZE`` members and ``MAX_TABLE_CELLS`` table cells.
    q : int
        Prime base alphabet size.
    m, k : int
        Input and output string lengths, m >= k >= 1.
    """
    q = int(q)
    if kind not in ("linear", "toeplitz"):
        raise ValueError("unknown family kind %r" % kind)
    _check_shape(q, m, k)
    n_params = m * k if kind == "linear" else m + k - 1
    size = q**n_params
    label = "all-linear" if kind == "linear" else "Toeplitz"
    if size > MAX_FAMILY_SIZE:
        raise ValueError("%s family of size %d exceeds cap" % (label, size))
    if size * q**m > MAX_TABLE_CELLS:
        raise ValueError("%s family table of %d cells exceeds cap %d"
                         % (label, size * q**m, MAX_TABLE_CELLS))
    return HashFamily(q, m, k, kind, _member_tables(kind, q, m, k, n_params))


@dataclass(frozen=True, eq=False)
class JointKeyState:
    """Exact joint law of (hashed key, family member).

    ``P_KG(kappa, g) = (1/|G|) sum_{x: g(x)=kappa} P_X(x)``, held as integer
    ``counts[kappa, g]`` over one ``denominator``: a read-only ``(q**k, |G|)``
    array, of the dtype ``_set_counts`` picks.  The member marginal is
    uniform by construction; validated on creation.  Readouts return Python
    ints and Fractions of them on either dtype.
    """

    q: int
    k: int
    counts: np.ndarray
    denominator: int

    def __post_init__(self):
        counts = _set_counts(self)
        if (counts < 0).any():
            raise ValueError("joint weights must be nonnegative")
        per_g = counts.sum(axis=0)
        if per_g.sum() != self.denominator:
            raise ValueError("joint weights must sum to exactly 1")
        if (self.group_size * per_g != self.denominator).any():
            raise ValueError("member marginal must be exactly uniform")

    @property
    def group_size(self) -> int:
        return self.counts.shape[1]

    def distance(self) -> Fraction:
        """``(1/q) sum_{kappa,g} |P_KG(kappa,g) - q**-k/|G||``.

        Over the common denominator a cell contributes
        ``|q**k c - denominator/|G|| / (q**k denominator)``.
        """
        n_out = self.q**self.k
        share = self.denominator // self.group_size
        gap = int(sum(np.abs(n_out * row - share).sum() for row in self.counts))
        return Fraction(gap, self.q * n_out * self.denominator)

    def collision_probability(self) -> Fraction:
        """``sum_{kappa,g} P_KG(kappa,g)**2``."""
        squares = int(sum((row * row).sum() for row in self.counts))
        return Fraction(squares, self.denominator**2)


def _set_counts(state) -> np.ndarray:
    """Set ``state.counts`` to a read-only array of 2 axes and one row per
    key, kept if it already is one of the right dtype that owns its data,
    else copied.

    Counts are int64 when
    ``(q**k * denominator)**2`` and ``counts.size * denominator`` are both
    below ``INT64_BOUND`` and they are integers in
    ``[0, denominator]`` summing to at most ``denominator``, as a state's
    cells do; else Python ints.  On a valid state every readout's sums are
    then below ``(q**k * denominator)**2`` (``|G|`` divides the denominator),
    and counts outside the rule, valid or not, are never wrapped to int64.
    A count that is not an integer is refused (``_integer_counts``).
    """
    counts = _integer_counts(state.counts)
    dtype = object
    den = state.denominator
    if ((state.q**state.k * den)**2 < INT64_BOUND and counts.size * den < INT64_BOUND
            and counts.size and 0 <= counts.min() and counts.max() <= den):
        wide = counts.astype(np.int64, copy=False)  # in range: only non-integers change
        if (wide is counts or (wide == counts).all()) and wide.sum() <= den:
            counts, dtype = wide, np.int64
    if counts.dtype != dtype or counts.flags.writeable or not counts.flags.owndata:
        counts = counts.astype(dtype)
    counts.flags.writeable = False
    _check_rows(state, counts, 2)
    object.__setattr__(state, "counts", counts)
    return counts


def _integer_counts(counts) -> np.ndarray:
    """``counts`` as an array; a count that is not an integer, such as a float
    or a Fraction, is refused by its index."""
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu" and not all(
            issubclass(t, Integral) for t in set(map(type, counts.ravel().tolist()))):
        at, c = next((i, c) for i, c in np.ndenumerate(counts) if not isinstance(c, Integral))
        raise ValueError("count %s is %s %s, not an integer" % (list(at), type(c).__name__, c))
    return counts


def _check_rows(state, counts: np.ndarray, ndim: int) -> None:
    """Refuse ``counts`` unless they have ``ndim`` axes and one row per key."""
    if counts.ndim != ndim or len(counts) != state.q**state.k:
        raise ValueError("counts need %d axes and one row per key, got shape %s"
                         % (ndim, counts.shape))


def _require_exact(f: FiniteDistribution):
    if not f.exact:
        raise ValueError("hashing requires an exact rational distribution; "
                         "build weights from Fractions or 'num/den' strings")


def _limb_shape(top: int, n_terms: int) -> Tuple[int, int]:
    """``(bits, n_limbs)`` for ints up to ``top``: ``53 - (n_terms - 1).bit_length()``
    bits a limb keep any sum of ``n_terms`` limbs below ``2**53``, exact in any order."""
    bits = 53 - (n_terms - 1).bit_length()
    return bits, max(1, -(-top.bit_length() // bits))


def _limbs(values, n_terms: int) -> Tuple[np.ndarray, int]:
    """Nonnegative ints as float64 limbs on a new last axis, and their width."""
    values = np.asarray(values, dtype=object)
    bits, n_limbs = _limb_shape(int(values.max()), n_terms)
    return np.stack([((values >> (bits * j)) & ((1 << bits) - 1)).astype(float)
                     for j in range(n_limbs)], axis=-1), bits


def _join_limbs(sums: np.ndarray, bits: int) -> np.ndarray:
    """Integers from limb sums: int64 from one limb (each sum is below
    ``2**53``), else Python ints, made one leading block at a time, so that
    their temporaries stay small."""
    if sums.shape[-1] == 1:
        return sums[..., 0].astype(np.int64)
    out = np.empty(sums.shape[:-1], dtype=object)
    for i, block in enumerate(sums):
        limbs = block.astype(np.int64).astype(object)
        out[i] = sum((limbs[..., j] << (bits * j) for j in range(1, limbs.shape[-1])),
                     limbs[..., 0])
    return out


def _cell_sums(table: np.ndarray, values: Sequence[int], n_out: int) -> np.ndarray:
    """``out[kappa, g] = sum_{x: table[g, x] = kappa} values[x]`` for nonnegative
    ints, exact: one ``np.bincount`` of float64 limbs per limb and block of members."""
    size, n_in = table.shape
    limbs, bits = _limbs(values, n_in)
    sums = np.empty((n_out, size, limbs.shape[1]))
    step = max(1, CHUNK_CELLS // n_in)
    for lo in range(0, size, step):
        rows = table[lo:lo + step]
        cells = (rows + n_out * np.arange(len(rows))[:, None]).ravel()
        for j, limb in enumerate(limbs.T):
            sums[:, lo:lo + len(rows), j] = np.bincount(
                cells, np.tile(limb, len(rows)), n_out * len(rows)
            ).reshape(len(rows), n_out).T
    return _join_limbs(sums, bits)


def joint_state(f: FiniteDistribution, family: HashFamily) -> JointKeyState:
    """Joint law of key and member under uniform member choice, exact.

    The integer numerators of ``f`` are pushed forward as sums per
    (key, member) cell, over ``|G| D``.
    """
    _require_exact(f)
    if f.alphabet.num_symbols != family.q**family.m:
        raise ValueError("distribution does not match the family input alphabet")
    sums = _cell_sums(family.table, f.numerators, family.q**family.k)
    sums.flags.writeable = False  # JointKeyState keeps it without a copy
    return JointKeyState(family.q, family.k, sums, family.group_size * f.denominator)


def lhl_distance(f: FiniteDistribution, family: HashFamily) -> Fraction:
    """Distance of (key, member) from (uniform key, member), exact.

    ``(1/q) * sum_{kappa,g} | P_KG(kappa,g) - q**-k / |G| |``; the ``1/q``
    prefactor is the inverse alphabet size carried by the norm convention.
    """
    return joint_state(f, family).distance()


def _entropy_floor(q: int, h_plus, default) -> Tuple[object, float]:
    """``(q**-h_plus, h_plus as a float)`` for an entropy floor.

    ``default`` is the ``q**-h_min`` taken when ``h_plus`` is None.  An
    integer ``h_plus`` gives a ``Fraction``, any other value a float.
    """
    if h_plus is None:
        return default, -math.log(float(default)) / math.log(q)
    _check_bits(q, "h_plus", h_plus)
    whole = Fraction(h_plus)
    if whole.denominator == 1:
        return Fraction(q) ** -whole.numerator, float(h_plus)
    return float(q) ** -float(h_plus), float(h_plus)


def _check_bits(q: int, name: str, value) -> None:
    """Refuse an exponent ``name`` of ``q`` with ``|value| log2 q`` above
    ``MAX_FLOOR_BITS``, NaN and infinities."""
    if not abs(value) <= MAX_FLOOR_BITS / math.log2(q):
        raise ValueError("%s=%s out of range: |%s| log2(q) exceeds %d"
                         % (name, value, name, MAX_FLOOR_BITS))


def _bound_verdict(dist, q: int, k: int, floor) -> Tuple[bool, bool]:
    """``(dist**2 <= q**k * floor, exact)``: ``dist`` against ``q**-((h_plus-k)/2)``.

    Exact when ``dist`` and ``floor`` are both Fractions, else in floats.
    """
    exact = isinstance(dist, Fraction) and isinstance(floor, Fraction)
    bound_sq = Fraction(q**k) * floor if exact else float(q**k) * float(floor)
    return bool(dist * dist <= bound_sq), exact


def lhl_bound(q: int, k: int, h_plus) -> float:
    """Float value of ``q**-((h_plus - k)/2)``; refuses the ``h_plus`` that
    the entropy floor refuses, and a ``k`` that is not an integer >= 1 or
    whose ``k log2 q`` exceeds ``MAX_FLOOR_BITS``."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k=%s out of range: need an integer k >= 1" % (k,))
    _check_bits(q, "k", k)
    _check_bits(q, "h_plus", h_plus)
    return float(q) ** (-(float(h_plus) - k) / 2.0)


def lhl_report(f: FiniteDistribution, family: HashFamily,
               h_plus=None) -> dict:
    """Distance, collision probability, bounds, and exact verdicts.

    Distance and collision probability are read from one joint law.

    The distance bound ``q**-((h_plus-k)/2)`` is checked in squared form,
    as is each step of the tightening chain

    ``distance <= q**(k/2-1) sqrt(|G| P_col - q**-k) <= q**((k-h_plus)/2-1)``.

    The squares are rationals when ``h_plus`` is an integer or the default
    ``h_min``, else floats (``exact_comparison`` false).  ``precondition_met``
    records ``h_plus <= h_min`` (the entropy floor assumption).
    """
    _require_exact(f)
    q, k = family.q, family.k
    size = family.group_size
    max_w = Fraction(f.numerators.max(), f.denominator)
    floor, h_val = _entropy_floor(q, h_plus, max_w)
    js = joint_state(f, family)
    dist = js.distance()
    pcol = js.collision_probability()
    qk = Fraction(1, q**k)
    satisfied, exact = _bound_verdict(dist, q, k, floor)
    # Chain middle term, squared: q**(k-2) * (|G| P_col - q**-k).
    mid_sq = Fraction(q**k, q**2) * (size * pcol - qk)
    col_bound = (qk + floor) / size
    return {
        "q": q,
        "m": family.m,
        "k": k,
        "kind": family.kind,
        "group_size": size,
        "zeta": family.zeta,
        "distance": dist,
        "bound": lhl_bound(q, k, h_val),
        "satisfied": satisfied,
        "collision_probability": pcol,
        "collision_bound": col_bound,
        "collision_satisfied": pcol <= col_bound,
        "chain_cauchy_schwarz": dist * dist <= mid_sq,
        "chain_tail": mid_sq <= Fraction(q**k, q**2) * floor,
        # q**-h_plus >= max P  <=>  h_plus <= h_min
        "precondition_met": floor >= max_w,
        "exact_comparison": exact,
    }
