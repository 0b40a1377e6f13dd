"""Exact hashed-key kernels against per-cell Python loops.

The kernels sum integers as float64 limbs (``hashing._limbs``); every test
here compares them with plain Python-int loops on seeded inputs that need
one, two and three limbs.  The table builder is compared with a per-member
``M @ digits % q`` product.  Float ensembles run on the same limb kernel as
integers over one power of two: their blocks and distance are compared with
a ``Fraction`` reference built from the float diagonals, and their distance,
diagonals and ``e_opt`` with a copy of the earlier float code, kept below.
The state classes hold their counts as one read-only array, int64 or Python
ints by a bound on their sizes, and read their sizes from its shape;
readouts are compared with the loops on both sides of that bound.
"""

import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kdcheck import hashing, quantum, verify
from kdcheck.cli import main
from kdcheck.core import Alphabet, FiniteDistribution, StateDensity
from kdcheck.hashing import MAX_TABLE_CELLS, HashFamily, build_family
from kdcheck.quantum import CqKeyState, Ensemble, hashed_joint_blocks, tripartite_distance
from kdcheck.verify import random_diagonal_ensemble, rotate_ensemble


# ---------------------------------------------------------------------------
# Per-cell references
# ---------------------------------------------------------------------------

def prior_fractions(ens):
    return [Fraction(n, ens.prior.denominator) for n in ens.prior.numerators]


def ref_key_blocks(table, numerators, n_out):
    """``out[kappa][g][i] = sum_{x: table[g, x] = kappa} numerators[x][i]``."""
    dim = len(numerators[0])
    out = [[[0] * dim for _ in range(len(table))] for _ in range(n_out)]
    for g, row in enumerate(table.tolist()):
        for x, kappa in enumerate(row):
            for i, v in enumerate(numerators[x]):
                out[kappa][g][i] += v
    return out


def ref_cell_sums(table, values, n_out):
    return [[cell[0] for cell in row]
            for row in ref_key_blocks(table, [(v,) for v in values], n_out)]


def ref_tripartite(counts, q, k, denominator):
    """``(1/q) sum || block - q**-k (1/|G|) T_Q ||_1`` on Fractions, cell by cell."""
    size, dim = len(counts[0]), len(counts[0][0])
    side = [sum(b[i] for row in counts for b in row) for i in range(dim)]
    total = Fraction(0)
    for row in counts:
        for b in row:
            for c, t in zip(b, side):
                total += abs(Fraction(c, denominator)
                             - Fraction(t, q**k * size * denominator))
    return total / q


def exact_state(counts, q, k, denominator):
    return CqKeyState(q, k, np.array(counts, dtype=object), denominator)


def sampled_family(q, m, k, members, rng):
    """An explicit family of ``members`` random maps on ``q**m`` symbols."""
    table = rng.integers(0, q**k, size=(members, q**m))
    return HashFamily(q, m, k, "explicit", table)


def limb_count(values, n_in):
    return hashing._limbs(values, n_in)[0].shape[-1]


def _draw(rng, n, dim, bits):
    """``n`` tuples of ``dim`` random ints below ``2**bits``."""
    def one():
        return int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
    return [tuple(one() for _ in range(dim)) for _ in range(n)]


# (q, m, k, members, numerator bits, limbs).  A limb holds 52 bits for
# q**m = 2, 46 bits for q**m in {81, 125} and 43 bits for q**m = 1024.
CASES = [
    # q**m = 2: one, two and three limbs of 52 bits
    (2, 1, 1, 2, 40, 1), (2, 1, 1, 2, 90, 2), (2, 1, 1, 2, 140, 3),
    # q**m = 1024: one, two and three limbs of 43 bits
    (2, 10, 3, 12, 40, 1), (2, 10, 3, 12, 80, 2), (2, 10, 3, 12, 120, 3),
    # odd primes, numerators above 2**63
    (3, 4, 2, 20, 70, 2), (5, 3, 1, 9, 100, 3),
]


@pytest.mark.parametrize("q,m,k,members,bits,limbs", CASES)
def test_exact_key_blocks_and_cell_sums_match_loops(q, m, k, members, bits, limbs):
    rng = np.random.default_rng(bits * 1000 + q * 10 + m)
    fam = sampled_family(q, m, k, members, rng)
    n_in, n_out = q**m, q**k
    numerators = _draw(rng, n_in, 3, bits)
    numerators[1] = (0, 0, 0)                       # a symbol of weight zero
    numerators = [(a, 0, c) for a, _, c in numerators]   # a zero column
    assert limb_count(numerators, n_in) == limbs
    got = quantum._exact_key_blocks(fam.table, numerators, n_out)
    ref = ref_key_blocks(fam.table, numerators, n_out)
    assert got.tolist() == ref
    assert all(type(v) is int for row in got.tolist() for b in row for v in b)
    values = [a for a, _, _ in numerators]
    assert hashing._cell_sums(fam.table, values, n_out).tolist() \
        == ref_cell_sums(fam.table, values, n_out)


@pytest.mark.parametrize("values,limbs", [
    ((2**52 + 5, 2**52 - 6), 2),      # one cell sums to 2**53 - 1
    ((2**52 + 1, 2**52), 2),          # one cell sums to 2**53 + 1
    ((2**52 - 1, 2**52 - 1), 1),      # largest one-limb pair: 2**53 - 2
])
def test_cell_sums_around_two_to_the_53(values, limbs):
    # The zero map sends both symbols to key 0, so its cell holds the sum.
    fam = build_family("linear", 2, 1, 1)
    assert limb_count(values, 2) == limbs
    sums = hashing._cell_sums(fam.table, values, 2).tolist()
    assert sums == ref_cell_sums(fam.table, values, 2)
    assert sum(values) in sums[0]
    blocks = quantum._exact_key_blocks(fam.table, [(v,) for v in values], 2)
    assert blocks.tolist() == ref_key_blocks(fam.table, [(v,) for v in values], 2)


def test_full_width_limbs_at_1024_symbols():
    # 1024 limbs of 2**43 - 1 each: the largest exact one-limb cell sum.
    fam = HashFamily(2, 10, 1, "explicit", np.zeros((2, 1024), dtype=np.uint8))
    for value, limbs in ((2**43 - 1, 1), (2**43, 2)):
        values = [value] * 1024
        assert limb_count(values, 1024) == limbs
        sums = hashing._cell_sums(fam.table, values, 2).tolist()
        assert sums == [[1024 * value] * 2, [0, 0]]
        assert quantum._exact_key_blocks(fam.table, [(v,) for v in values], 2) \
            .tolist() == [[[1024 * value]] * 2, [[0]] * 2]


def int64_admitted(q, k, den):
    return (q**k * den)**2 < hashing.INT64_BOUND


def assert_python_ints(counts, value):
    assert all(type(c) is int for c in np.ravel(counts.tolist()).tolist())
    assert type(value.numerator) is int and type(value.denominator) is int


# CASES, whose sums need Python ints, and two whose counts are int64.
READOUT_CASES = CASES + [(2, 8, 3, 16, 4, 1), (3, 4, 2, 20, 6, 1)]


@pytest.mark.parametrize("q,m,k,members,bits,limbs", READOUT_CASES)
def test_side_register_readouts_match_loops(q, m, k, members, bits, limbs):
    rng = np.random.default_rng(bits * 77 + q + m)
    fam = sampled_family(q, m, k, members, rng)
    numerators = [(a, 0, c) for a, _, c in _draw(rng, q**m, 3, bits)]
    numerators[1] = (0, 0, 0)                        # a symbol of weight zero
    counts = ref_key_blocks(fam.table, numerators, q**k)
    den = members * sum(map(sum, numerators))
    for cq in (exact_state(counts, q, k, den),
               CqKeyState(q, k, quantum._exact_key_blocks(fam.table, numerators, q**k), den)):
        assert cq.counts.dtype == (np.int64 if int64_admitted(q, k, den) else object)
        dist = tripartite_distance(cq)
        assert dist == ref_tripartite(counts, q, k, den)
        assert_python_ints(cq.counts, dist)
        side = [sum(b[i] for row in counts for b in row) for i in range(3)]
        assert cq._side_counts().tolist() == side
        assert all(type(t) is int for t in cq._side_counts())
        assert side[1] == 0


@pytest.mark.parametrize("counts", [
    [[[1, 1]], [[1, 1]]],            # uniform: every entry equals its share
    [[[1, 3]], [[1, 1]]],            # column 0 tied, column 1 one above
    [[[2, 0], [2, 1]], [[2, 5], [2, 0]]],   # column 1 has c == t // s < t / s
    [[[1], [0], [2]], [[0], [3], [0]]],     # share 1: ties, zeros and excess
    [[[0, 0]], [[0, 6]]],            # a zero column
])
def test_tripartite_distance_on_ties(counts):
    total = sum(c for row in counts for b in row for c in b)
    ref = ref_tripartite(counts, 2, 1, total)
    for den in (total, 2**40 * total):      # int64 counts, then Python ints
        cq = exact_state(counts, 2, 1, den)
        assert cq.counts.dtype == (np.int64 if den == total else object)
        assert tripartite_distance(cq) * den == ref * total
    if all(c == counts[0][0][0] for row in counts for b in row for c in b):
        assert ref == 0


def test_int64_boundary_matches_python_ints():
    # (q**k * |G| D)**2 < 2**63 with q**k = |G| = 2: D = 759250124 is the
    # largest D admitted to int64 counts, D + 1 the first held as Python ints.
    fam = build_family("linear", 2, 1, 1)
    limit = math.isqrt(hashing.INT64_BOUND - 1)
    assert 4 * 759250124 <= limit < 4 * 759250125
    for den, dtype in ((759250124, np.int64), (759250125, object)):
        f = FiniteDistribution(Alphabet(2), (Fraction(1, den), Fraction(den - 1, den)))
        js = hashing.joint_state(f, fam)
        assert js.counts.dtype == dtype and js.denominator == 2 * den
        counts = ref_cell_sums(fam.table, [1, den - 1], 2)
        assert js.counts.tolist() == counts
        cells = [Fraction(c, 2 * den) for row in counts for c in row]
        dist, pcol = js.distance(), js.collision_probability()
        assert dist == sum(abs(c - Fraction(1, 4)) for c in cells) / 2
        assert pcol == sum(c * c for c in cells)
        assert_python_ints(js.counts, dist)
        assert type(pcol.numerator) is int
        # The same boundary on a side register: 2 * den is its denominator.
        side = exact_state([[[1], [1]], [[den - 1], [den - 1]]], 2, 1, 2 * den)
        assert side.counts.dtype == dtype
        d = tripartite_distance(side)
        assert d == ref_tripartite(side.counts.tolist(), 2, 1, 2 * den)
        assert_python_ints(side.counts, d)


WIDE = 2**70


@pytest.mark.parametrize("counts,den,message", [
    ([[-1], [2]], 1, "joint weights must be nonnegative"),
    ([[-WIDE], [WIDE + 1]], 1, "joint weights must be nonnegative"),
    ([[1], [1]], 3, "joint weights must sum to exactly 1"),
    ([[WIDE], [1]], 1, "joint weights must sum to exactly 1"),
    ([[2**62], [2**62]], 1, "joint weights must sum to exactly 1"),
    ([[2**63 - 1], [2**63 - 1]], 2, "joint weights must sum to exactly 1"),
    ([[1, 0], [1, 0]], 2, "member marginal must be exactly uniform"),
    ([[WIDE, 0], [0, 0]], WIDE, "member marginal must be exactly uniform"),
])
def test_joint_refusals_on_either_dtype(counts, den, message):
    forms = [np.array(counts, dtype=object)]
    if all(-2**63 <= c < 2**63 for row in counts for c in row):
        forms.append(np.array(counts, dtype=np.int64))
    if all(0 <= c < 2**64 for row in counts for c in row):
        forms.append(np.array(counts, dtype=np.uint64))
    for form in forms:
        with pytest.raises(ValueError, match="^%s$" % message):
            hashing.JointKeyState(2, 1, form, den)


def hash_scale_ensemble(seed=7, n=256, dim=3):
    """A rational side-register ensemble drawn as the hash-scale benchmark draws its own."""
    rng = np.random.default_rng(seed)
    raw = [int(r) for r in rng.integers(1, 33, size=n)]
    prior = FiniteDistribution(Alphabet(2, 8), tuple(Fraction(r, sum(raw)) for r in raw))
    states = []
    for _ in range(n):
        s = [int(r) for r in rng.integers(1, 16, size=dim)]
        states.append(StateDensity.from_diag(tuple(Fraction(r, sum(s)) for r in s)))
    return Ensemble(prior, states)


def test_hash_scale_ensemble_matches_loops():
    ens = hash_scale_ensemble()
    assert 63 < ens.denominator.bit_length() <= 86      # two 45-bit limbs
    assert limb_count(ens.numerators, 256) == 2
    full = build_family("toeplitz", 2, 8, 3)
    fam = HashFamily(2, 8, 3, "explicit", full.table[::16])   # 64 of 1024 members
    cq = hashed_joint_blocks(ens, fam)
    counts = ref_key_blocks(fam.table, ens.numerators, 8)
    assert cq.counts.tolist() == counts
    assert not cq.counts.flags.writeable
    assert cq.denominator == 64 * ens.denominator
    assert tripartite_distance(cq) == ref_tripartite(counts, 2, 3, cq.denominator)
    assert tuple(Fraction(t, cq.denominator) for t in cq._side_counts()) \
        == tuple(map(sum, zip(*(tuple(p * Fraction(n, st.denominator) for n in st.numerators)
                                for p, st in zip(prior_fractions(ens), ens.states)))))
    # A trivial side register reproduces the classical distance on the full family.
    trivial = Ensemble(ens.prior, [StateDensity.from_diag((Fraction(1),))] * 256)
    assert tripartite_distance(hashed_joint_blocks(trivial, full)) \
        == hashing.lhl_distance(ens.prior, full)


# ---------------------------------------------------------------------------
# Tables: per-member product reference
# ---------------------------------------------------------------------------

def ref_member_tables(kind, q, m, k):
    """Each member's table as ``key_place @ (M @ digits % q)``, member by member."""
    n_params = m * k if kind == "linear" else m + k - 1
    symbols = np.arange(q**m)
    digits = symbols // q ** np.arange(m)[:, None] % q
    key_place = q ** np.arange(k)
    rows = []
    for params in itertools.product(range(q), repeat=n_params):
        if kind == "linear":
            mat = np.array(params).reshape(k, m)
        else:
            mat = np.array([[params[i - j + m - 1] for j in range(m)] for i in range(k)])
        rows.append(key_place @ (mat @ digits % q))
    return np.array(rows, dtype=np.min_scalar_type(q**k - 1))


@pytest.mark.parametrize("kind,q,m,k", [
    ("linear", 2, 3, 2), ("linear", 2, 3, 3), ("linear", 3, 2, 2), ("linear", 5, 2, 1),
    ("linear", 7, 2, 1), ("toeplitz", 2, 8, 3), ("toeplitz", 3, 5, 2),
    ("toeplitz", 5, 3, 2), ("toeplitz", 7, 3, 2), ("toeplitz", 7, 2, 2),
])
def test_member_tables_match_per_member_product(kind, q, m, k):
    n_params = m * k if kind == "linear" else m + k - 1
    got = hashing._member_tables(kind, q, m, k, n_params)
    ref = ref_member_tables(kind, q, m, k)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_toeplitz_table_at_the_cell_cap_is_unchanged():
    fam = build_family("toeplitz", 2, 10, 3)
    assert fam.table.size == MAX_TABLE_CELLS
    digest = hashlib.sha1(fam.table.tobytes()).hexdigest()
    assert digest == hashlib.sha1(ref_member_tables("toeplitz", 2, 10, 3).tobytes()).hexdigest()
    assert digest == "b0566d3d367593caff2f9091d02b1881e3b72bbc"


# ---------------------------------------------------------------------------
# Float side-register ensembles: exact sums of their float diagonals
# ---------------------------------------------------------------------------

def earlier_diagonals(ensemble):
    """``quantum._diagonals_in_common_basis`` as written before, as tuples."""
    mats = [ensemble.weighted(x) for x in range(len(ensemble.states))]
    if not all(np.abs(m - np.diag(np.diag(m))).max() < quantum.COMMUTE_TOL for m in mats):
        basis = quantum._common_eigenbasis(mats)
        mats = [basis.conj().T @ m @ basis for m in mats]
    return [tuple(float(np.real(d)) for d in np.diag(m)) for m in mats]


def earlier_e_opt(ensemble):
    total = 0.0
    for col in zip(*earlier_diagonals(ensemble)):
        total += max(col)
    return total


def earlier_float_blocks(ensemble, family):
    """The float branch of ``hashed_joint_blocks`` as written before limbs."""
    table = family.table
    weights = np.array(earlier_diagonals(ensemble), dtype=float)
    size, n_in = table.shape
    n_out = family.q**family.k
    out = np.zeros((n_out, size, weights.shape[1]))
    step = max(1, 2**12 // n_in)
    for lo in range(0, size, step):
        rows = table[lo:lo + step]
        for kappa in range(n_out):
            out[kappa, lo:lo + step] = (rows == kappa).astype(float) @ weights
    return out.tolist()


def earlier_float_distance(counts, q, k, size):
    side = [sum(col) for col in zip(*(b for row in counts for b in row))]
    spread = q**k * size
    gap = sum(abs(spread * c - t) for row in counts for b in row for c, t in zip(b, side))
    return gap / (q * spread * size), side


def fraction_blocks(ensemble, family):
    """Blocks ``(1/|G|) sum_{x: g(x)=kappa} Fraction(d_x)`` of the float
    diagonals, as an object array of ints over one returned denominator."""
    fractions = [[Fraction(v) for v in row] for row in earlier_diagonals(ensemble)]
    den = max(f.denominator for row in fractions for f in row)
    ints = np.array([[f.numerator * (den // f.denominator) for f in row]
                     for row in fractions], dtype=object)
    n_out = family.q**family.k
    out = np.zeros((n_out, family.group_size, ensemble.dim), dtype=object)
    for g, row in enumerate(family.table):
        for kappa in range(n_out):
            out[kappa, g] = ints[row == kappa].sum(axis=0)
    return out, family.group_size * den


def float_diagonal_ensemble(ens):
    """``ens`` with its prior and states as float diagonals: no common basis
    to search, so that large alphabets stay quick."""
    prior = FiniteDistribution(ens.alphabet, tuple(ens.prior.as_floats().tolist()))
    return Ensemble(prior, [StateDensity.from_diag((s.numerators / s.denominator).tolist())
                            for s in ens.states])


def check_float_ensemble(dense, fam):
    """Blocks and distance of a float ensemble equal the exact sums of its
    float diagonals; the printed distance is that value rounded once, within
    1e-13 relative of the earlier float code's."""
    assert not dense.exact
    q, k = fam.q, fam.k
    cq = hashed_joint_blocks(dense, fam)
    ref, den = fraction_blocks(dense, fam)
    assert (cq.counts * den == ref * cq.denominator).all()
    assert not cq.counts.flags.writeable
    side = ref.reshape(-1, dense.dim).sum(axis=0)
    assert (cq._side_counts() * den == side * cq.denominator).all()
    spread = q**k * fam.group_size
    exact = Fraction(int(np.abs(spread * ref - side).sum()), q * spread * den)
    assert tripartite_distance(cq) == exact
    report = quantum.tripartite_report(dense, fam)
    assert type(report["distance"]) is float and report["distance"] == float(exact)
    earlier, _ = earlier_float_distance(earlier_float_blocks(dense, fam), q, k,
                                        fam.group_size)
    assert abs(report["distance"] - earlier) <= 1e-13 * earlier
    assert quantum._diagonals_in_common_basis(dense).tolist() \
        == [list(d) for d in earlier_diagonals(dense)]
    assert quantum.e_opt(dense) == earlier_e_opt(dense) == report["e_opt"]


# The last three cases sum 32 members of 1024 symbols at the table cap, and
# blocks of dimension 60, where the earlier float code's BLAS steps set the
# last bits of some blocks.
FLOAT_CASES = [
    ("linear", 2, 2, 1, 3, True), ("toeplitz", 3, 3, 2, 2, True),
    ("toeplitz", 2, 6, 2, 4, True), ("toeplitz", 2, 8, 3, 3, True),
    ("toeplitz", 2, 6, 2, 1, True), ("toeplitz", 2, 10, 3, 2, False),
    ("toeplitz", 2, 8, 3, 60, False), ("toeplitz", 2, 6, 2, 60, True),
]


@pytest.mark.parametrize("kind,q,m,k,dim,rotated", FLOAT_CASES, ids=[
    "-".join(map(str, case[:5])) + ("" if case[5] else "-diagonal") for case in FLOAT_CASES])
def test_float_path_is_unchanged(kind, q, m, k, dim, rotated):
    rng = np.random.default_rng(q * 100 + m * 10 + dim)
    fam = build_family(kind, q, m, k)
    exact = random_diagonal_ensemble(rng, q**m, dim)
    dense = rotate_ensemble(exact, rng) if rotated else float_diagonal_ensemble(exact)
    check_float_ensemble(dense, fam)


@pytest.mark.parametrize("kind,q,m,k,seed", [
    ("linear", 2, 2, 1, 3), ("toeplitz", 2, 3, 2, 0), ("toeplitz", 2, 4, 2, 1)])
def test_rotated_rank_deficient_entries_below_zero_are_not_clamped(kind, q, m, k, seed):
    # A rotated basis-plus-mixed ensemble reads common-basis entries down to
    # about -4e-18 (-3.9e-18 for n = 3, seed 3): both signs are pushed forward.
    ens = rotate_ensemble(quantum.basis_plus_mixed_ensemble(q**m - 1),
                          np.random.default_rng(seed))
    assert (quantum._diagonals_in_common_basis(ens) < 0).any()
    check_float_ensemble(ens, build_family(kind, q, m, k))


def test_float_diagonals_become_integers_over_one_power_of_two():
    values = np.array([[0.75, 0.0, -2**-60], [1.0, 5e-324, 2**-1022]])
    ints, e = quantum._dyadic(values)
    assert [[Fraction(i, 2**e) for i in row] for row in ints.tolist()] \
        == [[Fraction(v) for v in row] for row in values.tolist()]
    # The smallest exponent is the subnormal's: 2**-1074 reads 2**52 / 2**1126.
    assert e == 1126 and ints[1, 1] == 2**52 and all(type(i) is int for i in ints.ravel())
    ints, e = quantum._dyadic(np.array([[0.5, 0.25]]))   # the smallest exponent present
    assert ints.tolist() == [[2**53, 2**52]] and e == 54


def test_common_basis_is_searched_once_per_report(monkeypatch):
    calls = []
    search = quantum._common_eigenbasis
    monkeypatch.setattr(quantum, "_common_eigenbasis",
                        lambda mats: calls.append(len(mats)) or search(mats))
    rng = np.random.default_rng(32)
    dense = rotate_ensemble(random_diagonal_ensemble(rng, 27, 3), rng)
    report = quantum.tripartite_report(dense, build_family("toeplitz", 3, 3, 2))
    assert calls == [27] and report["e_opt"] == quantum.e_opt(dense)
    assert not quantum._diagonals_in_common_basis(dense).flags.writeable
    assert calls == [27]


def toeplitz_352_float_blocks_sha256():
    """sha256 of the float blocks of Toeplitz (3, 5, 2) on a float-diagonal
    ensemble of dimension 100.  Its states are the matrices that
    ``float_diagonal_ensemble`` would build, without the eigenvalue check
    that takes most of its time at this size."""
    exact = random_diagonal_ensemble(np.random.default_rng(100), 243, 100)
    prior = FiniteDistribution(exact.alphabet, tuple(exact.prior.as_floats().tolist()))
    states = [StateDensity(100, mat=s.to_matrix()) for s in exact.states]
    cq = hashed_joint_blocks(Ensemble(prior, states), build_family("toeplitz", 3, 5, 2))
    return hashlib.sha256(repr((cq.counts.tolist(), cq.denominator)).encode()).hexdigest()


def test_float_blocks_do_not_depend_on_the_blas_thread_count():
    # Float blocks are exact integer sums of float64 limbs, the same in any
    # order.  With OpenBLAS 0.3 on two cores, the earlier float BLAS blocks
    # of this case had different last bits on one thread and on the default
    # count at steps of hashing.CHUNK_CELLS.  On a one-core host both runs
    # use one thread and this passes whatever the kernel.
    here = Path(__file__).resolve().parent
    src = Path(quantum.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), str(here), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import test_exact_kernels as t; "
         "print(t.toeplitz_352_float_blocks_sha256())"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == toeplitz_352_float_blocks_sha256() + "\n"


# ---------------------------------------------------------------------------
# State arrays: read-only, sized by their shape
# ---------------------------------------------------------------------------

def test_joint_counts_are_a_read_only_array():
    fam = build_family("toeplitz", 2, 6, 2)
    f = FiniteDistribution.random_rational(Alphabet(2, 6), np.random.default_rng(5))
    js = hashing.joint_state(f, fam)
    assert js.counts.shape == (4, fam.group_size) and js.group_size == fam.group_size
    assert not js.counts.flags.writeable
    assert all(type(c) is int for row in js.counts.tolist() for c in row)
    with pytest.raises(ValueError):
        js.counts[0, 0] = 0


def test_joint_state_needs_one_row_per_key():
    # Read without its zero row, the same law would give a distance of 1/4.
    with pytest.raises(ValueError, match="one row per key"):
        hashing.JointKeyState(2, 1, ((1,),), 1)
    own = np.array([[1], [0]])
    js = hashing.JointKeyState(2, 1, own, 1)
    assert js.group_size == 1 and js.distance() == Fraction(1, 2)
    # A caller's writeable array is copied, not frozen.
    assert own.flags.writeable and not np.shares_memory(js.counts, own)


def test_side_register_state_reads_its_sizes_from_counts():
    # A stated group size of 5 would read a distance of 2/5 from the same blocks.
    cq = CqKeyState(2, 1, (((3,),), ((1,),)), 4)
    assert (cq.group_size, cq.dim_q) == (1, 1)
    assert cq.counts.dtype == np.int64 and not cq.counts.flags.writeable
    assert tripartite_distance(cq) == Fraction(1, 4)
    with pytest.raises(ValueError, match="one row per key"):
        CqKeyState(2, 1, (((4,),),), 4)
    with pytest.raises(ValueError, match="one row per key"):
        exact_state([[[1]]], 2, 1, 1)


# ---------------------------------------------------------------------------
# Block-count cap and check 5
# ---------------------------------------------------------------------------

def test_block_count_cap_checked_before_any_sum(monkeypatch):
    def forbidden(*args):
        raise AssertionError("summed past the block-count cap")

    fam = build_family("linear", 2, 4, 4)          # q**k |G| = 2**20
    quantum.check_block_count(fam, 4)               # 2**22 entries: at the cap
    monkeypatch.setattr(quantum, "_exact_key_blocks", forbidden)
    ens = random_diagonal_ensemble(np.random.default_rng(3), 16, 5)
    with pytest.raises(ValueError, match="exceeds cap"):
        hashed_joint_blocks(ens, fam)


class RefusedTable(np.ndarray):
    """A table whose key indicators cannot be formed: comparing it raises."""

    def __eq__(self, other):
        raise AssertionError("indicator formed past the limb-cell cap")


def test_limb_cell_cap_at_the_cap_and_one_past(monkeypatch):
    fam = build_family("toeplitz", 2, 4, 2)              # 4 keys, 32 members
    ens = random_diagonal_ensemble(np.random.default_rng(8), 16, 5)
    n_limbs = limb_count(ens.numerators, 16)
    cells = 4 * fam.group_size * 5 * n_limbs
    monkeypatch.setattr(quantum, "MAX_LIMB_CELLS", cells)          # at the cap
    assert hashed_joint_blocks(ens, fam).counts.tolist() \
        == ref_key_blocks(fam.table, ens.numerators, 4)
    monkeypatch.setattr(quantum, "MAX_LIMB_CELLS", cells - 1)      # one past it
    message = "^%s$" % re.escape("side-register pushforward of %d limb sums (q**k |G| dim "
                                 "times %d limbs) exceeds cap %d" % (cells, n_limbs, cells - 1))
    with pytest.raises(ValueError, match=message):
        quantum._exact_key_blocks(fam.table.view(RefusedTable), ens.numerators, 4)
    with pytest.raises(ValueError, match=message):
        hashed_joint_blocks(ens, fam)


def test_limb_cell_cap_counts_a_float_ensemble_exponent_span(monkeypatch):
    # One entry of 2**-1000 widens every dyadic integer to ~1050 bits.
    fam = build_family("linear", 2, 2, 1)                # 2 keys, 4 members
    prior = FiniteDistribution(Alphabet(2, 2), (0.25,) * 4)
    states = [StateDensity.from_diag([1.0 - 2.0**-1000, 2.0**-1000])] \
        + [StateDensity.from_diag([0.5, 0.5])] * 3
    ens = Ensemble(prior, states)
    ints, _ = quantum._dyadic(quantum._diagonals_in_common_basis(ens))
    n_limbs = limb_count(ints, 4)
    assert n_limbs == 21
    monkeypatch.setattr(quantum, "MAX_LIMB_CELLS", 2 * 4 * 2 * n_limbs)
    cq = hashed_joint_blocks(ens, fam)
    assert cq.denominator == 4 * 2**1054       # p_0 rho_0[1] = 2**-1002 = 2**52 / 2**1054
    monkeypatch.setattr(quantum, "MAX_LIMB_CELLS", 2 * 4 * 2 * n_limbs - 1)
    with pytest.raises(ValueError, match="limb sums .* exceeds cap"):
        hashed_joint_blocks(ens, fam)


@pytest.mark.parametrize("q,m,k,dim", [(2, 8, 3, 60), (3, 5, 2, 100)])
def test_limb_cell_cap_admits_the_cli_scale_points(q, m, k, dim):
    # The ensembles `quantum-lhl --family toeplitz --dim-q dim` draws at seed 0.
    ens = random_diagonal_ensemble(np.random.default_rng(0), q**m, dim)
    cells = q**k * q**(m + k - 1) * dim * limb_count(ens.numerators, q**m)
    assert cells <= quantum.MAX_LIMB_CELLS


def test_cli_refuses_block_count_before_drawing(monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("ensemble drawn past the block-count cap")

    monkeypatch.setattr(verify, "random_diagonal_ensemble", forbidden)
    code = main(["quantum-lhl", "--q", "2", "--m", "8", "--k", "3",
                 "--family", "toeplitz", "--dim-q", "513"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "exceeds cap" in err


def test_check_five_requires_equal_trivial_distances():
    res = verify.check_tripartite()
    assert res["passed"]
    assert res["trivial_side_register_gap"] == 0 and res["trivial_tolerance"] == 0
