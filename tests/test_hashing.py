import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from kdcheck import hashing
from kdcheck.core import Alphabet, FiniteDistribution
from kdcheck.hashing import (
    MAX_FAMILY_SIZE,
    MAX_TABLE_CELLS,
    build_family,
    joint_state,
    lhl_bound,
    lhl_distance,
    lhl_report,
)

UNIFORM8 = FiniteDistribution.uniform(Alphabet(2, 3))


def test_linear_family_sizes():
    fam = build_family("linear", 2, 3, 1)
    assert fam.group_size == 8
    assert fam.zeta == Fraction(3)
    fam2 = build_family("linear", 3, 2, 2)
    assert fam2.group_size == 81
    assert fam2.zeta == Fraction(4)


def test_toeplitz_family_sizes():
    fam = build_family("toeplitz", 2, 3, 2)
    assert fam.group_size == 2 ** (3 + 2 - 1)
    assert fam.zeta == Fraction(4)


def test_families_are_universal():
    for kind, q, m, k in (("linear", 2, 2, 1), ("linear", 2, 3, 2),
                          ("linear", 3, 2, 1), ("toeplitz", 2, 3, 1),
                          ("toeplitz", 3, 2, 2), ("toeplitz", 5, 2, 1)):
        fam = build_family(kind, q, m, k)
        assert brute_universality(fam) <= Fraction(1, q**k)


def test_explicit_family_and_rejection():
    # both maps send inputs 0 and 1 to the same key: that pair always collides
    maps = [[0, 0, 0, 1], [0, 0, 1, 0]]
    fam = hashing.HashFamily(2, 2, 1, "explicit", maps)
    assert brute_universality(fam) == 1 > Fraction(1, 2)


def test_non_prime_alphabet_rejected():
    with pytest.raises(ValueError):
        build_family("linear", 4, 2, 1)
    with pytest.raises(ValueError):
        build_family("linear", 2, 1, 2)


def test_small_linear_family_contents():
    # q=2, m=2, k=1: 2^(mk) = 4 maps, zeta = 2, worst pair collision 1/2
    fam = build_family("linear", 2, 2, 1)
    assert fam.group_size == 4 and fam.zeta == Fraction(2)
    assert brute_universality(fam) == Fraction(1, 2)
    # q=2, m=1, k=1: the zero map and the identity
    tiny = build_family("linear", 2, 1, 1)
    assert sorted(tiny.maps) == [(0, 0), (0, 1)]
    assert brute_universality(tiny) == Fraction(1, 2)


def test_collision_probability_m2_uniform_oracle():
    # zero map collides always, the three others half the time:
    # (1/16) * (1 + 3/2) = 5/32, bound (1/2 + 1/4)/4 = 3/16
    fam = build_family("linear", 2, 2, 1)
    u = FiniteDistribution.uniform(Alphabet(2, 2))
    assert joint_state(u, fam).collision_probability() == Fraction(5, 32)
    assert lhl_report(u, fam)["collision_bound"] == Fraction(3, 16)


def test_joint_state_uniform_oracle():
    fam = build_family("linear", 2, 3, 1)
    js = joint_state(UNIFORM8, fam)
    key_marginal = [Fraction(row.sum(), js.denominator) for row in js.counts]
    assert key_marginal == [Fraction(9, 16), Fraction(7, 16)]
    assert lhl_distance(UNIFORM8, fam) == Fraction(1, 16)


def test_collision_probability_oracle():
    fam = build_family("linear", 2, 3, 1)
    assert joint_state(UNIFORM8, fam).collision_probability() == Fraction(9, 128)
    assert lhl_report(UNIFORM8, fam)["collision_bound"] == Fraction(5, 64)


def test_single_bit_collision():
    fam = build_family("linear", 2, 1, 1)
    u = FiniteDistribution.uniform(Alphabet(2))
    # maps are the zero map and the identity; joint (key, seed) collision
    # mass is 1/4 + 1/16 + 1/16
    assert joint_state(u, fam).collision_probability() == Fraction(3, 8)
    assert lhl_report(u, fam)["collision_bound"] == Fraction(1, 2)


def test_lhl_bound_value():
    # bound q^(-(h-k)/2) with h = 3, k = 1: 1/2
    assert abs(lhl_bound(2, 1, 3) - 0.5) < 1e-15
    assert abs(lhl_bound(2, 2, 4) - 0.5) < 1e-15


def test_lhl_report_uniform():
    fam = build_family("linear", 2, 3, 1)
    rep = lhl_report(UNIFORM8, fam)
    assert rep["satisfied"] and rep["collision_satisfied"]
    assert rep["chain_cauchy_schwarz"] and rep["chain_tail"]
    assert rep["precondition_met"] and rep["exact_comparison"]
    assert rep["distance"] == Fraction(1, 16)


def test_lhl_report_manual_h_plus():
    fam = build_family("linear", 2, 3, 1)
    rep = lhl_report(UNIFORM8, fam, h_plus=2)
    assert rep["satisfied"]
    # overstating the entropy must be flagged
    rep_bad = lhl_report(UNIFORM8, fam, h_plus=4)
    assert not rep_bad["precondition_met"]


def test_lhl_report_float_h_plus_falls_back():
    fam = build_family("linear", 2, 3, 1)
    rep = lhl_report(UNIFORM8, fam, h_plus=2.5)
    assert not rep["exact_comparison"]
    assert rep["satisfied"]


@seed(21)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=32), min_size=8, max_size=8))
def test_lhl_distance_within_bound_random(raw):
    tot = sum(raw)
    f = FiniteDistribution(Alphabet(2, 3),
                           tuple(Fraction(r, tot) for r in raw))
    fam = build_family("linear", 2, 3, 1)
    rep = lhl_report(f, fam)
    assert rep["satisfied"] and rep["collision_satisfied"]
    assert rep["chain_cauchy_schwarz"] and rep["chain_tail"]


@seed(22)
@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=16), min_size=4, max_size=4))
def test_toeplitz_lhl_random(raw):
    tot = sum(raw)
    f = FiniteDistribution(Alphabet(2, 2),
                           tuple(Fraction(r, tot) for r in raw))
    fam = build_family("toeplitz", 2, 2, 1)
    rep = lhl_report(f, fam)
    assert rep["satisfied"] and rep["exact_comparison"]


def test_joint_state_sums_to_one():
    fam = build_family("linear", 3, 2, 1)
    rng = np.random.default_rng(9)
    f = FiniteDistribution.random_rational(Alphabet(3, 2), rng)
    js = joint_state(f, fam)
    total = sum(Fraction(c, js.denominator) for row in js.counts for c in row)
    assert total == 1


def test_float_distribution_rejected():
    fam = build_family("linear", 2, 2, 1)
    f = FiniteDistribution(Alphabet(2, 2), (0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError):
        lhl_distance(f, fam)


def test_point_mass_has_zero_entropy_margin():
    # distance can reach the trivial regime when the input is deterministic
    fam = build_family("linear", 2, 2, 1)
    f = FiniteDistribution(Alphabet(2, 2), (0, 1, 0, 0))
    rep = lhl_report(f, fam)
    assert rep["bound"] >= 1.0
    assert rep["satisfied"]


# ---------------------------------------------------------------------------
# Integer kernel against per-cell references written from the definitions
# ---------------------------------------------------------------------------

def brute_tables(kind, q, m, k):
    """Member tables symbol by symbol, members in itertools.product order."""
    n_params = m * k if kind == "linear" else m + k - 1
    tables = []
    for params in itertools.product(range(q), repeat=n_params):
        if kind == "linear":
            matrix = [params[i * m:(i + 1) * m] for i in range(k)]
        else:
            matrix = [[params[i - j + m - 1] for j in range(m)] for i in range(k)]
        table = []
        for x in range(q**m):
            digits = [(x // q**j) % q for j in range(m)]
            out = [sum(matrix[i][j] * digits[j] for j in range(m)) % q
                   for i in range(k)]
            table.append(sum(o * q**i for i, o in enumerate(out)))
        tables.append(tuple(table))
    return tuple(tables)


def fractions(f):
    return [Fraction(n, f.denominator) for n in f.numerators]


def brute_joint(weights, family):
    """``P_KG[kappa][g]`` one (member, symbol) cell at a time."""
    size = family.group_size
    table = [[Fraction(0)] * size for _ in range(family.q**family.k)]
    for g, t in enumerate(family.maps):
        for x, p in enumerate(weights):
            table[t[x]][g] += p / size
    return table


def brute_distance(joint, q, k):
    ideal = Fraction(1, q**k * len(joint[0]))
    return sum(abs(p - ideal) for row in joint for p in row) / q


def brute_collision(joint):
    return sum(p * p for row in joint for p in row)


def brute_universality(family):
    n_in, size = family.q**family.m, family.group_size
    return max(Fraction(sum(t[x] == t[y] for t in family.maps), size)
               for x in range(n_in) for y in range(x + 1, n_in))


def assert_joint_exact(f, family):
    ref = brute_joint(fractions(f), family)
    js = joint_state(f, family)
    assert [[Fraction(c, js.denominator) for c in row] for row in js.counts] == ref
    assert lhl_distance(f, family) == brute_distance(ref, family.q, family.k)
    assert joint_state(f, family).collision_probability() == brute_collision(ref)
    assert isinstance(lhl_distance(f, family), Fraction)


@pytest.mark.parametrize("kind,q,m,k", [
    ("linear", 2, 3, 2), ("linear", 3, 2, 1), ("linear", 5, 2, 1),
    ("toeplitz", 2, 4, 2), ("toeplitz", 3, 3, 2), ("toeplitz", 5, 2, 2),
])
def test_build_family_tables_and_member_order(kind, q, m, k, monkeypatch):
    built = []
    member_tables = hashing._member_tables
    monkeypatch.setattr(hashing, "_member_tables",
                        lambda *a: built.append(member_tables(*a)) or built[-1])
    fam = build_family(kind, q, m, k)
    # The built array is the family's only copy; maps are made on read.
    assert np.shares_memory(fam.table, built[0]) and "maps" not in vars(fam)
    ref = brute_tables(kind, q, m, k)
    assert fam.maps == ref
    assert all(type(v) is int for t in fam.maps for v in t)
    assert fam.table.dtype == np.uint8 and not fam.table.flags.writeable
    assert fam.table.tolist() == [list(t) for t in ref]


@pytest.mark.parametrize("kind,q,m,k", [
    ("linear", 3, 2, 1), ("toeplitz", 3, 2, 2), ("linear", 2, 3, 1),
])
def test_joint_law_exact_with_zero_weights(kind, q, m, k):
    n = q**m
    raw = [0 if x % 3 == 0 else x for x in range(n)]
    f = FiniteDistribution(Alphabet(q, m),
                           tuple(Fraction(r, sum(raw)) for r in raw))
    assert_joint_exact(f, build_family(kind, q, m, k))


def test_joint_law_exact_past_int64():
    # Common denominator above 2**63: the pushforward runs on limbs.
    dens = (2**61 - 1, 2**31 - 1, 3, 5, 7, 11, 13)
    weights = [Fraction(1, d) for d in dens]
    weights.append(1 - sum(weights))
    f = FiniteDistribution(Alphabet(2, 3), tuple(weights))
    assert math.lcm(*(w.denominator for w in weights)) > 2**63
    assert_joint_exact(f, build_family("toeplitz", 2, 3, 2))


def test_explicit_maps_exact():
    maps = [[0, 1, 2, 0, 1, 2, 0, 1, 2], [2, 2, 2, 1, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 2, 2, 0, 1, 2], [1, 0, 2, 2, 0, 1, 0, 2, 1]]
    fam = hashing.HashFamily(3, 2, 1, "explicit", maps)
    assert fam.maps == tuple(map(tuple, maps))
    assert fam.table.tolist() == maps
    # A caller's writeable array is copied: writing it later leaves the
    # validated family as it was.
    own = np.array(maps, dtype=np.uint8)
    direct = hashing.HashFamily(3, 2, 1, "explicit", own)
    own[0, 0] = 7
    assert not np.shares_memory(direct.table, own) and own.flags.writeable
    assert direct.table.tolist() == maps and not direct.table.flags.writeable
    f = FiniteDistribution(Alphabet(3, 2), tuple(
        Fraction(r, 20) for r in (0, 5, 1, 0, 4, 2, 3, 5, 0)))
    assert_joint_exact(f, fam)


@pytest.mark.parametrize("maps", [[[0, 1, 2, 0]], [[0, -1, 0, 1]], [[0, 0.5, 0, 1]],
                                  [[0, 1, 0]], [[0, 1, 0, 1], [0, 1]]])
def test_explicit_maps_rejected(maps):
    with pytest.raises(ValueError):
        hashing.HashFamily(2, 2, 1, "explicit", maps)


def test_explicit_kind_is_not_built():
    with pytest.raises(ValueError, match="unknown family kind 'explicit'"):
        build_family("explicit", 2, 2, 1)


@pytest.mark.parametrize("kind,q,m,k", [
    ("linear", 3, 2, 1), ("toeplitz", 3, 3, 1), ("toeplitz", 3, 2, 2),
])
def test_verify_universality_matches_pair_count(kind, q, m, k):
    # a linear family is universal with equality: the worst pair collides
    # with probability exactly q**-k
    fam = build_family(kind, q, m, k)
    assert brute_universality(fam) == Fraction(1, q**k)


def test_lhl_report_builds_one_joint_law(monkeypatch):
    calls = []
    inner = hashing.joint_state

    def counted(f, family):
        calls.append(1)
        return inner(f, family)

    monkeypatch.setattr(hashing, "joint_state", counted)
    fam = build_family("toeplitz", 2, 3, 1)
    rep = lhl_report(UNIFORM8, fam)
    assert len(calls) == 1
    ref = brute_joint(fractions(UNIFORM8), fam)
    assert rep["distance"] == brute_distance(ref, 2, 1)
    assert rep["collision_probability"] == brute_collision(ref)


def test_table_cell_cap_checked_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("tables built past the cell cap")

    monkeypatch.setattr(hashing, "_member_tables", never)
    # 2**20 members pass the member cap; 2**40 cells do not pass the cell cap.
    assert 2**20 <= MAX_FAMILY_SIZE < 2**40
    with pytest.raises(ValueError, match="cells exceeds cap"):
        build_family("toeplitz", 2, 20, 1)
    with pytest.raises(ValueError, match="cells exceeds cap"):
        build_family("linear", 2, 19, 1)


def test_table_cell_cap_admits_toeplitz_2_10_3(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(hashing, "_member_tables", reached)
    assert 2**12 * 2**10 == MAX_TABLE_CELLS
    with pytest.raises(Reached):
        build_family("toeplitz", 2, 10, 3)
