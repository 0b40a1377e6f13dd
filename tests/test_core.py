import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st

from kdcheck.cli import jsonable
from kdcheck.core import (
    Alphabet,
    FiniteDistribution,
    StateDensity,
    distribution_from_json,
    format_rational,
    parse_rational,
    scale_to_integers,
    state_from_json,
)


def fractions(f):
    return tuple(Fraction(n, f.denominator) for n in f.numerators)


def test_parse_rational_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5/1"


def assert_canonical_scaling(values):
    d, n = scale_to_integers(iter(values))
    assert d >= 1 and math.gcd(d, *n) == 1
    assert all(type(v) is int for v in n)
    assert [Fraction(v, d) for v in n] == [Fraction(v) for v in values]
    return d, n


@pytest.mark.parametrize("values, expected", [
    ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], (6, [3, 2, 1])),
    ([3, -2, 0], (1, [3, -2, 0])),
    ([Fraction(0), 0, Fraction(0)], (1, [0, 0, 0])),
    ([Fraction(2, 3), Fraction(4, 9)], (9, [6, 4])),
    ([Fraction(1, 2**64 + 13), Fraction(-7, 2**63 + 1), 1],
     ((2**64 + 13) * (2**63 + 1),
      [2**63 + 1, -7 * (2**64 + 13), (2**64 + 13) * (2**63 + 1)])),
    ([], (1, [])),
])
def test_scale_to_integers_is_canonical(values, expected):
    assert assert_canonical_scaling(values) == expected


@seed(12)
@given(st.lists(st.fractions(max_denominator=2**70), max_size=8))
def test_scale_to_integers_recovers_every_value(values):
    assert_canonical_scaling(values)


def test_parse_rational_rejects_floats():
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1e-3")


def test_alphabet_validation():
    a = Alphabet(2, 3)
    assert a.num_symbols == 8
    with pytest.raises(ValueError):
        Alphabet(1)
    with pytest.raises(ValueError):
        Alphabet(2, 0)


def test_distribution_exact_sum_enforced():
    with pytest.raises(ValueError):
        FiniteDistribution(Alphabet(2), (Fraction(1, 2), Fraction(1, 3)))
    f = FiniteDistribution(Alphabet(2), (Fraction(1, 2), Fraction(1, 2)))
    assert f.exact


def test_distribution_float_tolerance():
    f = FiniteDistribution(Alphabet(2), (0.5, 0.5 + 1e-13))
    assert not f.exact
    with pytest.raises(ValueError):
        FiniteDistribution(Alphabet(2), (0.5, 0.6))


def test_uniform_and_point_mass():
    u = FiniteDistribution.uniform(Alphabet(2, 2))
    assert fractions(u) == (Fraction(1, 4),) * 4
    p = FiniteDistribution(Alphabet(2, 2), (0, 0, 0, 1))
    assert p.exact and fractions(p)[3] == 1 and np.flatnonzero(p.numerators).tolist() == [3]


def test_state_from_diag_exact():
    s = StateDensity.from_diag((Fraction(1, 2), Fraction(1, 2)))
    assert s.numerators.sum() == s.denominator
    assert s.exact and (s.denominator, s.numerators.tolist()) == (2, [1, 1])


def test_state_from_matrix_checks():
    with pytest.raises(ValueError):
        StateDensity.from_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        StateDensity.from_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    s = StateDensity.from_matrix(m)
    assert s.is_normalized


def test_float_diagonal_is_a_dense_state():
    s = StateDensity.from_diag((0.5, Fraction(1, 4), 0.25))
    assert not s.exact and s.denominator is None and s.numerators is None
    assert s.mat.tobytes() == np.diag([0.5, 0.25, 0.25]).astype(complex).tobytes()
    assert np.trace(s.mat).real == 1.0 and s.is_normalized


def test_float_diagonal_clamps_entries_just_below_zero():
    s = StateDensity.from_diag((0.75, 0.25 + 1e-12, -1e-12))
    assert s.mat[2, 2] == 0 and not math.copysign(1.0, s.mat[2, 2].real) < 0
    assert np.array_equal(s.mat, np.diag([0.75, 0.25 + 1e-12, 0.0]))


def test_float_diagonal_skips_the_eigenvalue_check(monkeypatch):
    entries = (0.5, 0.25 + 1e-12, -1e-12, 0.25 - 1e-12)
    dense = StateDensity.from_matrix(np.diag([0.5, 0.25 + 1e-12, 0.0, 0.25 - 1e-12]))

    def refuse(*args, **kwargs):
        raise AssertionError("ran eigvalsh on a diagonal")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    s = StateDensity.from_diag(entries)
    assert s.mat.dtype == complex and s.mat.tobytes() == dense.mat.tobytes()
    with pytest.raises(ValueError, match="^diagonal entry below -1e-10: not positive "
                                         "semidefinite$"):
        StateDensity.from_diag((1.0, -2e-10))
    with pytest.raises(ValueError, match="^trace 1.5 exceeds 1 beyond tolerance$"):
        StateDensity.from_diag((0.75, 0.75))


def test_distribution_json_roundtrip():
    f = FiniteDistribution(Alphabet(2, 2),
                           (Fraction(1, 2), Fraction(1, 4),
                            Fraction(1, 8), Fraction(1, 8)))
    # The CLI's writer: Fractions go out as "num/den" strings.
    data = json.loads(json.dumps(jsonable(
        {"schema": 1, "alphabet": {"size": 2, "power": 2}, "weights": fractions(f)})))
    assert data["weights"] == ["1/2", "1/4", "1/8", "1/8"]
    g = distribution_from_json(data)
    assert fractions(g) == fractions(f) and g.alphabet == f.alphabet


def test_state_json_roundtrip():
    t = state_from_json({"schema": 1, "dim": 2, "diag": ["1/3", "2/3"]})
    assert (t.denominator, t.numerators.tolist()) == (3, [1, 2])
    m = StateDensity.from_matrix(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    m2 = state_from_json({"schema": 1, "dim": 2,
                          "matrix": [[[0.5, 0.0], [0.0, 0.25]],
                                     [[0.0, -0.25], [0.5, 0.0]]]})
    assert np.array_equal(m.to_matrix(), m2.to_matrix())


@pytest.mark.parametrize("read,obj", [
    (distribution_from_json, {"alphabet": {"size": 2}, "weights": [True, 0]}),
    (state_from_json, {"diag": [True, 0]}),
])
def test_json_readers_reject_booleans(read, obj):
    with pytest.raises(ValueError, match="must be numbers"):
        read(obj)
