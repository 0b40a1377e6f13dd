import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from kdcheck import markov
from kdcheck.markov import (
    Poly,
    RationalFunction,
    TransitionMatrix,
    first_return,
    markov_report,
    n_step,
    period,
    poly_gcd,
    radius_of_convergence,
    resolvent,
    theta_gf,
)

SWAP = TransitionMatrix.build([[0, 1], [1, 0]])
LAZY = TransitionMatrix.build(
    [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])


def frac(a, b=1):
    return Fraction(a, b)


def parts(rf):
    """A rational function's numerator and denominator coefficient tuples."""
    return rf.num.c, rf.den.c


# ---------------------------------------------------------------------------
# Polynomial layer
# ---------------------------------------------------------------------------

def scaled(p, k):
    """``k * p`` for an integer ``k``."""
    return Poly([k * x for x in p.c])


def test_poly_arithmetic():
    p = Poly([1, 2])          # 1 + 2r
    q = Poly([0, 1])          # r
    assert (p + q).c == (1, 3) and (-p).c == (-1, -2)
    assert (p - p).is_zero()
    assert p.degree == 1 and Poly().degree == -1
    assert Poly([1, 0, 0]).c == (1,)
    for coeffs in ([frac(1, 2)], [frac(1)], [1.0], [1, 0.5]):
        with pytest.raises(TypeError, match="coefficients must be ints"):
            Poly(coeffs)


def test_poly_divmod_and_gcd():
    # (1 - r^2) = (1 - r)(1 + r)
    p = Poly([1, 0, -1])
    d = Poly([1, -1])
    assert p.exact_div(d).c == (1, 1)
    assert p.exact_div(p).c == (1,) and Poly().exact_div(d).is_zero()
    # 2 does not divide the leading 1; 1 - r^2 = (2 - r)(2 + r) - 3.
    for divisor in (Poly([1, 2]), Poly([2, -1]), Poly([0, 1, 0, 1])):
        with pytest.raises(ArithmeticError, match="left a remainder"):
            p.exact_div(divisor)
    with pytest.raises(ZeroDivisionError):
        p.exact_div(Poly())
    assert poly_gcd(p, d).c == (-1, 1)


def test_poly_eval():
    p = Poly([2, -1])
    assert p.eval(frac(1, 2)) == frac(3, 2)
    assert p.eval(2) == 0 and type(p.eval(2)) is Fraction


def test_rational_function_reduces():
    # (1 - r^2)/(1 - r) reduces to 1 + r
    num = Poly([1, 0, -1])
    den = Poly([1, -1])
    rf = RationalFunction(num, den)
    assert parts(rf) == ((1, 1), (1,))
    assert rf.eval(frac(1, 3)) == frac(4, 3)


def test_rational_function_series_geometric():
    # 1/(1 - r)
    rf = RationalFunction(Poly([1]), Poly([1, -1]))
    assert rf.series(5) == (frac(1),) * 6


def test_display_of_reference_forms():
    assert resolvent(LAZY, 0, 0).display() == "(1-r/2)/(1-r)"
    assert theta_gf(LAZY, 0).display() == "(r/2)/(1-r/2)"
    assert theta_gf(SWAP, 0).display() == "r^2"


# ---------------------------------------------------------------------------
# Transition matrices
# ---------------------------------------------------------------------------

def test_build_validates_rows():
    with pytest.raises(ValueError):
        TransitionMatrix.build([[Fraction(1, 2), Fraction(1, 3)],
                                [Fraction(1, 2), Fraction(1, 2)]])
    with pytest.raises(ValueError):
        TransitionMatrix.build([[Fraction(3, 2), Fraction(-1, 2)],
                                [0, 1]])


def test_n_step_zero_is_identity():
    p0 = n_step(SWAP, 0)
    assert p0[0][0] == 1 and p0[0][1] == 0 and p0[1][1] == 1


def test_n_step_oracle():
    p2 = n_step(SWAP, 2)
    assert p2[0][0] == 1 and p2[0][1] == 0
    p3 = n_step(LAZY, 3)
    assert p3[0][0] == Fraction(1, 2)


def test_first_return_starts_at_diagonal_entry():
    rng_rows = [[Fraction(1, 3), Fraction(2, 3)],
                [Fraction(3, 5), Fraction(2, 5)]]
    chain = TransitionMatrix.build(rng_rows)
    for i in range(2):
        assert first_return(chain, i, 3)[0] == chain.rows[i][i]


def test_resolvent_radius_at_pole_one():
    # 1/(1 - r^2) has poles at +-1
    rad = radius_of_convergence(resolvent(SWAP, 0, 0))
    assert abs(rad - 1.0) < 1e-9


def test_first_return_swap():
    assert first_return(SWAP, 0, 5) == (frac(0), frac(1), frac(0),
                                        frac(0), frac(0))


def test_first_return_lazy():
    want = tuple(Fraction(1, 2**n) for n in range(1, 7))
    assert first_return(LAZY, 0, 6) == want


def test_theta_series_matches_recursion():
    theta = theta_gf(LAZY, 0)
    assert theta.series(6)[1:] == first_return(LAZY, 0, 6)
    assert theta.series(6)[0] == 0


def test_theta_at_one_for_irreducible():
    assert theta_gf(SWAP, 0).eval(frac(1)) == 1
    assert theta_gf(LAZY, 1).eval(frac(1)) == 1


def test_radius_oracles():
    assert radius_of_convergence(theta_gf(SWAP, 0)) == math.inf
    assert abs(radius_of_convergence(theta_gf(LAZY, 0)) - 2.0) < 1e-9


def test_period_oracles():
    assert period(SWAP, 0) == 2
    assert period(LAZY, 0) == 1


def test_absorbing_state_theta_below_one():
    # from state 0 the walk may get absorbed at 1 and never return
    chain = TransitionMatrix.build(
        [[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
    theta = theta_gf(chain, 0)
    assert theta.eval(frac(1)) == Fraction(1, 2)
    assert not chain.is_irreducible()


def test_markov_report_fields():
    rep = markov_report(LAZY, 0, series_terms=4)
    assert rep["P_gf"] == "(1-r/2)/(1-r)"
    assert rep["Theta_gf"] == "(r/2)/(1-r/2)"
    assert rep["theta_series"] == [frac(1, 2), frac(1, 4),
                                   frac(1, 8), frac(1, 16)]
    assert rep["irreducible"] and rep["theta_at_1"] == 1
    assert rep["period"] == 1


def test_exact_powers_are_capped_before_any_is_built():
    chain = TransitionMatrix.build([[frac(1, 997), frac(996, 997)],
                                    [frac(1, 2), frac(1, 2)]])
    steps = markov.MAX_POWER_BITS // (1994).bit_length()
    with pytest.raises(ValueError, match="over the cap"):
        markov_report(chain, 0, series_terms=steps + 1)
    with pytest.raises(ValueError, match="over the cap"):
        first_return(chain, 1, steps + 1)
    with pytest.raises(ValueError, match="over the cap"):
        n_step(chain, steps + 1)
    assert "_power_memo" not in vars(chain)
    assert sum(n_step(chain, steps)[0]) == 1


def chain_over(n, d):
    """An n-state chain whose common denominator is exactly ``d``."""
    return TransitionMatrix.build([
        [frac(1, d)] * (n - 1) + [frac(d - n + 1, d)] for _ in range(n)])


def refuse_elimination(monkeypatch):
    def fail(rows):
        raise AssertionError("eliminated a refused chain")
    monkeypatch.setattr(markov, "_det_adjugate", fail)


def test_elimination_is_capped_before_it_runs(monkeypatch):
    # A seeded 20-state positive chain (entries k/row sum, k in 1..9).
    rng = np.random.default_rng(20)
    chain = random_chain([int(v) for v in rng.integers(1, 10, size=400)], 20)
    assert 20**3 * (chain._scaled[0].bit_length() + 5) > markov.MAX_ELIMINATION_COST
    refuse_elimination(monkeypatch)
    for call in (lambda: resolvent(chain, 0, 1), lambda: theta_gf(chain, 0),
                 lambda: markov_report(chain, 0)):
        with pytest.raises(ValueError, match="over the cap"):
            call()
    assert "_det_adj" not in vars(chain)


def test_elimination_cap_boundary(monkeypatch):
    # The largest denominator an 8-state chain may have, and one bit more:
    # n**3 * (bits + (n + 1).bit_length()) is at most the cap.
    bits = markov.MAX_ELIMINATION_COST // 8**3 - 4
    admitted = chain_over(8, 2**(bits - 1) + 1)
    refused = chain_over(8, 2**bits + 1)
    assert admitted._scaled[0].bit_length() == bits
    monkeypatch.setattr(markov, "_det_adjugate", lambda rows: "eliminated")
    assert admitted._det_adj == "eliminated"
    refuse_elimination(monkeypatch)
    with pytest.raises(ValueError, match="%d-bit" % (bits + 1)):
        refused._det_adj


def test_resolvent_refuses_a_denominator_over_the_power_cap(monkeypatch):
    # n**3 * (bits + 2) is under MAX_ELIMINATION_COST here, so only the cap
    # on the bits of D refuses this chain.
    chain = chain_over(2, 2**39_999 + 1)
    assert 2**3 * (chain._scaled[0].bit_length() + 2) <= markov.MAX_ELIMINATION_COST
    refuse_elimination(monkeypatch)
    for call in (lambda: resolvent(chain, 0, 1), lambda: theta_gf(chain, 0)):
        with pytest.raises(ValueError, match="40000-bit .* over the cap of %d bits"
                           % markov.MAX_POWER_BITS):
            call()
    assert "_det_adj" not in vars(chain)


def test_resolvent_power_cap_boundary(monkeypatch):
    bits = markov.MAX_POWER_BITS
    admitted = chain_over(2, 2**(bits - 1) + 1)
    refused = chain_over(2, 2**bits + 1)
    assert admitted._scaled[0].bit_length() == bits
    monkeypatch.setattr(markov, "_det_adjugate", lambda rows: "eliminated")
    assert admitted._det_adj == "eliminated"
    refuse_elimination(monkeypatch)
    with pytest.raises(ValueError, match="%d-bit" % (bits + 1)):
        refused._det_adj


def random_chain(raw, n):
    rows = []
    for i in range(n):
        row = raw[i * n:(i + 1) * n]
        tot = sum(row)
        rows.append([Fraction(r, tot) for r in row])
    return TransitionMatrix.build(rows)


@seed(31)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=9, max_size=9))
def test_resolvent_series_equals_powers(raw):
    chain = random_chain(raw, 3)
    powers = [n_step(chain, n) for n in range(7)]
    for i in range(3):
        for j in range(3):
            series = resolvent(chain, i, j).series(6)
            assert all(series[n] == powers[n][i][j] for n in range(7))


@seed(32)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4))
def test_renewal_convolution(raw):
    chain = random_chain(raw, 2)
    for i in range(2):
        t = theta_gf(chain, i).series(8)
        p = resolvent(chain, i, i).series(8)
        for n in range(1, 9):
            conv = sum((t[m] * p[n - m] for m in range(1, n + 1)),
                       start=Fraction(0))
            assert conv == p[n]


@seed(33)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4))
def test_positive_chain_radius_beyond_one(raw):
    chain = random_chain(raw, 2)
    for i in range(2):
        assert radius_of_convergence(theta_gf(chain, i)) > 1 + 1e-6


def chain_of(*rows):
    return TransitionMatrix.build(
        [[Fraction(v, sum(row)) for v in row] for row in rows])


# Sparse chains with zero entries: a 5-state chain absorbed at state 4, a
# 6-state chain cycling through three classes (period 3), and a reducible
# 6-state chain with two closed classes and transient states 0 and 1.
SPARSE_CHAINS = {
    "absorbing5": chain_of([0, 2, 0, 1, 1], [1, 0, 3, 0, 0], [0, 1, 1, 0, 2],
                           [2, 0, 0, 1, 1], [0, 0, 0, 0, 1]),
    "cycle6": chain_of([0, 0, 1, 2, 0, 0], [0, 0, 3, 1, 0, 0],
                       [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1],
                       [1, 0, 0, 0, 0, 0], [2, 5, 0, 0, 0, 0]),
    "reducible6": chain_of([1, 1, 1, 0, 0, 1], [0, 2, 0, 1, 0, 0],
                           [0, 0, 0, 1, 0, 0], [0, 0, 1, 1, 0, 0],
                           [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(SPARSE_CHAINS))
def test_sparse_resolvents_match_powers_and_recursion(name):
    # Entries have degree <= 6, so 13 matching coefficients pin each one.
    chain = SPARSE_CHAINS[name]
    powers = [n_step(chain, n) for n in range(13)]
    for i in range(chain.n):
        for j in range(chain.n):
            series = resolvent(chain, i, j).series(12)
            assert series == tuple(powers[n][i][j] for n in range(13))
        assert theta_gf(chain, i).series(12)[1:] == first_return(chain, i, 12)


def test_sparse_chain_structure():
    cycle = SPARSE_CHAINS["cycle6"]
    assert cycle.is_irreducible()
    assert all(period(cycle, i) == 3 for i in range(6))
    assert theta_gf(cycle, 0).eval(frac(1)) == 1
    absorbing = SPARSE_CHAINS["absorbing5"]
    assert not absorbing.is_irreducible()
    assert theta_gf(absorbing, 4).display() == "r"
    assert theta_gf(absorbing, 0).eval(frac(1)) < 1
    reducible = SPARSE_CHAINS["reducible6"]
    assert not reducible.is_irreducible()
    assert resolvent(reducible, 2, 0).num.is_zero()
    assert theta_gf(reducible, 4).display() == "r^2"


def test_one_elimination_per_chain(monkeypatch):
    calls = []
    real = markov._det_adjugate

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(markov, "_det_adjugate", counted)
    chain = TransitionMatrix(SPARSE_CHAINS["absorbing5"].rows)
    markov_report(chain, 1, series_terms=6)
    for i in range(chain.n):
        for j in range(chain.n):
            resolvent(chain, i, j)
    assert len(calls) == 1
    n_step(chain, 5)
    first_return(chain, 2, 5)
    assert len(calls) == 1


def test_markov_report_reduces_each_function_once(monkeypatch):
    # One gcd for P_ii; Theta, built from that P_ii, needs none.
    gcds = []
    real = markov.poly_gcd

    def counted(a, b):
        gcds.append(1)
        return real(a, b)
    monkeypatch.setattr(markov, "poly_gcd", counted)
    chain = TransitionMatrix(SPARSE_CHAINS["cycle6"].rows)
    rep = markov_report(chain, 0, series_terms=6)
    assert len(gcds) == 1
    assert rep["P_gf"] == resolvent(chain, 0, 0).display()
    assert rep["Theta_gf"] == theta_gf(chain, 0).display()


@pytest.mark.parametrize("i, j", [(5, 0), (0, 5), (-1, 0), (0, -1)])
def test_resolvent_state_out_of_range(i, j):
    with pytest.raises(ValueError):
        resolvent(SPARSE_CHAINS["absorbing5"], i, j)


def test_one_power_sequence_per_chain(monkeypatch):
    # markov_report and every state's first_return share one running product.
    products = []
    mat_mul = markov._mat_mul

    def spy(a, b):
        products.append(1)
        return mat_mul(a, b)
    monkeypatch.setattr(markov, "_mat_mul", spy)
    chain = TransitionMatrix.build(
        [[0, 1, 0], ["1/2", 0, "1/2"], ["1/3", "1/3", "1/3"]])
    markov_report(chain, 0, series_terms=8)
    for i in range(chain.n):
        first_return(chain, i, 8)
        period(chain, i)
    assert len(products) == 8 - 1


def test_period_state_out_of_range():
    chain = TransitionMatrix.build([[0, 1, 0], [1, 0, 0], ["1/2", 0, "1/2"]])
    assert [period(chain, i) for i in range(3)] == [2, 2, 1]
    for i in (-1, chain.n):
        with pytest.raises(ValueError, match="state index out of range"):
            period(chain, i)


def random_sparse_chain(rng, n):
    rows = []
    for _ in range(n):
        raw = [int(v) * int(rng.random() < 0.5) for v in rng.integers(1, 10, size=n)]
        raw[int(rng.integers(n))] += 1
        rows.append([Fraction(v, sum(raw)) for v in raw])
    return TransitionMatrix.build(rows)


def fraction_inverse(m):
    """Reference: the inverse of a square Fraction matrix by Gauss-Jordan
    elimination with row swaps, over Q."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def test_det_adjugate_matches_an_independent_inverse():
    # adj(r)/det(r) from evaluation and interpolation equals (I - rP)^-1,
    # computed over Q at rationals |r| < 1 and at r = 0.
    rng = np.random.default_rng(22)
    chains = list(SPARSE_CHAINS.values()) + [SWAP, LAZY]
    for n in range(2, 9):
        chains.append(random_chain([int(v) for v in rng.integers(1, 10, size=n * n)], n))
        chains.append(random_sparse_chain(rng, n))
    for chain in chains:
        det, adj = markov._det_adjugate(chain.rows)
        assert det.degree <= chain.n and all(p.degree < chain.n for row in adj for p in row)
        for r in (frac(0), frac(1, 3), frac(-1, 2), frac(5, 7), frac(-9, 10), frac(99, 100)):
            want = fraction_inverse([[int(i == j) - r * p for j, p in enumerate(row)]
                                     for i, row in enumerate(chain.rows)])
            d = det.eval(r)
            assert [[q.eval(r) / d for q in row] for row in adj] == want


def test_exact_quotients_refuse_any_remainder():
    assert markov._exact_quotients([6, -4, 0], 2) == [3, -2, 0]
    assert markov._exact_quotients([-6, 9], -3) == [2, -3]
    # [1, 1] sums to a multiple of 2, and [-3, 3] to 0: each entry must divide.
    for values, divisor in (([7], 2), ([1, 1], 2), ([-3, 3], 2), ([5, 1], -3)):
        with pytest.raises(ArithmeticError, match="left a remainder"):
            markov._exact_quotients(values, divisor)


def test_integer_elimination_and_powers():
    # The kernels run on P = A/D: every coefficient and every memoised
    # power entry is a Python int, never a Fraction.
    chains = [TransitionMatrix(c.rows) for c in SPARSE_CHAINS.values()]
    chains.append(random_sparse_chain(np.random.default_rng(5), 6))
    for chain in chains:
        det, adj = markov._det_adjugate(chain.rows)
        coeffs = [c for p in [det] + [p for row in adj for p in row] for c in p.c]
        assert coeffs and all(type(c) is int for c in coeffs)
        first_return(chain, 0, 10)
        memo = chain._power_memo
        assert len(memo) == 10
        assert all(type(x) is int for power in memo for row in power for x in row)


def test_rational_function_canonical_form():
    # 3p/2q in lowest terms, with p = 4 - 2r + 3r^2 and q = 12 - 10r^2 + r^3.
    p = Poly([4, -2, 3])
    q = Poly([12, 0, -10, 1])
    forms = [RationalFunction(scaled(p, 6), scaled(q, 4)),
             RationalFunction(scaled(p, -3), scaled(q, -2)),
             RationalFunction(scaled(p, 15), scaled(q, 10)), RationalFunction(p, q)]
    assert parts(forms[-1]) != parts(forms[0])
    forms.pop()
    assert all(parts(rf) == parts(forms[0]) for rf in forms)
    for rf in forms:
        coeffs = rf.num.c + rf.den.c
        assert all(type(c) is int for c in coeffs)
        assert math.gcd(*coeffs) == 1 and rf.den.c[-1] > 0
    assert forms[0].num.c == (12, -6, 9) and forms[0].den.c == (24, 0, -20, 2)
    assert forms[0].eval(1) == Fraction(15, 6) and type(forms[0].eval(1)) is Fraction


def test_display_with_zero_constant_term():
    # The denominator is scaled to leading coefficient 1 when den(0) = 0.
    assert RationalFunction(Poly([1]), Poly([0, 2])).display() == "(1/2)/(r)"
    assert (RationalFunction(Poly([2, 6]), Poly([0, 0, 9])).display()
            == "(2/9+2r/3)/(r^2)")
    # A constant denominator prints the numerator alone.
    assert RationalFunction(Poly([2, 4, 0, -6]), Poly([4])).display() == "1/2+r-3r^3/2"
    assert RationalFunction(Poly(), Poly([3])).display() == "0"


def test_zero_function_is_zero_over_one():
    # State 0 is absorbing, so it never reaches state 2.
    chain = TransitionMatrix.build([[1, 0, 0], [Fraction(1, 2), Fraction(1, 2), 0],
                                    [0, Fraction(1, 3), Fraction(2, 3)]])
    zero = resolvent(chain, 0, 2)
    assert parts(zero) == ((), (1,))
    assert zero.display() == "0"
    assert radius_of_convergence(zero) == math.inf
    assert parts(RationalFunction(Poly(), Poly([0, 3]))) == ((), (1,))


SIX = chain_of([2, 1, 3, 1, 1, 1], [1, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6],
               [5, 1, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1], [1, 1, 1, 0, 0, 0])


@pytest.mark.parametrize("rf, radius", [
    (theta_gf(SIX, 4), 1.1360882190969384),
    # Newton on the non-monic integer denominator gives ...381, on a
    # derivative rounded twice (np.polyder) 1.0, and with np.polyval's
    # complex products 0.9999999999999999.
    (RationalFunction(Poly([1]), Poly([77, -156, 61, 38, -20])), 1.0000000000000002),
    (RationalFunction(Poly([1]), Poly([63, -153, 115, -23, -2])), 1.0),
])
def test_radius_pinned_to_the_last_digit(rf, radius):
    assert radius_of_convergence(rf) == radius


def reaches_all_by_bfs(chain):
    for start in range(chain.n):
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for v in range(chain.n):
                if chain.rows[u][v] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < chain.n:
            return False
    return True


def test_is_irreducible_matches_bfs():
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(120):
        chain = random_sparse_chain(rng, int(rng.integers(1, 7)))
        verdicts.append(chain.is_irreducible())
        assert verdicts[-1] == reaches_all_by_bfs(chain)
    assert any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------------------
# Integer gcd: primitive pseudo-remainder sequence
# ---------------------------------------------------------------------------

def rational_divmod(a, b):
    """Reference: quotient and remainder over Q of ascending coefficient
    lists, the remainder without trailing zeros."""
    rem, quo = [Fraction(x) for x in a], []
    for shift in reversed(range(len(a) - len(b) + 1)):
        coef = rem.pop() / b[-1]
        quo.insert(0, coef)
        for i, x in enumerate(b[:-1]):
            rem[shift + i] -= coef * x
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def euclid_gcd(a, b):
    """Reference: Euclid's algorithm over Q on nonzero coefficient lists,
    made monic."""
    a, b = list(a), list(b)
    while b:
        a, b = b, rational_divmod(a, b)[1]
    return [Fraction(x) / a[-1] for x in a]


def primitive_parts(*coeffs):
    """Reference: coefficient lists scaled jointly to integer polynomials
    with gcd 1 and a positive leading coefficient in the last one."""
    cs = [Fraction(x) for c in coeffs for x in c]
    scale = Fraction(math.lcm(*(x.denominator for x in cs)),
                     math.gcd(*(x.numerator for x in cs)))
    if coeffs[-1][-1] < 0:
        scale = -scale
    return tuple(Poly([int(x * scale) for x in c]) for c in coeffs)


def poly_mul(a, b):
    """Reference: the product of two polynomials, by the schoolbook rule."""
    out = [0] * (len(a.c) + len(b.c) - 1)
    for i, x in enumerate(a.c):
        for j, y in enumerate(b.c):
            out[i + j] += x * y
    return Poly(out)


def random_int_poly(rng, degree):
    coeffs = [int(v) for v in rng.integers(-9, 10, size=degree + 1)]
    coeffs[-1] = coeffs[-1] or 1
    return Poly(coeffs)


def test_poly_gcd_recovers_planted_factor():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 40:
        # A factor with content 3 and a negative lead, so only its primitive
        # part with a positive lead is the gcd.
        factor = scaled(random_int_poly(rng, int(rng.integers(1, 4))), -3)
        u, v = (random_int_poly(rng, int(rng.integers(0, 5))) for _ in range(2))
        if euclid_gcd(u.c, v.c) != [1]:
            continue  # the cofactors share a factor of their own
        checked += 1
        want, = primitive_parts(factor.c)
        a, b = poly_mul(factor, u), poly_mul(factor, v)
        g = poly_gcd(a, b)
        assert g.c == want.c and g.c[-1] > 0
        assert all(type(c) is int for c in g.c)
        assert poly_gcd(scaled(a, 14), scaled(b, -15)).c == want.c
        assert poly_gcd(b, a).c == want.c


def test_poly_gcd_coprime_and_zero_arguments():
    p = Poly([2, 4, -6])                    # 2 (1 + 2r - 3r^2)
    assert poly_gcd(Poly([1, 1]), Poly([1, -1])).c == (1,)
    assert poly_gcd(Poly([3]), p).c == (1,)
    assert poly_gcd(p, Poly()).c == (-1, -2, 3)
    assert poly_gcd(Poly(), scaled(p, -5)).c == (-1, -2, 3)
    assert poly_gcd(Poly(), Poly()).is_zero()


def euclid_rational(num, den):
    """Reference reduction: divide by the Euclid gcd, then scale jointly to
    integers with gcd 1 and a positive leading denominator coefficient.
    A zero numerator gets the denominator 1."""
    num, den = num.c, den.c
    if not num:
        den = (1,)
    else:
        g = euclid_gcd(num, den)
        num, den = rational_divmod(num, g)[0], rational_divmod(den, g)[0]
    rf = RationalFunction.__new__(RationalFunction)
    rf.num, rf.den = primitive_parts(num, den)
    return rf


def test_reductions_match_euclid_over_q():
    rng = np.random.default_rng(72)
    chains = list(SPARSE_CHAINS.values())
    chains += [random_sparse_chain(rng, int(rng.integers(2, 7))) for _ in range(50)]
    for chain in chains:
        det, adj = chain._det_adj
        for i in range(chain.n):
            for j in range(chain.n):
                want = euclid_rational(adj[i][j], det)
                got = resolvent(chain, i, j)
                assert parts(got) == parts(want) and got.display() == want.display()
            pii = euclid_rational(adj[i][i], det)
            want = euclid_rational(pii.num - pii.den, pii.num)
            got = theta_gf(chain, i)
            assert parts(got) == parts(want) and got.display() == want.display()


def test_theta_without_gcd_equals_the_gcd_route():
    # Theta is built from the reduced P_ii with no gcd; the gcd route
    # RationalFunction(num - den, num) gives the same reduced function.
    from kdcheck.verify import _random_positive_chain
    rng = np.random.default_rng(606)   # check 6's 50 chains, then swap and lazy
    chains = [_random_positive_chain(rng, int(rng.integers(2, 6))) for _ in range(50)]
    chains += [SWAP, LAZY, TransitionMatrix.build([[1]])]
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        rows = random_sparse_chain(rng, n).rows
        absorbing = int(rng.integers(n))
        if rng.random() < 0.5:   # make one state absorbing
            rows = [[Fraction(int(j == i)) for j in range(n)] if i == absorbing else row
                    for i, row in enumerate(rows)]
        chains.append(TransitionMatrix.build(rows))
    for chain in chains:
        for i in range(chain.n):
            pii = resolvent(chain, i, i)
            theta = markov._theta(pii)
            by_gcd = RationalFunction(pii.num - pii.den, pii.num)
            assert parts(theta) == parts(by_gcd) and theta.display() == by_gcd.display()
