import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from kdcheck.core import (Alphabet, FiniteDistribution, StateDensity, scale_to_integers,
                          state_from_json)
from kdcheck.hashing import build_family, lhl_distance
from kdcheck import quantum, verify
from kdcheck.quantum import (
    MAX_PHI_DIM,
    Ensemble,
    Povm,
    basis_plus_mixed_ensemble,
    e_gen,
    e_opt,
    ensemble_from_json,
    hashed_joint_blocks,
    phi_report,
    pretty_good_measurement,
    tripartite_distance,
    tripartite_report,
)
from kdcheck.verify import random_diagonal_ensemble, rotate_ensemble

DENSE_TOL = 1e-9


def diag_state(*entries):
    return StateDensity.from_diag(tuple(Fraction(e) if not isinstance(e, Fraction)
                                        else e for e in entries))


def two_state_ensemble():
    prior = FiniteDistribution(Alphabet(2), (Fraction(1, 2), Fraction(1, 2)))
    s0 = diag_state(Fraction(3, 4), Fraction(1, 4))
    s1 = diag_state(Fraction(1, 4), Fraction(3, 4))
    return Ensemble(prior, (s0, s1))


# ---------------------------------------------------------------------------
# Success probability table
# ---------------------------------------------------------------------------

def test_phi_n2_exact():
    rep = phi_report(2)
    assert rep["phi"] == Fraction(5, 9)
    assert rep["t_diag"] == Fraction(1, 2)
    assert rep["gamma_basis_coeff"] == Fraction(2, 3)
    assert rep["gamma_mixed_coeff"] == Fraction(1, 3)


def test_phi_closed_form_through_six():
    for n in range(2, 7):
        rep = phi_report(n)
        assert rep["phi"] == Fraction(n * n + 1, (n + 1) ** 2)
        assert rep["matches_closed_form"]


def test_phi_at_the_dimension_cap():
    rep = phi_report(MAX_PHI_DIM)
    assert rep["phi"] == Fraction(MAX_PHI_DIM**2 + 1, (MAX_PHI_DIM + 1) ** 2)
    assert rep["matches_closed_form"]


def test_phi_past_the_dimension_cap_builds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a Fraction")
    monkeypatch.setattr(quantum, "Fraction", refuse)
    with pytest.raises(ValueError, match="^dimension %d exceeds MAX_PHI_DIM = %d$"
                       % (MAX_PHI_DIM + 1, MAX_PHI_DIM)):
        phi_report(MAX_PHI_DIM + 1)


def test_basis_plus_mixed_average_is_maximally_mixed():
    ens = basis_plus_mixed_ensemble(3)
    assert numerator_average(ens) == (Fraction(1, 3),) * 3


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def test_pgm_is_complete():
    ens = two_state_ensemble()
    povm = pretty_good_measurement(ens)
    assert povm.exact
    assert [sum(e[i] for e in povm.elements) for i in range(2)] == [1, 1]


def test_pgm_complete_on_random_qutrit_ensembles():
    rng = np.random.default_rng(40)
    for _ in range(50):
        ens = rotate_ensemble(random_diagonal_ensemble(rng, 3, 3), rng)
        povm = pretty_good_measurement(ens)
        total = sum(povm.element_matrix(x) for x in range(len(povm.elements)))
        assert np.abs(total - np.eye(3)).max() < 1e-9


def test_orthogonal_pure_states_perfectly_distinguished():
    prior = FiniteDistribution(Alphabet(2), (Fraction(1, 2), Fraction(1, 2)))
    ens = Ensemble(prior, (diag_state(1, 0), diag_state(0, 1)))
    povm = pretty_good_measurement(ens)
    assert e_gen(ens, povm) == 1
    assert e_opt(ens) == 1


def test_pgm_exact_two_state_oracle():
    # weighted states (3/8, 1/8) and (1/8, 3/8); average is uniform
    # PGM elements divide entrywise by (1/2, 1/2)
    ens = two_state_ensemble()
    povm = pretty_good_measurement(ens)
    assert povm.elements[0] == (Fraction(3, 4), Fraction(1, 4))
    # success functionals: sum_q max_x for the optimum, 5/8 for the PGM
    assert e_opt(ens) == Fraction(3, 4)
    assert e_gen(ens, povm) == Fraction(5, 8)
    assert e_opt(ens) ** 2 <= e_gen(ens, povm) <= e_opt(ens)


def test_error_sandwich_exact():
    rng = np.random.default_rng(41)
    for _ in range(25):
        ens = random_diagonal_ensemble(rng, int(rng.integers(2, 5)),
                                       int(rng.integers(2, 5)))
        eo, eg = e_opt(ens), e_gen(ens)
        assert eo * eo <= eg <= eo


def reference_float_pgm(ens):
    """The float PGM with its average re-validated through ``from_matrix``."""
    t = StateDensity.from_matrix(ens.average()).to_matrix()
    evals, vecs = np.linalg.eigh(t)
    inv_sqrt = np.where(evals > quantum.PINV_CUTOFF,
                        1.0 / np.sqrt(np.clip(evals, quantum.PINV_CUTOFF, None)), 0.0)
    s = (vecs * inv_sqrt) @ vecs.conj().T
    elements = [s @ ens.weighted(x) @ s for x in range(len(ens.states))]
    return [0.5 * (g + g.conj().T) for g in elements], bool((evals <= quantum.PINV_CUTOFF).any())


def test_float_pgm_is_bit_identical_to_the_revalidated_route():
    # Check 2's draws: its 250 rotated (odd) trials, seed 2024.
    rng = np.random.default_rng(2024)
    for trial in range(500):
        ens = random_diagonal_ensemble(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        if trial % 2 == 0:
            continue
        ens = rotate_ensemble(ens, rng)
        assert isinstance(ens.average(), np.ndarray)
        povm = pretty_good_measurement(ens)
        elements, rank_deficient = reference_float_pgm(ens)
        assert povm.complete_on_support_only == rank_deficient
        assert [g.tobytes() for g in povm.elements] == [g.tobytes() for g in elements]


def test_error_sandwich_dense_commuting():
    rng = np.random.default_rng(42)
    for _ in range(10):
        ens = rotate_ensemble(
            random_diagonal_ensemble(rng, 3, 3), rng)
        eo, eg = e_opt(ens), e_gen(ens)
        assert eo * eo - DENSE_TOL <= eg <= eo + DENSE_TOL


def test_rotation_preserves_error_quantities():
    rng = np.random.default_rng(43)
    ens = random_diagonal_ensemble(rng, 3, 4)
    dens = rotate_ensemble(ens, rng)
    assert abs(float(e_opt(ens)) - e_opt(dens)) < DENSE_TOL
    assert abs(float(e_gen(ens)) - e_gen(dens)) < DENSE_TOL


def test_noncommuting_ensemble_rejected_for_e_opt():
    prior = FiniteDistribution(Alphabet(2), (Fraction(1, 2), Fraction(1, 2)))
    plus = StateDensity.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    zero = StateDensity.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ens = Ensemble(prior, (zero, plus))
    with pytest.raises(ValueError):
        e_opt(ens)


def test_cond_min_entropy_uniform_prior():
    # trivial side register: conditional min-entropy -log e_opt equals min-entropy
    prior = FiniteDistribution(Alphabet(2, 2),
                               (Fraction(1, 2), Fraction(1, 4),
                                Fraction(1, 8), Fraction(1, 8)))
    triv = Ensemble(prior, tuple([diag_state(Fraction(1))] * 4))
    assert e_opt(triv) == Fraction(1, 2)
    h = -math.log(e_opt(triv), 4)
    assert abs(h - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# Hashed key with a side register
# ---------------------------------------------------------------------------

def test_trivial_side_register_matches_classical():
    rng = np.random.default_rng(44)
    fam = build_family("linear", 2, 2, 1)
    for _ in range(5):
        prior = FiniteDistribution.random_rational(Alphabet(2, 2), rng)
        ens = Ensemble(prior, tuple([diag_state(Fraction(1))] * 4))
        cq = hashed_joint_blocks(ens, fam)
        assert tripartite_distance(cq) == lhl_distance(prior, fam)


def block_values(cq):
    """The blocks of a hashed exact state, ``counts / denominator``, as nested
    lists: the counts are joined here from the state's carried limbs."""
    counts = sum(limb.astype(object) << cq.bits * j for j, limb in enumerate(cq.limbs))
    return [[[Fraction(c, cq.denominator) for c in b] for b in row]
            for row in np.moveaxis(counts, 0, 2).tolist()]


def test_key_sum_per_seed_is_scaled_side_state():
    # summing the joint blocks over keys must give (1/|G|) T_Q per seed
    rng = np.random.default_rng(48)
    fam = build_family("linear", 2, 2, 1)
    ens = random_diagonal_ensemble(rng, 4, 3)
    cq = hashed_joint_blocks(ens, fam)
    blocks = block_values(cq)
    avg = ref_average(ens)
    for g in range(cq.group_size):
        acc = [Fraction(0)] * cq.dim_q
        for kappa in range(cq.q ** cq.k):
            for i, v in enumerate(blocks[kappa][g]):
                acc[i] += v
        assert tuple(acc) == tuple(a / cq.group_size for a in avg)


def test_tripartite_report_exact_and_satisfied():
    rng = np.random.default_rng(45)
    fam = build_family("linear", 2, 2, 1)
    for _ in range(10):
        ens = random_diagonal_ensemble(rng, 4, 3)
        rep = tripartite_report(ens, fam)
        assert rep["satisfied"] and rep["precondition_met"]
        assert rep["exact_comparison"]
        assert rep["distance"] <= rep["bound"] + 1e-15


def test_tripartite_manual_h_plus_flagged():
    rng = np.random.default_rng(46)
    fam = build_family("linear", 2, 2, 1)
    ens = random_diagonal_ensemble(rng, 4, 2)
    hmin = rep_hmin = tripartite_report(ens, fam)["h_min_cond"]
    rep = tripartite_report(ens, fam, h_plus=rep_hmin + 1.0)
    assert not rep["precondition_met"]


def test_side_marginal_is_average_state():
    rng = np.random.default_rng(47)
    fam = build_family("linear", 2, 2, 1)
    ens = random_diagonal_ensemble(rng, 4, 3)
    cq = hashed_joint_blocks(ens, fam)
    side = [sum(b[i] for row in block_values(cq) for b in row) for i in range(cq.dim_q)]
    assert tuple(side) == ref_average(ens)
    assert cq._side_counts().tolist() == [t * cq.denominator for t in side]


def test_ensemble_from_json_roundtrip():
    data = {
        "prior": {"alphabet": {"size": 2, "power": 1},
                  "weights": ["1/2", "1/2"]},
        "states": [{"dim": 2, "diag": ["3/4", "1/4"]},
                   {"dim": 2, "diag": ["1/4", "3/4"]}],
    }
    ens = ensemble_from_json(data)
    assert ens.exact
    assert e_opt(ens) == Fraction(3, 4)


def test_ensemble_validation():
    prior = FiniteDistribution(Alphabet(2), (Fraction(1, 2), Fraction(1, 2)))
    sub = StateDensity.from_diag((Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(ValueError):
        Ensemble(prior, (sub, sub))
    with pytest.raises(ValueError):
        Ensemble(prior, (diag_state(Fraction(1)),
                         diag_state(Fraction(1, 2), Fraction(1, 2))))


# ---------------------------------------------------------------------------
# Integer side-register kernel against per-cell references
# ---------------------------------------------------------------------------

def brute_blocks(ens, fam):
    """``(1/|G|) sum_{x: g(x)=kappa} p_x rho_x`` one (member, symbol) cell at a time."""
    size = fam.group_size
    blocks = [[[Fraction(0)] * ens.dim for _ in range(size)]
              for _ in range(fam.q**fam.k)]
    for g, t in enumerate(fam.maps):
        for x in range(len(ens.states)):
            for i, v in enumerate(ref_weighted(ens, x)):
                blocks[t[x]][g][i] += v / size
    return blocks


def brute_tripartite(blocks, q, k):
    size, dim = len(blocks[0]), len(blocks[0][0])
    side = [sum(b[i] for row in blocks for b in row) for i in range(dim)]
    scale = Fraction(1, q**k * size)
    return sum(abs(v - scale * t) for row in blocks for b in row
               for v, t in zip(b, side)) / q


def big_denominator_ensemble():
    """Rational diagonal ensemble on 8 symbols whose entries need > 63 bits."""
    dens = (2**61 - 1, 2**31 - 1, 3, 5, 7, 11, 13)
    prior = [Fraction(1, d) for d in dens]
    prior.append(1 - sum(prior))
    states = []
    for x in range(8):
        a = Fraction(x + 1, 2**59 + 2 * x + 1) if x % 2 else Fraction(x, 9)
        states.append(diag_state(a, Fraction(0), 1 - a))
    return Ensemble(FiniteDistribution(Alphabet(2, 3), tuple(prior)), tuple(states))


def test_hashed_blocks_exact_past_int64():
    ens = big_denominator_ensemble()
    den = math.lcm(*(v.denominator for x in range(8) for v in ref_weighted(ens, x)))
    assert den > 2**63
    fam = build_family("toeplitz", 2, 3, 2)
    cq = hashed_joint_blocks(ens, fam)
    ref = brute_blocks(ens, fam)
    assert block_values(cq) == ref
    assert tuple(Fraction(t, cq.denominator) for t in cq._side_counts()) \
        == ref_average(ens)
    dist = tripartite_distance(cq)
    assert isinstance(dist, Fraction)
    assert dist == brute_tripartite(ref, 2, 2)


def test_trivial_side_register_past_int64():
    ens = big_denominator_ensemble()
    trivial = Ensemble(ens.prior, tuple([diag_state(1)] * 8))
    fam = build_family("linear", 2, 3, 1)
    assert tripartite_distance(hashed_joint_blocks(trivial, fam)) \
        == lhl_distance(ens.prior, fam)


def test_side_register_route_skips_classical_pushforward(monkeypatch):
    from kdcheck import hashing

    def forbidden(*args):
        raise AssertionError("side-register route used the classical pushforward")

    fam = build_family("linear", 2, 2, 1)
    prior = FiniteDistribution(Alphabet(2, 2), tuple(
        Fraction(r, 10) for r in (1, 2, 3, 4)))
    classical = lhl_distance(prior, fam)
    monkeypatch.setattr(hashing, "joint_state", forbidden)
    monkeypatch.setattr(hashing, "_cell_sums", forbidden)
    ens = Ensemble(prior, tuple([diag_state(1)] * 4))
    assert tripartite_distance(hashed_joint_blocks(ens, fam)) == classical


def test_float_side_register_matches_exact():
    rng = np.random.default_rng(49)
    fam = build_family("linear", 2, 2, 1)
    ens = random_diagonal_ensemble(rng, 4, 3)
    floats = Ensemble(
        FiniteDistribution(ens.alphabet, tuple(ens.prior.as_floats().tolist())),
        tuple(StateDensity.from_diag(tuple((s.numerators / s.denominator).tolist()))
              for s in ens.states))
    assert not floats.exact
    cq = hashed_joint_blocks(floats, fam)
    exact = tripartite_distance(hashed_joint_blocks(ens, fam))
    assert abs(tripartite_distance(cq) - float(exact)) < 1e-12
    assert np.allclose(np.array(cq._side_counts(), dtype=float) / cq.denominator,
                       [float(v) for v in ref_average(ens)])
    # Dense states, diagonal only in a rotated common basis.
    rotated = rotate_ensemble(ens, rng)
    dense = tripartite_distance(hashed_joint_blocks(rotated, fam))
    assert abs(dense - float(exact)) < DENSE_TOL


# ---------------------------------------------------------------------------
# Integer exact path against per-entry Fraction references
# ---------------------------------------------------------------------------

def ref_weighted(ens, x):
    p = Fraction(ens.prior.numerators[x], ens.prior.denominator)
    s = ens.states[x]
    return tuple(p * Fraction(n, s.denominator) for n in s.numerators)


def numerator_weighted(ens, x):
    """``p_x rho_x`` read from an exact ensemble's integers."""
    return tuple(Fraction(n, ens.denominator) for n in ens.numerators[x])


def numerator_average(ens):
    """The ensemble average read from an exact ensemble's integers."""
    return tuple(Fraction(sum(col), ens.denominator) for col in zip(*ens.numerators))


def ref_average(ens):
    acc = [Fraction(0)] * ens.dim
    for x in range(len(ens.states)):
        for i, d in enumerate(ref_weighted(ens, x)):
            acc[i] += d
    return tuple(acc)


def ref_pgm(ens):
    """PGM elements entry by entry, and whether the average is rank deficient."""
    t = ref_average(ens)
    elements = []
    for x in range(len(ens.states)):
        elements.append(tuple((d / ti if ti != 0 else Fraction(0))
                              for d, ti in zip(ref_weighted(ens, x), t)))
    return tuple(elements), any(ti == 0 for ti in t)


def ref_e_gen(ens, elements):
    acc = Fraction(0)
    for x in range(len(ens.states)):
        acc += sum((a * b for a, b in zip(ref_weighted(ens, x), elements[x])),
                   start=Fraction(0))
    return acc


def ref_e_opt(ens):
    total = Fraction(0)
    for i in range(ens.dim):
        total += max(ref_weighted(ens, x)[i] for x in range(len(ens.states)))
    return total


def argmax_povm(ens):
    """Exact POVM guessing, per basis vector, the first symbol of largest weight."""
    best = [col.index(max(col)) for col in
            zip(*(ref_weighted(ens, x) for x in range(len(ens.states))))]
    return Povm(ens.dim, tuple(tuple(Fraction(int(b == x)) for b in best)
                               for x in range(len(ens.states))), exact=True)


def exact_cases():
    yield big_denominator_ensemble()
    rng = np.random.default_rng(12)
    for _ in range(50):
        yield random_diagonal_ensemble(rng, int(rng.integers(2, 6)),
                                       int(rng.integers(2, 5)))


def test_integer_path_matches_fraction_reference():
    for ens in exact_cases():
        elements, rank_deficient = ref_pgm(ens)
        povm = pretty_good_measurement(ens)
        assert numerator_average(ens) == ref_average(ens)
        assert povm.elements == elements
        assert povm.complete_on_support_only == rank_deficient
        assert e_gen(ens, povm) == ref_e_gen(ens, elements)
        assert e_opt(ens) == ref_e_opt(ens)
        assert e_gen(ens, argmax_povm(ens)) == e_opt(ens)


def test_big_denominator_pgm_is_rank_deficient():
    ens = big_denominator_ensemble()
    assert ens.denominator > 2**63
    povm = pretty_good_measurement(ens)
    assert povm.complete_on_support_only
    assert all(e[1] == 0 for e in povm.elements)
    assert numerator_average(ens)[1] == 0


def test_ensemble_denominator_is_the_lcm_of_its_weighted_entries():
    fam = build_family("toeplitz", 2, 3, 2)
    rng = np.random.default_rng(13)
    for ens in (big_denominator_ensemble(), random_diagonal_ensemble(rng, 8, 3)):
        den = math.lcm(*(v.denominator for x in range(8) for v in ref_weighted(ens, x)))
        assert ens.denominator == den
        assert hashed_joint_blocks(ens, fam).denominator == fam.group_size * den
        assert all(numerator_weighted(ens, x) == ref_weighted(ens, x) for x in range(8))
        # The dense readouts are the float path's, on exact ensembles too.
        assert all(np.array_equal(ens.weighted(x), np.diag([float(p) * d for d in (
                       ens.states[x].numerators / ens.states[x].denominator).tolist()]))
                   for x, p in enumerate(ens.prior.as_floats()))
        dense = rotate_ensemble(ens, rng)
        assert dense.denominator is None and dense.numerators is None


def test_e_gen_rejects_a_povm_that_does_not_fit():
    two = two_state_ensemble()
    three = random_diagonal_ensemble(np.random.default_rng(14), 3, 3)
    qutrits = Ensemble(two.prior, (diag_state(1, 0, 0), diag_state(0, 1, 0)))
    for ens, other in ((two, three), (three, two), (two, qutrits), (qutrits, two)):
        with pytest.raises(ValueError, match="does not fit"):
            e_gen(ens, pretty_good_measurement(other))


# ---------------------------------------------------------------------------
# Exact states: integer numerators over one denominator
# ---------------------------------------------------------------------------

def earlier_state_integers(entries):
    """``(D, numerators)`` of the diagonal the earlier ``from_diag`` kept, one
    Fraction per entry."""
    return scale_to_integers(Fraction(e) for e in entries)


def earlier_ensemble_integers(ens):
    """``(denominator, numerators)`` as the earlier ``Ensemble.__init__`` built
    them: a Fraction product ``n_x * rho_x[i]`` per entry, scaled once."""
    states = [tuple(Fraction(a, s.denominator) for a in s.numerators) for s in ens.states]
    den, flat = scale_to_integers(
        n * d for n, diag in zip(ens.prior.numerators.tolist(), states) for d in diag)
    return den * ens.prior.denominator, tuple(zip(*[iter(flat)] * ens.dim))


def assert_integer_state(s, entries):
    assert (s.denominator, s.numerators.tolist()) == earlier_state_integers(entries)
    assert math.gcd(s.denominator, *s.numerators) == 1
    assert all(type(n) is int for n in s.numerators) and not s.numerators.flags.writeable
    # The dense readout is each entry's correctly rounded float, as float(Fraction).
    assert s.to_matrix().tobytes() == np.diag(
        [complex(float(Fraction(e))) for e in entries]).tobytes()


def check2_ensembles(monkeypatch):
    """The 500 exact ensembles check 2 draws, recorded while it runs."""
    drawn = []

    def record(*args):
        drawn.append(random_diagonal_ensemble(*args))
        return drawn[-1]
    monkeypatch.setattr(verify, "random_diagonal_ensemble", record)
    assert verify.check_pgm_sandwich()["passed"]
    return drawn


UNREDUCED = [["2/4", "1/4", "1/4"], ["0/3", "6/8", "2/8"], [1, "0", "0/7"],
             ["10/30", "10/30", "30/90"]]


def test_state_integers_match_the_fraction_route():
    for entries in UNREDUCED + [
            ["1/4", "1/4"], ["0", "0"], ["1/6", "1/10", "0", "1/15"],   # subnormalized
            ["1/%d" % 2**200, "%d/%d" % (3**120 - 1, 3**121)], ["3/%d" % 2**1076, 0]]:
        assert_integer_state(state_from_json({"diag": entries}), entries)
        parsed = [Fraction(e) for e in entries]
        assert_integer_state(StateDensity.from_diag(parsed), parsed)


def test_ensemble_integers_match_the_fraction_route(monkeypatch):
    ensembles = check2_ensembles(monkeypatch)
    assert len(ensembles) == 500
    ensembles += [basis_plus_mixed_ensemble(n) for n in (2, 3, 4, 5, 6, MAX_PHI_DIM)]
    ensembles.append(ensemble_from_json({
        "prior": {"alphabet": {"size": 2, "power": 2}, "weights": ["2/4", "0", "3/12", "1/4"]},
        "states": [{"diag": d} for d in UNREDUCED]}))
    ensembles.append(big_denominator_ensemble())
    for ens in ensembles:
        assert ens.exact
        assert (ens.denominator, ens.numerators) == earlier_ensemble_integers(ens)


def fraction_calls(monkeypatch, build):
    """How many Fractions ``build()`` constructs."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting))
        build()
    return len(calls)


def test_integer_generators_build_no_fraction_per_entry(monkeypatch):
    # The earlier generators built one Fraction per state entry and one per
    # weighted entry of the ensemble.
    def draw(n_symbols, dim):
        return fraction_calls(monkeypatch, lambda: random_diagonal_ensemble(
            np.random.default_rng(3), n_symbols, dim))
    assert draw(2, 2) == draw(64, 2) == draw(2, 100) == draw(32, 50)
    phi = [fraction_calls(monkeypatch, lambda: basis_plus_mixed_ensemble(n))
           for n in (2, 20, MAX_PHI_DIM)]
    assert phi == [phi[0]] * 3
