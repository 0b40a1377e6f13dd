import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from kdcheck import treeproc
from kdcheck.treeproc import (
    CHUNK,
    MAX_PATH_CELLS,
    PathEnsemble,
    grid_factor,
    increment_stats,
    refinement_delta,
    simulate,
    simulate_ensemble,
)

REPS = 4000


def test_grid_factor_oracles():
    assert grid_factor(0) == 1
    assert grid_factor(2) == 2
    assert grid_factor(4) == 8
    assert grid_factor(6) == 48
    assert grid_factor(8) == 384


def _exact_times(eta):
    """Times ``j / n`` of the ``n + 1`` points of a simulated level-``eta`` path."""
    n = simulate(1, eta).values.shape[1] - 1
    return tuple(Fraction(j, n) for j in range(n + 1))


def test_grid_contents():
    assert _exact_times(0) == (Fraction(0), Fraction(1))
    assert _exact_times(2) == (Fraction(0), Fraction(1, 2), Fraction(1))
    t4 = _exact_times(4)
    assert len(t4) == 9
    assert t4[1] == Fraction(1, 8)


def test_grids_nest_exactly():
    # factor 8 divides factor 48: every level-4 time appears at level 6
    t4, t6 = set(_exact_times(4)), set(_exact_times(6))
    assert t4 <= t6
    t8 = set(_exact_times(8))
    assert t6 <= t8


@pytest.mark.parametrize("eta", range(0, 12, 2))
def test_times_are_rounded_exact_times(capsys, eta):
    # The time column of a treesim CSV holds each j / f(eta) correctly rounded.
    from kdcheck import cli

    f = grid_factor(eta)
    assert simulate(1, eta).factor == f
    assert cli.main(["treesim", "--eta", str(eta)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [float(Fraction(j, f))
                                                      for j in range(f + 1)]


def test_odd_or_large_eta_rejected():
    with pytest.raises(ValueError):
        grid_factor(3)
    with pytest.raises(ValueError):
        grid_factor(18)
    with pytest.raises(ValueError):
        simulate_ensemble(1, 5, 10)


def test_path_starts_at_zero():
    ens = simulate_ensemble(2, 4, 50, seed=9)
    assert np.all(ens.values[:, 0, :] == 0.0)


def test_seed_determinism():
    a = simulate_ensemble(1, 6, 40, seed=5)
    b = simulate_ensemble(1, 6, 40, seed=5)
    c = simulate_ensemble(1, 6, 40, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_terminal_variance_near_one():
    ens = simulate_ensemble(1, 8, REPS, seed=0)
    var = ens.values[:, -1, 0].var(ddof=1)
    assert 0.93 < var < 1.07


def test_covariance_matches_min_of_times():
    ens = simulate_ensemble(1, 6, REPS, seed=1)
    times = [j / ens.factor for j in range(ens.factor + 1)]
    vals = ens.values[:, :, 0]
    idx = [len(times) // 4, len(times) // 2, len(times) - 1]
    for a in idx:
        for b in idx:
            cov = np.mean(vals[:, a] * vals[:, b])
            assert abs(cov - min(times[a], times[b])) < 0.05


def test_increment_stats_standard():
    # Levels nest: the level-4 grid of a level-6 ensemble is the level-4
    # simulation, so the statistics of either describe both.
    ens = simulate_ensemble(2, 4, REPS, seed=2)
    fine = simulate_ensemble(2, 6, REPS, seed=2)
    ratio = grid_factor(6) // grid_factor(4)
    assert np.array_equal(fine.values[:, ::ratio], ens.values)
    stats = increment_stats(ens)
    assert stats["eta"] == 4 and stats["n_increments"] == grid_factor(4)
    assert stats["corr_violations"] == 0
    assert abs(stats["var_min"] - stats["expected_var"]) < 0.02
    assert abs(stats["var_max"] - stats["expected_var"]) < 0.02
    assert stats["max_abs_mean"] < 0.02


def test_increment_stats_rejects_literal_mode():
    ens = simulate_ensemble(1, 4, 10, seed=3, mode="paper-literal")
    with pytest.raises(ValueError):
        increment_stats(ens)


def test_coarse_level_is_a_slice_of_the_finest():
    # Refinement copies existing points and draws only new ones, so a level-k
    # run is the level-k slice of a level-eta run with the same seed.
    for mode in ("standard", "paper-literal"):
        for dim, k, eta, reps, seed in [(1, 4, 8, 30, 7), (2, 2, 8, 257, 1),
                                        (3, 0, 6, 600, 2), (1, 6, 10, 257, 3),
                                        (2, 8, 8, 30, 4)]:
            fine = simulate_ensemble(dim, eta, reps, seed=seed, mode=mode)
            kept = simulate_ensemble(dim, k, reps, seed=seed, mode=mode)
            ratio = grid_factor(eta) // grid_factor(k)
            assert np.array_equal(kept.values, fine.values[:, ::ratio])


def test_refinement_deltas_shrink():
    deltas = refinement_delta(1, [4, 6, 8], seed=4, reps=60)
    med = np.median(deltas, axis=0)
    assert med[0] > med[1] > med[2]


def test_literal_mode_paths_differ():
    std = simulate_ensemble(1, 4, 20, seed=8)
    lit = simulate_ensemble(1, 4, 20, seed=8, mode="paper-literal")
    assert not np.array_equal(std.values, lit.values)


def test_single_path_shape():
    p = simulate(3, 6, seed=10)
    assert p.values.shape == (1, grid_factor(6) + 1, 3)
    assert p.path().shape == (grid_factor(6) + 1, 3)


@pytest.mark.parametrize("reps", [3, 300])
def test_ensemble_is_its_chunks_in_order(reps):
    # One chunk is returned as drawn; two or more are concatenated.
    ens = simulate_ensemble(2, 4, reps, seed=8)
    chunks = list(treeproc._chunks(2, 4, reps, 8, "standard"))
    assert len(chunks) == -(-reps // CHUNK)
    assert np.array_equal(ens.values, np.concatenate(chunks))


# Reference: the per-(gap, position) loop of the module docstring, one
# normal draw per new grid point, gaps left to right.
def _reference_refine(vals, eta_prev, eta, rng, mode):
    f_prev, f_new = grid_factor(eta_prev), grid_factor(eta)
    ratio = f_new // f_prev
    reps, _, d = vals.shape
    out = np.empty((reps, f_new + 1, d))
    out[:, ::ratio, :] = vals
    k = 0
    for g in range(f_prev):
        left, right = g * ratio, (g + 1) * ratio
        for j in range(left + 1, right):
            k += 1
            z = rng.standard_normal((reps, d))
            if mode == "standard":
                a = j - 1
                mean = out[:, a, :] + (out[:, right, :] - out[:, a, :]) / (right - a)
                var = ((1.0) * (right - j)) / ((right - a) * f_new)
                out[:, j, :] = mean + math.sqrt(var) * z
            else:
                pair = out[:, left, :] + out[:, right, :]
                out[:, j, :] = (1.0 / math.factorial(eta)) * pair * k + (1.0 / f_new) * z
    return out


def _reference_paths(dim, eta, reps, seed, mode):
    sizes = [CHUNK] * (reps // CHUNK) + ([reps % CHUNK] if reps % CHUNK else [])
    chunks = []
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(child)
        vals = np.zeros((size, 2, dim))
        vals[:, 1, :] = rng.standard_normal((size, dim))
        for e in range(2, eta + 1, 2):
            vals = _reference_refine(vals, e - 2, e, rng, mode)
        chunks.append(vals)
    return np.concatenate(chunks, axis=0)


@pytest.mark.parametrize("block", [1, 50, None])
@pytest.mark.parametrize("mode", ["standard", "paper-literal"])
@pytest.mark.parametrize("dim,eta,reps,seed", [
    (1, 10, 257, 0), (2, 4, 700, 3), (3, 8, 5, 1), (1, 10, 2, 2)])
def test_blocked_kernel_matches_reference(monkeypatch, block, mode, dim, eta,
                                          reps, seed):
    # block=1 puts one gap in each block; None keeps the default block size.
    if block is not None:
        monkeypatch.setattr(treeproc, "_BLOCK_NORMALS", block)
    ens = simulate_ensemble(dim, eta, reps, seed=seed, mode=mode)
    assert np.array_equal(ens.values, _reference_paths(dim, eta, reps, seed, mode))


@functools.lru_cache(maxsize=None)
def _reference_path(dim, eta, reps, seed, mode, rep):
    return _reference_paths(dim, eta, reps, seed, mode)[rep]


@pytest.mark.parametrize("block", [1, None])
@pytest.mark.parametrize("reps,rep", [(1, 0), (257, 256), (300, 299), (600, 599)])
@pytest.mark.parametrize("eta", [0, 2, 10])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["standard", "paper-literal"])
def test_one_path_is_its_row_of_the_ensemble(monkeypatch, block, reps, rep, eta,
                                             dim, mode):
    # simulate fills only the printed path, but draws the whole chunk's normals.
    if block is not None:
        monkeypatch.setattr(treeproc, "_BLOCK_NORMALS", block)
    one = simulate(dim, eta, seed=5, mode=mode, reps=reps, rep=rep)
    assert one.values.shape == (1, grid_factor(eta) + 1, dim)
    assert np.array_equal(one.path(), _reference_path(dim, eta, reps, 5, mode, rep))


@pytest.mark.parametrize("reps,rep", [(3, 3), (3, -1), (1, 1), (300, 300)])
def test_one_path_rep_checked_before_simulating(no_simulation, reps, rep):
    with pytest.raises(ValueError, match="rep index out of range"):
        simulate(1, 4, reps=reps, rep=rep)


# refinement_delta refines in standard mode only; the ids name it.
@pytest.mark.parametrize("block", [1, None], ids=["standard-1", "standard-None"])
def test_refinement_delta_matches_reference_kernel(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(treeproc, "_BLOCK_NORMALS", block)
    got = refinement_delta(2, [2, 4, 6], seed=3, reps=260)

    def reference(vals, eta_prev, eta, rng, mode, reps, keep):
        assert len(vals) == reps  # refinement_delta keeps every path
        assert mode == "standard"
        return _reference_refine(vals, eta_prev, eta, rng, mode)
    monkeypatch.setattr(treeproc, "_refine", reference)
    want = refinement_delta(2, [2, 4, 6], seed=3, reps=260)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,reps", [(0, 4), (1, 0), (2, -1)])
def test_refinement_delta_validates_sizes(dim, reps):
    what = "dimension" if dim < 1 else "replication count"
    with pytest.raises(ValueError, match=what + " must be >= 1"):
        refinement_delta(dim, [4], reps=reps)


class _Simulated(Exception):
    pass


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Simulated
    monkeypatch.setattr(treeproc, "_simulate_chunk", refuse)


@pytest.mark.parametrize("call", [
    lambda: simulate_ensemble(1, 16, 256),              # 2.6e9 cells per chunk
    lambda: simulate_ensemble(2, 16, 1),                # 2.1e7 cells
    lambda: refinement_delta(1, [14], reps=256),        # working level only
    lambda: simulate_ensemble(1, 12, 400),              # returned level only
    lambda: refinement_delta(1, [16], reps=2),
    lambda: simulate(1, 16, reps=256, rep=255),         # one path, as its ensemble
    lambda: simulate(1, 12, reps=400, rep=0),
    lambda: simulate(2, 16),
])
def test_path_cap_checked_before_simulating(no_simulation, call):
    with pytest.raises(ValueError, match="path cells exceeds cap %d" % MAX_PATH_CELLS):
        call()


@pytest.mark.parametrize("call", [
    lambda: simulate_ensemble(1, 12, 256),              # 11.8M cells
    lambda: simulate_ensemble(1, 16, 1),                # 10.3M cells
    lambda: refinement_delta(1, [16], reps=1),
    lambda: simulate(1, 12, reps=256, rep=255),
    lambda: simulate(1, 16),
])
def test_path_cap_admits_desk_sizes(no_simulation, call):
    with pytest.raises(_Simulated):
        call()
