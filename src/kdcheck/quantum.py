"""Classical-quantum ensembles, pretty-good measurement, guessing bounds.

An :class:`Ensemble` pairs a prior on symbols with one density operator
per symbol.  The pretty-good measurement conjugates every weighted state
by the inverse square root of the ensemble average; its success
probability ``e_gen`` sandwiches the optimal guessing probability
``e_opt`` via ``e_opt**2 <= e_gen <= e_opt``.  A diagonal rational
ensemble holds every ``p_x rho_x`` once as integer numerators over one
denominator ``D``, built from its prior's and its states' integers with
one gcd, and its exact path runs on those integers; commuting
dense ensembles are rotated once into a verified common eigenbasis;
``e_opt`` is defined on commuting ensembles only.

Hashing a quantum side register: ``hashed_joint_blocks`` forms the
subnormalized blocks ``(1/|G|) sum_{x: g(x)=kappa} T_x`` of the
(key, member, side) state, and ``tripartite_report`` checks the exact
distance of that state from (uniform key) x (member) x (side marginal)
against ``q**-((h_plus - k)/2)``.  The blocks are diagonal in the
ensemble's common eigenbasis.  Their one pushforward sums integers per
(key, member) cell, as exact float64 limbs multiplied key by key by an
indicator of the family's table, in steps of ``hashing.CHUNK_CELLS`` table
cells: a rational ensemble's numerators over ``|G| D``, or a float
ensemble's diagonals, exact integers over one power of two, whose distance
is rounded to a float once.  The distance sums only the entries above
their share of the side marginal, twice, since the signed terms sum to
zero.  This pushforward is apart from ``hashing.joint_state`` (a scatter),
so that a trivial side register gives a second route to the classical
distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    Alphabet,
    FiniteDistribution,
    StateDensity,
    distribution_from_json,
    state_from_json,
)
from .hashing import (CHUNK_CELLS, MAX_TABLE_CELLS, HashFamily, _bound_verdict,
                      _entropy_floor, _join_limbs, _limbs, _set_counts,
                      lhl_bound)

COMMUTE_TOL = 1e-9
PINV_CUTOFF = 1e-12
# Largest basis-plus-mixed dimension: its ~n**2 exact entries make the PGM
# table grow faster than n**2 in time; n = 200 takes about a second on a
# 2-core host.
MAX_PHI_DIM = 200
# Limb sums per side-register pushforward, q**k |G| dim_q entries times limbs
# per entry: 2**24 on Toeplitz (2, 8, 3) took 3.8 s and 474 MB (2-core host).
MAX_LIMB_CELLS = 2**24


class Ensemble:
    """Prior plus one normalized state per symbol, all of one dimension.

    An exact ensemble holds ``p_x rho_x[i] = numerators[x][i] / denominator``
    in integers, built once; a float one holds None in both fields."""

    __slots__ = ("alphabet", "prior", "states", "dim", "exact",
                 "denominator", "numerators", "_diagonals")

    def __init__(self, prior: FiniteDistribution, states: Sequence[StateDensity]):
        states = tuple(states)
        if len(states) != prior.alphabet.num_symbols:
            raise ValueError(
                "need one state per symbol: %d states for %d symbols"
                % (len(states), prior.alphabet.num_symbols)
            )
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError("all states must share one dimension")
        if not all(s.is_normalized for s in states):
            raise ValueError("ensemble states must have trace 1")
        dim = dims.pop()
        exact = prior.exact and all(s.exact for s in states)
        den = numerators = None
        if exact:
            # p_x rho_x[i] = n_x a_x[i] (L / D_x) / (D_p L), L = lcm(D_x), over one gcd.
            lcm = math.lcm(*(s.denominator for s in states))
            rows = [s.numerators * (n * (lcm // s.denominator))
                    for n, s in zip(prior.numerators.tolist(), states)]
            g = math.gcd(prior.denominator * lcm, *(math.gcd(*row) for row in rows))
            den = prior.denominator * lcm // g
            numerators = tuple(tuple((row // g).tolist()) for row in rows)
        for name, value in zip(self.__slots__, (prior.alphabet, prior, states,
                                                dim, exact, den, numerators, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Ensemble is immutable")

    def weighted(self, x: int) -> np.ndarray:
        """Subnormalized operator ``p_x rho_x`` as a dense float array."""
        return self.prior.as_floats()[x] * self.states[x].to_matrix()

    def average(self) -> np.ndarray:
        """Ensemble average ``sum_x p_x rho_x``: exactly Hermitian, as each term is."""
        return sum(self.weighted(x) for x in range(len(self.states)))


@dataclass(frozen=True)
class Povm:
    """Measurement elements summing to the identity on ``support``.

    ``elements`` are diagonal tuples or dense Hermitian arrays.  When the
    ensemble average is rank deficient they sum to its support projector
    instead of the identity (``complete_on_support_only``).
    """

    dim: int
    elements: Tuple
    exact: bool
    complete_on_support_only: bool = False

    def element_matrix(self, x: int) -> np.ndarray:
        e = self.elements[x]
        if isinstance(e, tuple):
            return np.diag(np.array([float(v) for v in e], dtype=complex))
        return e


def _common_eigenbasis(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Unitary diagonalizing every matrix of a commuting family at once."""
    if any(np.abs(a @ b - b @ a).max() > COMMUTE_TOL
           for i, a in enumerate(mats) for b in mats[i + 1:]):
        raise ValueError("ensemble states do not commute within 1e-9")
    dim = mats[0].shape[0]
    rng = np.random.default_rng(0x5EED)
    for _ in range(8):
        w = rng.random(len(mats)) + 0.5
        mix = sum(wi * m for wi, m in zip(w, mats))
        _, v = np.linalg.eigh(mix)
        ok = True
        for m in mats:
            rot = v.conj().T @ m @ v
            if np.abs(rot - np.diag(np.diag(rot))).max() > COMMUTE_TOL:
                ok = False
                break
        if ok:
            return v
    raise ValueError("failed to find a common eigenbasis within tolerance")


def _diagonals_in_common_basis(ensemble: Ensemble) -> np.ndarray:
    """Weighted float operators' diagonals in a common basis, ``(symbols, dim)``:
    searched on the first read and kept, read-only, on the ensemble."""
    if ensemble._diagonals is None:
        mats = [ensemble.weighted(x) for x in range(len(ensemble.states))]
        if not all(np.abs(m - np.diag(np.diag(m))).max() < COMMUTE_TOL for m in mats):
            basis = _common_eigenbasis(mats)
            mats = [basis.conj().T @ m @ basis for m in mats]
        diagonals = np.array([np.real(np.diag(m)) for m in mats], dtype=float)
        diagonals.flags.writeable = False
        object.__setattr__(ensemble, "_diagonals", diagonals)
    return ensemble._diagonals


def pretty_good_measurement(ensemble: Ensemble) -> Povm:
    """PGM ``Gamma_x = T^(-1/2) (p_x rho_x) T^(-1/2)`` on the support of T.

    Diagonal rational ensembles stay exact: ``Gamma_x[i] = W[x][i] / T_i``
    on the numerators ``W`` and their column sums ``T`` (0 where
    ``T_i = 0``).  Dense ensembles use an eigendecomposition with
    pseudo-inverse cutoff 1e-12.
    """
    if ensemble.exact:
        t = [sum(col) for col in zip(*ensemble.numerators)]
        elements = tuple(
            tuple(Fraction(w, ti) if ti else Fraction(0) for w, ti in zip(row, t))
            for row in ensemble.numerators)
        rank_deficient = 0 in t
        return Povm(ensemble.dim, elements, exact=True,
                    complete_on_support_only=rank_deficient)
    t = ensemble.average()
    evals, vecs = np.linalg.eigh(t)
    inv_sqrt = np.where(evals > PINV_CUTOFF, 1.0 / np.sqrt(np.clip(evals, PINV_CUTOFF, None)), 0.0)
    s = (vecs * inv_sqrt) @ vecs.conj().T
    elements = []
    for x in range(len(ensemble.states)):
        g = s @ ensemble.weighted(x) @ s
        elements.append(0.5 * (g + g.conj().T))
    rank_deficient = bool((evals <= PINV_CUTOFF).any())
    return Povm(ensemble.dim, tuple(elements), exact=False,
                complete_on_support_only=rank_deficient)


def e_gen(ensemble: Ensemble, povm: Optional[Povm] = None):
    """Success probability ``sum_x tr((p_x rho_x) Gamma_x)`` of a measurement.

    Defaults to the pretty-good measurement.  Exact Fraction for diagonal
    rational ensembles with an exact POVM.  Raises ValueError unless the
    POVM has one element per symbol and the ensemble's dimension.
    """
    if povm is None:
        povm = pretty_good_measurement(ensemble)
    if len(povm.elements) != len(ensemble.states) or povm.dim != ensemble.dim:
        raise ValueError("a POVM of %d elements in dimension %d does not fit %d states "
                         "in dimension %d" % (len(povm.elements), povm.dim,
                                              len(ensemble.states), ensemble.dim))
    if ensemble.exact and povm.exact:
        total = sum(w * g for row, gx in zip(ensemble.numerators, povm.elements)
                    for w, g in zip(row, gx))
        return Fraction(total, ensemble.denominator)
    acc = 0.0
    for x in range(len(ensemble.states)):
        acc += float(np.real(np.trace(ensemble.weighted(x) @ povm.element_matrix(x))))
    return acc


def e_opt(ensemble: Ensemble):
    """Optimal guessing probability for commuting ensembles.

    In a common eigenbasis the best strategy picks, per basis vector, the
    symbol with the largest weighted diagonal entry, so
    ``e_opt = sum_i max_x (p_x rho_x)_{ii}``.  Exact for diagonal rational
    ensembles; raises for non-commuting ensembles.
    """
    if ensemble.exact:
        return Fraction(sum(map(max, zip(*ensemble.numerators))),
                        ensemble.denominator)
    # Summed in basis order from 0.0, one Python float addition at a time.
    return _diagonals_in_common_basis(ensemble).max(axis=0).sum(dtype=object, initial=0.0)


# ---------------------------------------------------------------------------
# Hashed key with a quantum side register
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CqKeyState:
    """Blocks of the (key, member, side register) state.

    Block ``(kappa, g)`` is the subnormalized side-register operator
    ``(1/|G|) sum_{x: g(x)=kappa} p_x rho_x`` as its diagonal in the
    ensemble's common eigenbasis, held as integer ``counts[kappa, g]`` over
    one ``denominator``: a read-only ``(q**k, |G|, dim_q)`` array of int64 or
    Python ints, as ``hashing._set_counts`` picks.  Readouts return Python
    ints and Fractions.  Block-diagonal structure over the classical
    registers means Schatten-1 norms decompose as sums over blocks.
    """

    q: int
    k: int
    counts: np.ndarray
    denominator: int

    def __post_init__(self):
        _set_counts(self, 3)

    @property
    def group_size(self) -> int:
        return self.counts.shape[1]

    @property
    def dim_q(self) -> int:
        return self.counts.shape[2]

    def _side_counts(self) -> np.ndarray:
        """Counts of ``T_Q``, the sum of all blocks: the side-register diagonal,
        as Python ints."""
        return self.counts.reshape(-1, self.dim_q).sum(axis=0, dtype=object, initial=0)


def _exact_key_blocks(table: np.ndarray, numerators: Sequence[Sequence[int]],
                      n_out: int) -> np.ndarray:
    """``out[kappa, g] = sum_{x: table[g, x] = kappa} numerators[x]``, exact on
    float64 limbs (``hashing._limbs``) in steps of ``CHUNK_CELLS`` table cells;
    refuses more than ``MAX_LIMB_CELLS`` limb sums before any product."""
    size, n_in = table.shape
    limbs, bits = _limbs(numerators, n_in)
    dim, n_limbs = limbs.shape[1:]
    cells = n_out * size * dim * n_limbs
    if cells > MAX_LIMB_CELLS:
        raise ValueError("side-register pushforward of %d limb sums (q**k |G| dim times "
                         "%d limbs) exceeds cap %d" % (cells, n_limbs, MAX_LIMB_CELLS))
    weights = limbs.reshape(n_in, dim * n_limbs)
    sums = np.zeros((n_out, size, dim * n_limbs))
    step = max(1, CHUNK_CELLS // n_in)
    for lo in range(0, size, step):
        rows = table[lo:lo + step]
        for kappa in range(n_out):
            sums[kappa, lo:lo + step] = (rows == kappa).astype(float) @ weights
    return _join_limbs(sums.reshape(n_out, size, dim, n_limbs), bits)


def _dyadic(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Floats as exact Python ints over one power of two, ``(ints, e)`` with
    ``values = ints / 2**e``, scaled by the smallest binary exponent present."""
    mantissas, exponents = np.frexp(values)
    low = int(exponents[mantissas != 0].min())   # frexp(0) reads exponent 0
    ints = (mantissas * 2.0**53).astype(np.int64).astype(object)
    return ints << (exponents - low).clip(0).astype(object), 53 - low


def check_block_count(family: HashFamily, dim: int) -> None:
    """Refuse a hashed state of more than ``MAX_TABLE_CELLS`` block entries."""
    cells = family.q**family.k * family.group_size * dim
    if cells > MAX_TABLE_CELLS:
        raise ValueError("side-register state of %d block entries (q**k |G| dim) "
                         "exceeds cap %d" % (cells, MAX_TABLE_CELLS))


def hashed_joint_blocks(ensemble: Ensemble, family: HashFamily) -> CqKeyState:
    """Apply every family member to the symbol register of an ensemble."""
    if ensemble.alphabet.num_symbols != family.q**family.m:
        raise ValueError("ensemble alphabet does not match the family input")
    check_block_count(family, ensemble.dim)
    size, n_out = family.group_size, family.q**family.k
    if ensemble.exact:
        sums = _exact_key_blocks(family.table, ensemble.numerators, n_out)
        denominator = size * ensemble.denominator
    else:
        ints, e = _dyadic(_diagonals_in_common_basis(ensemble))
        # Rotated rank-deficient states read entries just below 0: never clamped.
        negative = ints < 0
        sums = _exact_key_blocks(family.table, np.where(negative, 0, ints), n_out)
        if negative.any():
            sums = sums - _exact_key_blocks(family.table, np.where(negative, -ints, 0), n_out)
        denominator = size << e
    sums.flags.writeable = False  # CqKeyState keeps it without a copy
    return CqKeyState(family.q, family.k, sums, denominator)


def tripartite_distance(cq: CqKeyState) -> Fraction:
    """Exact distance of the hashed state from uniform-key x member x side.

    ``(1/q) sum_{kappa,g} || block(kappa,g) - q**-k (1/|G|) T_Q ||_1``;
    diagonal blocks make each trace norm a plain absolute sum.  With
    ``s = q**k |G|`` and the side marginal's counts ``t``, an entry ``c`` of
    column ``i`` contributes ``|s c - t_i| / (s denominator)``.  ``t_i`` sums
    the column's ``s`` entries, so these terms sum to zero, and the absolute
    sum is twice the sum of the positive ones: those with ``c > t_i // s``.
    """
    side = cq._side_counts()
    spread = cq.q**cq.k * cq.group_size
    gap = 0
    for column, t in zip(cq.counts.reshape(-1, cq.dim_q).T, side):
        above = column[column > t // spread]
        gap += spread * int(above.sum()) - len(above) * t
    return Fraction(2 * gap, cq.q * spread * cq.denominator)


def tripartite_report(ensemble: Ensemble, family: HashFamily,
                      h_plus=None) -> dict:
    """Distance, bound ``q**-((h_plus-k)/2)``, and exact verdict.

    ``h_plus`` defaults to the conditional min-entropy ``-log_q e_opt``,
    making the squared-bound comparison exact on rational ensembles.
    """
    dist = tripartite_distance(hashed_joint_blocks(ensemble, family))
    if not ensemble.exact:
        dist = float(dist)  # rounded once, before the verdict reads it
    q, k = family.q, family.k
    eopt = e_opt(ensemble)
    floor, h_val = _entropy_floor(q, h_plus, eopt)  # default q**-h_min(X|Q)
    satisfied, exact = _bound_verdict(dist, q, k, floor)
    return {
        "q": q,
        "m": family.m,
        "k": k,
        "group_size": family.group_size,
        "dim_q": ensemble.dim,
        "distance": dist,
        "bound": lhl_bound(q, k, h_val),
        "satisfied": satisfied,
        "h_min_cond": h_val,
        "e_opt": eopt,
        "precondition_met": bool(floor >= eopt),  # h_plus <= h_min(X|Q)
        "exact_comparison": exact,
    }


# ---------------------------------------------------------------------------
# The uniform basis-plus-mixed ensemble family
# ---------------------------------------------------------------------------

def basis_plus_mixed_ensemble(n: int) -> Ensemble:
    """Uniform ensemble of the ``n`` basis states and the maximally mixed state.

    ``n + 1`` symbols in dimension ``n``; the ensemble average is ``I/n``.
    All entries rational, so the PGM path is exact.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if n > MAX_PHI_DIM:
        raise ValueError("dimension %d exceeds MAX_PHI_DIM = %d" % (n, MAX_PHI_DIM))
    prior = FiniteDistribution.uniform(Alphabet(n + 1))
    states = [StateDensity.from_diag(row) for row in np.eye(n, dtype=int).tolist()]
    states.append(StateDensity.from_diag([Fraction(1, n)] * n))
    return Ensemble(prior, states)


def phi_report(n: int) -> dict:
    """Exact PGM table for the basis-plus-mixed ensemble of dimension ``n``.

    The average is ``I/n``; conjugation scales every weighted state by
    ``n``, giving projector elements with coefficient ``n/(n+1)``, the
    identity element with coefficient ``1/(n+1)``, and success probability
    ``(n**2 + 1)/(n + 1)**2``.
    """
    ens = basis_plus_mixed_ensemble(n)
    povm = pretty_good_measurement(ens)
    phi = e_gen(ens, povm)
    gamma_basis_coeff = povm.elements[0][0]
    gamma_mixed_coeff = povm.elements[n][0]
    return {
        "n": n,
        "t_diag": Fraction(1, n),
        "gamma_basis_coeff": gamma_basis_coeff,
        "gamma_mixed_coeff": gamma_mixed_coeff,
        "phi": phi,
        "expected_phi": Fraction(n * n + 1, (n + 1) ** 2),
        "matches_closed_form": phi == Fraction(n * n + 1, (n + 1) ** 2),
    }


def ensemble_from_json(obj: dict) -> Ensemble:
    """Read ``{"prior": {...}, "states": [...]}`` built from the core schema."""
    try:
        prior = distribution_from_json(obj["prior"])
        states = [state_from_json(s) for s in obj["states"]]
    except (KeyError, TypeError) as exc:
        raise ValueError("ensemble JSON needs 'prior' and 'states'") from exc
    return Ensemble(prior, states)
