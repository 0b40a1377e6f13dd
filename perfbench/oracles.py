"""Independent reference routes that judge the program's outputs.

Nothing here calls into ``kdcheck``: each function recomputes a quantity
from its definition (hashed joint laws by enumerating the family's
matrices, first-return probabilities by the taboo recursion, Gaussian
averages by their closed forms), so a wrong answer from the program
cannot agree with its own oracle by construction.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# Seeded inputs, generated by the benchmark and handed to the program
# ---------------------------------------------------------------------------

def rational_weights(rng: np.random.Generator, n: int,
                     max_weight: int = 32) -> Tuple[Fraction, ...]:
    """Integer weights in [1, max_weight], normalized to an exact law."""
    raw = [int(r) for r in rng.integers(1, max_weight + 1, size=n)]
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def diagonal_states(rng: np.random.Generator, n: int,
                    dim: int) -> List[Tuple[Fraction, ...]]:
    """``n`` exact diagonal density operators of dimension ``dim``."""
    states = []
    for _ in range(n):
        raw = [int(r) for r in rng.integers(1, 16, size=dim)]
        total = sum(raw)
        states.append(tuple(Fraction(r, total) for r in raw))
    return states


def cli_random_weights(seed: int, n: int, max_weight: int = 32
                       ) -> Tuple[Fraction, ...]:
    """The law the CLI draws for ``--random n --seed seed``."""
    return rational_weights(np.random.default_rng(seed), n, max_weight)


def cli_random_ensemble(seed: int, n: int, dim: int
                        ) -> Tuple[Tuple[Fraction, ...], List[Tuple[Fraction, ...]]]:
    """The diagonal ensemble ``quantum-lhl --seed seed --dim-q dim`` draws."""
    rng = np.random.default_rng(seed)
    prior = rational_weights(rng, n, 16)
    return prior, diagonal_states(rng, n, dim)


# ---------------------------------------------------------------------------
# Hashed joint laws from the family definition
# ---------------------------------------------------------------------------

def family_matrices(kind: str, q: int, m: int, k: int
                    ) -> Iterator[List[List[int]]]:
    """Every k x m matrix of the family, in no particular order."""
    if kind == "linear":
        for flat in itertools.product(range(q), repeat=m * k):
            yield [list(flat[i * m:(i + 1) * m]) for i in range(k)]
    elif kind == "toeplitz":
        for diag in itertools.product(range(q), repeat=m + k - 1):
            yield [[diag[i - j + m - 1] for j in range(m)] for i in range(k)]
    else:
        raise ValueError("unknown family kind %r" % kind)


def hash_key(matrix: Sequence[Sequence[int]], x: int, q: int, m: int) -> int:
    """``matrix @ digits(x) mod q`` as a key, digits little-endian."""
    digits = [(x // q**j) % q for j in range(m)]
    key = 0
    for i, row in enumerate(matrix):
        key += q**i * (sum(a * b for a, b in zip(row, digits)) % q)
    return key


def hashed_distance(prior: Sequence[Fraction],
                    states: Sequence[Sequence[Fraction]],
                    kind: str, q: int, m: int, k: int
                    ) -> Tuple[Fraction, Fraction]:
    """Distance from uniform and collision probability of a hashed key.

    ``states[x]`` is the diagonal of the side-register state paired with
    symbol ``x``; a one-dimensional register gives the classical case.
    Returns ``((1/q) sum |P(kappa,g) - T/(q^k |G|)|_1, sum |P(kappa,g)|^2)``
    where the collision term is only meaningful classically.
    """
    dim = len(states[0])
    side = [sum((p * s[i] for p, s in zip(prior, states)), Fraction(0))
            for i in range(dim)]
    matrices = list(family_matrices(kind, q, m, k))
    size = len(matrices)
    ideal = [t / (q**k * size) for t in side]
    distance = Fraction(0)
    collision = Fraction(0)
    for matrix in matrices:
        blocks = [[Fraction(0)] * dim for _ in range(q**k)]
        for x, (p, s) in enumerate(zip(prior, states)):
            block = blocks[hash_key(matrix, x, q, m)]
            for i in range(dim):
                block[i] += p * s[i] / size
        for block in blocks:
            distance += sum(abs(b - u) for b, u in zip(block, ideal))
            collision += sum(b * b for b in block)
    return distance / q, collision


# ---------------------------------------------------------------------------
# Markov chains
# ---------------------------------------------------------------------------

def first_return_probabilities(rows: Sequence[Sequence[Fraction]], i: int,
                               n_max: int) -> List[Fraction]:
    """``f_1 .. f_n_max`` by the taboo recursion through states other than i."""
    n = len(rows)
    others = [j for j in range(n) if j != i]
    # hit[j] = probability that the chain started at j first enters i at step m.
    hit = {j: rows[j][i] for j in others}
    out = [rows[i][i]]
    for _ in range(2, n_max + 1):
        out.append(sum((rows[i][j] * hit[j] for j in others), Fraction(0)))
        hit = {j: sum((rows[j][l] * hit[l] for l in others), Fraction(0))
               for j in others}
    return out


# ---------------------------------------------------------------------------
# Gaussian averages P_t f(x) = E f(x + sqrt(t) Y), Y ~ N(0, Sigma)
# ---------------------------------------------------------------------------

def sigma_2d(variances: Sequence[float], rho: float) -> np.ndarray:
    sd = np.sqrt(np.asarray(variances, dtype=float))
    corr = np.array([[1.0, rho], [rho, 1.0]])
    return corr * np.outer(sd, sd)


def gauss_average(x: Sequence[float], cov: np.ndarray) -> float:
    """Average of the standard normal density: the N(0, I + cov) density."""
    x = np.asarray(x, dtype=float)
    a = np.eye(len(x)) + cov
    quad = float(x @ np.linalg.solve(a, x))
    return math.exp(-0.5 * quad) / math.sqrt(
        (2.0 * math.pi) ** len(x) * np.linalg.det(a))


def wave_average(x: Sequence[float], cov: np.ndarray) -> float:
    """Average of ``exp(-|z|^2/4) cos(2 z_1)`` over z ~ N(x, cov).

    Writes the integrand as ``Re exp(-z'Bz/2 + i c'z)`` with ``B = I/2`` and
    ``c = 2 e_1`` and completes the square in the complex Gaussian integral.
    """
    x = np.asarray(x, dtype=float)
    d = len(x)
    b = 0.5 * np.eye(d)
    c = np.zeros(d)
    c[0] = 2.0
    s_inv = np.linalg.inv(cov)
    m = s_inv + b
    h = s_inv @ x + 1j * c
    expo = 0.5 * (h @ np.linalg.solve(m, h)) - 0.5 * float(x @ s_inv @ x)
    return float((np.exp(expo) / math.sqrt(np.linalg.det(np.eye(d) + cov @ b))).real)


# ---------------------------------------------------------------------------
# Discrete laws
# ---------------------------------------------------------------------------

def shannon(weights: Sequence[Fraction], base: float) -> float:
    return math.fsum(-float(w) * math.log(float(w)) for w in weights if w) \
        / math.log(base)
