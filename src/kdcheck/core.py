"""Shared state types and JSON readers.

Finite alphabets, probability weight vectors with an exact-rational or a
float backend, density operators (an exact diagonal or a dense Hermitian
matrix), and the JSON readers used by the command line tools.

Exactness contract: whenever every input is rational (``fractions.Fraction``
weights or diagonal entries), sums stay rational end to end.  An exact
distribution or state holds integer ``numerators`` over one ``denominator``,
read as floats by ``as_floats()`` or ``to_matrix()``; every other state is
a dense complex matrix on the float path.  Exact kernels run on integers: rationals are
scaled once with :func:`scale_to_integers`, the one place that does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

# Eigenvalues of a positive operator may come out slightly negative from
# floating point; anything in (-PSD_TOL, 0) is clamped to zero, anything
# below -PSD_TOL is rejected.
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
SUM_TOL = 1e-12
HERMITIAN_TOL = 1e-10
MAX_SYMBOLS = 2**20  # random distributions draw one weight per symbol
MAX_MC_SAMPLES = 2**22  # one (samples, 4) float array is 128 MiB

Scalar = Union[Fraction, float]


def check_mc_samples(n: int) -> None:
    """Refuse a Monte Carlo sample count above ``MAX_MC_SAMPLES``."""
    if n > MAX_MC_SAMPLES:
        raise ValueError("%d Monte Carlo samples exceed MAX_MC_SAMPLES = %d"
                         % (n, MAX_MC_SAMPLES))


def parse_rational(text) -> Fraction:
    """Parse ``"num/den"`` strings (or bare integers) into a Fraction."""
    if isinstance(text, Rational):
        return Fraction(text)
    if isinstance(text, str):
        stripped = text.strip()
        if "." in stripped or "e" in stripped.lower():
            raise ValueError(
                "exact rational expected; got %r (write it as 'num/den')" % text
            )
        try:
            return Fraction(stripped)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("cannot parse %r as a rational" % (text,)) from exc
    if isinstance(text, float):
        raise ValueError(
            "exact rational expected; got float %r (write it as 'num/den')" % text
        )
    raise ValueError("cannot parse %r as a rational" % (text,))


def format_rational(x: Fraction) -> str:
    """Canonical ``"num/den"`` string, denominator always present."""
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def scale_to_integers(values: Iterable[Rational]) -> Tuple[int, List[int]]:
    """``(D, n)`` with ``values[i] == n[i] / D``: ``D`` is the lcm of the
    denominators, so ``gcd(D, *n) == 1`` when the values are reduced."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [int(v.numerator) * (d // v.denominator) for v in values]


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet of ``size`` symbols, optionally raised to a power.

    ``Alphabet(q, m)`` models strings of length ``m`` over ``q`` symbols;
    ``num_symbols`` is ``q**m``.
    """

    size: int
    power: int = 1

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("alphabet size must be >= 2, got %d" % self.size)
        if self.power < 1:
            raise ValueError("alphabet power must be >= 1, got %d" % self.power)

    @property
    def num_symbols(self) -> int:
        return self.size**self.power


class FiniteDistribution:
    """Probability weights over an :class:`Alphabet`.

    An exact distribution holds one ``denominator`` ``D`` and a read-only
    array of Python-int ``numerators``, reduced so that ``gcd(D, *n) == 1``;
    a float one holds None in both and its weights as a read-only float64
    array.  :meth:`as_floats` is the one float readout of either.

    Parameters
    ----------
    alphabet : Alphabet
        Index set; the weight vector has ``alphabet.num_symbols`` entries.
    weights : sequence of Fraction/int or float
        Nonnegative, summing to one (exactly for the rational backend,
        within 1e-12 for the float backend); floats must be finite.
    """

    __slots__ = ("alphabet", "exact", "denominator", "numerators", "_floats")

    def __init__(self, alphabet: Alphabet, weights: Sequence[Scalar]):
        weights = tuple(weights)
        if len(weights) != alphabet.num_symbols:
            raise ValueError("expected %d weights for this alphabet, got %d"
                             % (alphabet.num_symbols, len(weights)))
        if all(isinstance(w, Rational) for w in weights):
            den, numerators = scale_to_integers(weights)
            if any(n < 0 for n in numerators):
                raise ValueError("weights must be nonnegative")
            if sum(numerators) != den:
                raise ValueError("rational weights must sum to exactly 1")
            self._set(alphabet, den, np.array(numerators, dtype=object))
            return
        floats = np.array([float(w) for w in weights])
        if not np.isfinite(floats).all():
            raise ValueError("weights must be finite")
        if (floats < -SUM_TOL).any():
            raise ValueError("weights must be nonnegative")
        floats[floats < 0] = 0.0
        if abs(math.fsum(floats) - 1.0) > SUM_TOL:
            raise ValueError("float weights must sum to 1 within 1e-12")
        self._set(alphabet, None, None, floats)

    def _set(self, alphabet, den, numerators, floats=None):
        """Store the fields; an exact law's floats are ``n / D``, correctly rounded."""
        if den is not None:
            numerators.flags.writeable = False
            floats = (numerators / den).astype(float)
        floats.flags.writeable = False
        for name, value in zip(self.__slots__,
                               (alphabet, den is not None, den, numerators, floats)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteDistribution is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteDistribution)
            and (self.alphabet, self.denominator) == (other.alphabet, other.denominator)
            and np.array_equal(self.numerators if self.exact else self._floats,
                               other.numerators if other.exact else other._floats)
        )

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "FiniteDistribution":
        n = alphabet.num_symbols
        return cls(alphabet, [Fraction(1, n)] * n)

    @classmethod
    def random_rational(
        cls,
        alphabet: Alphabet,
        rng: np.random.Generator,
        max_weight: int = 32,
    ) -> "FiniteDistribution":
        """Random exact distribution: integer weights in [1, max_weight], normalized."""
        n = alphabet.num_symbols
        if n > MAX_SYMBOLS:
            raise ValueError("random distribution over %d symbols exceeds MAX_SYMBOLS = %d"
                             % (n, MAX_SYMBOLS))
        raw = rng.integers(1, max_weight + 1, size=n)
        total = int(raw.sum())
        g = math.gcd(total, int(np.gcd.reduce(raw)))
        dist = cls.__new__(cls)
        dist._set(alphabet, total // g, (raw // g).astype(object))
        return dist

    def as_floats(self) -> np.ndarray:
        """The weights as a read-only float64 array."""
        return self._floats


class StateDensity:
    """Density operator, possibly subnormalized (trace <= 1).

    An exact state holds its diagonal as :class:`FiniteDistribution` holds
    its weights, Python-int ``numerators`` over one ``denominator``; every
    other state is a dense Hermitian ``complex128`` array ``mat``.
    Construct through :meth:`from_diag` or :meth:`from_matrix`.
    """

    __slots__ = ("dim", "denominator", "numerators", "mat")

    def __init__(self, dim: int, denominator=None, numerators=None, mat=None):
        for name, value in zip(self.__slots__, (dim, denominator, numerators, mat)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("StateDensity is immutable")

    @classmethod
    def from_diag(cls, entries: Sequence[Scalar]) -> "StateDensity":
        """Exact state from rational entries; any float entry makes it dense."""
        entries = tuple(entries)
        if not entries:
            raise ValueError("state must have dimension >= 1")
        if not all(isinstance(e, Rational) for e in entries):
            vals = [float(e) for e in entries]
            _refuse_non_finite(np.array(vals), "diagonal entry")
            if any(v < -PSD_TOL for v in vals):
                raise ValueError("diagonal entry below -1e-10: not positive semidefinite")
            # The eigenvalues of a diagonal are its entries, so only the
            # trace is left to check.
            return cls._dense(np.diag(np.array([0.0 if v < 0 else v for v in vals],
                                               dtype=complex)))
        return cls._from_integers(*scale_to_integers(entries))

    @classmethod
    def _from_integers(cls, den: int, numerators: Sequence[int]) -> "StateDensity":
        """Exact state of diagonal ``numerators / den``, reduced by their gcd."""
        numerators = np.array(numerators, dtype=object)
        if (numerators < 0).any():
            raise ValueError("diagonal entries must be nonnegative")
        if numerators.sum() > den:
            raise ValueError("trace %s exceeds 1" % Fraction(numerators.sum(), den))
        g = math.gcd(den, *numerators)
        den, numerators = den // g, numerators // g
        numerators.flags.writeable = False
        return cls(len(numerators), den, numerators)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "StateDensity":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("state matrix must be square")
        _refuse_non_finite(m, "state matrix entry")
        if not _is_hermitian(m):
            raise ValueError("state matrix is not Hermitian within 1e-10")
        m = 0.5 * (m + m.conj().T)
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -PSD_TOL:
            raise ValueError(
                "state matrix has eigenvalue %g below -1e-10: not positive semidefinite"
                % evals.min()
            )
        return cls._dense(m)

    @classmethod
    def _dense(cls, m: np.ndarray) -> "StateDensity":
        """A state of the positive semidefinite ``complex`` matrix ``m``, once
        its trace is checked."""
        tr = float(np.real(np.trace(m)))
        if tr > 1 + TRACE_TOL:
            raise ValueError("trace %g exceeds 1 beyond tolerance" % tr)
        return cls(m.shape[0], mat=m)

    @property
    def exact(self) -> bool:
        """True for integer numerators over one denominator, the only exact form."""
        return self.denominator is not None

    @property
    def is_normalized(self) -> bool:
        return (self.numerators.sum() == self.denominator if self.exact
                else abs(float(np.real(np.trace(self.mat))) - 1.0) <= TRACE_TOL)

    def to_matrix(self) -> np.ndarray:
        if self.exact:
            return np.diag((self.numerators / self.denominator).astype(complex))
        return self.mat.copy()


def _refuse_non_finite(values: np.ndarray, what: str) -> None:
    """Refuse the first NaN or infinite entry: NaN passes every later comparison."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        at = tuple(bad[0].tolist())
        raise ValueError("%s %s is %s, not finite" % (what, list(at), values[at]))


def _is_hermitian(m: np.ndarray) -> bool:
    """False when ``m`` is off Hermitian by more than 1e-10, relative to ``max |m|``."""
    scale = max(1.0, float(np.abs(m).max()))
    return not np.abs(m - m.conj().T).max() > HERMITIAN_TOL * scale


# ---------------------------------------------------------------------------
# JSON readers
# ---------------------------------------------------------------------------

def _json_number(x) -> Scalar:
    """A JSON weight: "num/den" strings and ints exact, other numbers float."""
    if isinstance(x, bool):
        raise ValueError("weights must be numbers, got %r" % x)
    if isinstance(x, (str, int)):
        return Fraction(x)
    return float(x)


def distribution_from_json(obj: dict) -> FiniteDistribution:
    """Read an ``{"alphabet", "weights"}`` object; floats allowed for the float backend."""
    try:
        alpha = obj["alphabet"]
        alphabet = Alphabet(int(alpha["size"]), int(alpha.get("power", 1)))
        raw = obj["weights"]
    except (KeyError, TypeError) as exc:
        raise ValueError("distribution JSON needs 'alphabet' and 'weights'") from exc
    return FiniteDistribution(alphabet, [_json_number(w) for w in raw])


def state_from_json(obj: dict) -> StateDensity:
    if "diag" in obj:
        return StateDensity.from_diag([_json_number(d) for d in obj["diag"]])
    if "matrix" in obj:
        rows = obj["matrix"]
        n = len(rows)
        m = np.zeros((n, n), dtype=complex)
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if isinstance(cell, (list, tuple)):
                    m[i, j] = complex(cell[0], cell[1])
                else:
                    m[i, j] = complex(cell)
        return StateDensity.from_matrix(m)
    raise ValueError("state JSON needs either 'diag' or 'matrix'")
