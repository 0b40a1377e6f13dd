"""Shared state types and the readers of outside input.

Finite alphabets, probability weight vectors with an exact-rational or a
float backend, density operators (an exact diagonal or a dense Hermitian
matrix), and the readers of outside input.  :func:`parse_rational` reads
every number, from JSON or the command line; each JSON schema has one
reader here (``quantum`` joins two into the ensemble reader), whose
refusals name a JSON path; :func:`_refuse_non_finite` refuses NaN and inf.

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


def parse_rational(value, floats: bool = False) -> Scalar:
    """The one reader of a number from outside.  An int (not a bool), a
    ``Fraction`` or a string ``"n"`` or ``"n/d"`` is exact.  A float, or a
    string with ``.``, ``e`` or ``E`` (the command line's only float), is a
    float, returned where ``floats`` lets the float backend take one and
    refused as ``exact rational expected`` elsewhere; the JSON readers pass
    ``floats`` false for a string.  Booleans, None, lists, dicts, other
    strings and ``"1/0"`` are refused; NaN and inf are left to the caller."""
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    text = value.strip() if isinstance(value, str) else None
    if isinstance(value, float) or text is not None and ("." in text or "e" in text.lower()):
        if floats:
            return float(value)
        raise ValueError("exact rational expected; got %s%r (write it as 'num/den')"
                         % ("float " if text is None else "", value))
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError("cannot parse %r as a rational" % (value,)) from None


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
        _refuse_non_finite(floats, "weight")
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
        if not m.size:
            raise ValueError("state must have dimension >= 1")
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
# JSON readers: a refusal names its path, like ``states[0].matrix[1][0]``; other keys are ignored
# ---------------------------------------------------------------------------

def _built(path: str, build, *args):
    """``build(*args)``, its refusal prefixed with ``path``."""
    try:
        return build(*args)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError("%s: %s" % (path or "top level", exc)) from None


def _expect(ok, path: str, what: str, value) -> None:
    """Refuse ``value`` unless ``ok``, cut short: it may be a whole document."""
    if not ok:
        text = repr(value)
        text = text if len(text) <= 60 else text[:56] + " ..."
        raise ValueError("%s: expected %s, got %s" % (path or "top level", what, text))


def _get(obj, key: str, path: str):
    _expect(isinstance(obj, dict) and key in obj, path, "an object with key %r" % key, obj)
    return obj[key], "%s.%s" % (path, key) if path else key


def _number(value, path: str, floats: bool = True, pair: bool = False):
    """``value`` by :func:`parse_rational` (a JSON string is exact), or ``[re, im]``."""
    if pair and isinstance(value, list):
        _expect(len(value) == 2, path, "a number or [re, im]", value)
        return _built(path, complex, *_numbers(value, path))
    return _built(path, parse_rational, value, floats and not isinstance(value, str))


def _numbers(values, path: str, floats: bool = True) -> list:
    _expect(isinstance(values, list), path, "a list", values)
    return [_number(v, "%s[%d]" % (path, i), floats) for i, v in enumerate(values)]


def _square(rows, path: str) -> list:
    """A list of ``n >= 1`` rows, each a list of ``n`` entries."""
    _expect(isinstance(rows, list) and rows, path, "a list of rows", rows)
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == len(rows), "%s[%d]" % (path, i),
                "a list of %d entries, one per row" % len(rows), row)
    return rows


def distribution_from_json(obj, path: str = "") -> FiniteDistribution:
    """Read ``{"alphabet": {"size", "power" (default 1)}, "weights": [...]}``."""
    alpha, apath = _get(obj, "alphabet", path)
    size, power = _get(alpha, "size", apath)[0], alpha.get("power", 1)
    for key, value in (("size", size), ("power", power)):
        _expect(type(value) is int, "%s.%s" % (apath, key), "an integer", value)
    weights = _numbers(*_get(obj, "weights", path))
    alphabet, bits = _built(apath, Alphabet, size, power), len(weights).bit_length()
    _expect(power <= bits, apath + ".power",  # else size**power, too large, is not formed
            "at most %d for %d weights" % (bits, len(weights)), power)
    return _built(path, FiniteDistribution, alphabet, weights)


def state_from_json(obj, path: str = "") -> StateDensity:
    """Read ``{"diag": [...]}``, exact when every entry is, or a dense
    ``{"matrix": [[...], ...]}`` whose entries are numbers or ``[re, im]``."""
    _expect(isinstance(obj, dict) and ("diag" in obj or "matrix" in obj), path,
            "an object with 'diag' or 'matrix'", obj)
    if "diag" in obj:
        return _built(path, StateDensity.from_diag, _numbers(*_get(obj, "diag", path)))
    rows, path_m = _get(obj, "matrix", path)
    return _built(path, StateDensity.from_matrix,
                  [[_number(cell, "%s[%d][%d]" % (path_m, i, j), pair=True)
                    for j, cell in enumerate(row)] for i, row in enumerate(_square(rows, path_m))])


def rows_from_json(obj) -> List[List[Fraction]]:
    """Read a chain ``{"rows": [[...], ...]}``: a square matrix of exact entries."""
    rows, path = _get(obj, "rows", "")
    return [_numbers(row, "%s[%d]" % (path, i), floats=False)
            for i, row in enumerate(_square(rows, path))]
