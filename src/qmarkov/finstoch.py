"""Classical engine: stochastic matrices, Bayes' rule, disintegration, and
the embedding into commutative algebras.

Entries are column-stochastic: f[y, x] is the probability of y given x.
Every kernel and vector carries numerators `_num` over one positive
denominator `_den`, and every operation reads and writes that form.  When
every input is rational (int, Fraction, or a "p/q" string) the kernel is
exact: integer numerators, reduced with the denominator by their gcd, so the
Bayes diagram g_xy q_y = f_yx p_x is an identity, not an approximation.  They
are int64 when a bound on every integer the next operation forms stays below
2^63, else Python ints (object arrays); `_ints` picks the dtype, and the same
numpy call runs on either.  `.entries` of an exact kernel is a read-only
object array of Fractions, built when first read.  Otherwise the numerators
are the read-only float64 entries over 1 (non-finite entries are rejected
when parsed); a float and an exact operand combine in floats, each made from
an exact entry as float(Fraction) is.  Each check is one formula with a zero
threshold thr (0 for exact operands, tol.eq for floats) scaled by the
denominator: "|num| <= thr den" reads "v == 0" when exact and "|v| <=
tol.eq" for floats, and "min(|num|, |num - den|) <= thr den" reads "v is 0 or 1".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import algebra as alg
from .algebra import AlgebraShape
from .channel import Channel, PropertyReport, _owned, _report
from .errors import ShapeMismatch
from .state import State, state_from_density
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "StochasticMatrix",
    "ProbVector",
    "stochastic",
    "prob_vector",
    "deterministic_kernel",
    "compose",
    "product",
    "push",
    "bayes_inverse",
    "ae_equal",
    "is_ae_deterministic",
    "embed",
    "embed_prob",
]

_INT64 = 2**63   # int64 holds every integer of magnitude below this
_FLOAT = 2**53   # float64 holds every integer of magnitude up to this


def _parse_entry(v):
    """Return (value, exact) where exact entries are Fractions."""
    if isinstance(v, Fraction):
        return v, True
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return Fraction(int(v)), True
    if isinstance(v, str):
        return Fraction(v), True
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError(f"non-finite probability {float(v)}")
        return float(v), False
    raise TypeError(f"unsupported entry type {type(v)!r}")


def _parse_array(rows):
    """The entries of rows as (numerators, denominator, exact): integers over the
    lcm of their denominators when all are rational, else floats over 1."""
    parsed = [[_parse_entry(v) for v in row] for row in rows]
    width = len(parsed[0]) if parsed else 0
    if any(len(row) != width for row in parsed):
        raise ValueError("rows have different lengths")
    flat, shape = [e for row in parsed for e in row], (len(parsed), width)
    if all(ok for _, ok in flat):
        return *_ratio([v for v, _ in flat], shape), True
    return np.array([v for v, _ in flat], dtype=float).reshape(shape), 1, False


def _ratio(values, shape) -> tuple[np.ndarray, int]:
    """Rationals as numerators over the lcm of their denominators (int64 when
    they fit, else Python ints)."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = dict.fromkeys(d for _, d in ratios)
    den = math.lcm(*scale)
    scale = {d: den // d for d in scale}
    num = [n * scale[d] for n, d in ratios]
    [num] = _ints(max(den, max(num, default=0), -min(num, default=0)), num)
    return num.reshape(shape), den


def _peak(num: np.ndarray) -> int:
    """The largest |numerator|, and at least 1: the factor num brings to a bound."""
    if not num.size:
        return 1
    if num.dtype == object:
        return max(1, *map(abs, num.flat))
    return max(1, int(np.abs(num).max()))


def _ints(bound: int, *nums) -> list[np.ndarray]:
    """nums as int64 when bound, a bound on the magnitude of every integer an
    operation forms from them and the scalars it mixes in, is below 2^63;
    otherwise as Python ints, which do not overflow."""
    dtype = np.int64 if bound < _INT64 else object
    return [np.asarray(n, dtype=dtype) for n in nums]


def _reduced(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """num / den with the gcd of den and all numerators divided out, the
    numerators int64 when they fit."""
    common = int(np.gcd.reduce(num, axis=None))
    if not common:   # no nonzero numerator: 0 / 1
        return np.zeros(num.shape, dtype=np.int64), 1
    common = math.gcd(common, den)
    if common > 1:
        num, den = num // common, den // common
    if num.dtype == object and _peak(num) < _INT64:
        num = num.astype(np.int64)
    return num, den


class _Carried:
    """What kernels and vectors share: numerators `_num` over a denominator `_den`.
    An exact one builds `entries` from its integer numerators when first read; a
    float one's numerators are its entries, over 1.  One made by the constructor
    (or `dataclasses.replace`) takes a read-only copy of the entries it is given,
    so its numerators cannot go stale."""

    def __post_init__(self):
        entries = np.array(self.entries, dtype=object if self.exact else float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        held = _reduced(*_ratio(entries.flat, entries.shape)) if self.exact else (entries, 1)
        self._hold(*held)

    def _hold(self, num: np.ndarray, den: int) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _carry(cls, num: np.ndarray, den: int, exact: bool = True):
        """The instance of num / den: reduced when exact, its entries built when read;
        a float num, which the library has just built, is held over 1 uncopied."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "exact", exact)
        if exact:
            num, den = _reduced(num, den)
        else:
            num.flags.writeable = False
            object.__setattr__(obj, "entries", num)
        obj._hold(num, den)
        return obj

    @classmethod
    def _normalized(cls, weights: np.ndarray):
        """The exact instance whose columns are the columns of the int weights, none
        summing to 0, each divided by its sum."""
        sums = weights.sum(axis=0)
        den = math.lcm(*np.atleast_1d(sums).tolist())
        weights, sums = _ints(_peak(weights) * den, weights, sums)
        return cls._carry(weights * (den // sums), den)

    def __getattr__(self, name):
        # reached only for an attribute not set: the entries of a carried instance
        if name != "entries" or "_num" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        num, den = self._num, self._den
        entries = np.array([Fraction(n, den) for n in num.ravel().tolist()], dtype=object)
        entries = entries.reshape(num.shape)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        return entries

    @cached_property
    def _max(self) -> int:
        """max |numerator| of an exact instance, and at least 1."""
        return _peak(self._num)

    @property
    def _shape(self) -> tuple[int, ...]:
        return self._num.shape

    # equality reads the values, as `_equal` compares them (within tol.eq unless both are
    # exact), so the hash reads the shape only: equal instances share it
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)

    def __hash__(self):
        return hash(self._shape)

    def _floats(self) -> np.ndarray:
        """The entries in float64.  An exact one is rounded once, as float(Fraction) is:
        a float64 division is correctly rounded while the numerator and the
        denominator are exact floats, and beyond 2^53 the division of Python ints is."""
        if not self.exact:
            return self._num
        num, den = self._num, self._den
        if den <= _FLOAT and self._max <= _FLOAT:
            return num.astype(float) / den
        return np.array([n / den for n in num.ravel().tolist()], dtype=float).reshape(num.shape)


def _combine(*operands, tol: Tolerance = DEFAULT_TOL) -> tuple[list, bool, object]:
    """The operands as (numerators, denominator) pairs, whether all are exact, and
    the zero threshold: 0 when every operand is exact and is its own `_num` and
    `_den`; otherwise tol.eq, and every operand is its floats over 1."""
    exact = all(o.exact for o in operands)
    pairs = [(o._num, o._den) if exact else (o._floats(), 1) for o in operands]
    return pairs, exact, 0 if exact else tol.eq


def _column_sums(arr: np.ndarray) -> np.ndarray:
    # running sums from 0, so each float column adds up in the order sum(column)
    # would; a sum that overflows is inf and fails in _first_bad_column
    with np.errstate(over="ignore"):
        return np.add.accumulate(np.vstack([np.zeros((1, arr.shape[1]), arr.dtype), arr]))[-1]


def _first_bad_column(v, tol: Tolerance):
    """(column, has a negative entry, column sum) of the first column of v (a
    vector is one column) with an entry below -thr or a sum off 1, or None when
    every column is fine.

    On numerators over den, an entry is below -thr when its numerator is below
    -thr den, and a column of numerators summing to total sums to 1 when
    |total - den| <= thr max(den, |total|): total == den when exact.  Only the
    sum of an exact column reported is built as a Fraction.
    """
    [(num, den)], exact, thr = _combine(v, tol=tol)
    if num.ndim == 1:
        num = num[:, None]
    if exact:
        [num] = _ints(_peak(num) * len(num) + den, num)
    negative = (num < -thr * den).any(axis=0)
    total = _column_sums(num)
    mag = np.abs(total)
    ok = (np.abs(total - den) <= thr * np.maximum(den, mag)) & (mag < np.inf)
    bad = np.flatnonzero(negative | ~ok)
    if not bad.size:
        return None
    x = int(bad[0])
    return x, bool(negative[x]), Fraction(int(total[x]), den) if exact else total[x]


def _indicator_mask(f, tol: Tolerance) -> np.ndarray:
    """Entries within thr of 0 or 1: min(|num|, |num - den|) <= thr den."""
    [(num, den)], exact, thr = _combine(f, tol=tol)
    if exact:
        [num] = _ints(f._max + den, num)
    return np.minimum(np.abs(num), np.abs(num - den)) <= thr * den


@dataclass(frozen=True, eq=False)
class StochasticMatrix(_Carried):
    """Column-stochastic kernel from a set of size n_cols to one of size n_rows."""

    entries: np.ndarray
    exact: bool

    @property
    def n_rows(self) -> int:
        return self._shape[0]

    @property
    def n_cols(self) -> int:
        return self._shape[1]

    def is_deterministic(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Every column is a 0/1 indicator."""
        return bool(_indicator_mask(self, tol).all())


def stochastic(rows, tol: Tolerance = DEFAULT_TOL) -> StochasticMatrix:
    f = StochasticMatrix._carry(*_parse_array(rows))
    bad = _first_bad_column(f, tol)
    if bad is not None:
        x, negative, total = bad
        raise ValueError(f"negative probability in column {x}" if negative
                         else f"column {x} sums to {total}, expected 1")
    return f


@dataclass(frozen=True, eq=False)
class ProbVector(_Carried):
    """Probability vector with its nullset."""

    entries: np.ndarray
    exact: bool

    @property
    def size(self) -> int:
        return self._shape[0]

    def nullset(self, tol: Tolerance = DEFAULT_TOL) -> list[int]:
        [(num, den)], _, thr = _combine(self, tol=tol)
        return np.flatnonzero(np.abs(num) <= thr * den).tolist()


def prob_vector(values, tol: Tolerance = DEFAULT_TOL) -> ProbVector:
    num, den, exact = _parse_array([list(values)])
    p = ProbVector._carry(num[0], den, exact)
    bad = _first_bad_column(p, tol)
    if bad is not None:
        _, negative, total = bad
        raise ValueError("negative probability entry" if negative
                         else f"probabilities sum to {total}, expected 1")
    return p


def deterministic_kernel(func, n_in: int, n_out: int) -> StochasticMatrix:
    """Kernel of a function {0..n_in-1} -> {0..n_out-1}, exact."""
    images = [func(x) for x in range(n_in)]
    for x, y in enumerate(images):
        if y not in range(n_out):
            raise ValueError(f"column {x} sums to 0, expected 1")
    num = np.zeros((n_out, n_in), dtype=np.int64)
    num[np.array(images, dtype=int), np.arange(n_in)] = 1
    return StochasticMatrix._carry(num, 1)


def _check_columns(f: StochasticMatrix, p: ProbVector) -> None:
    if f.n_cols != p.size:
        raise ShapeMismatch(f"kernel has {f.n_cols} columns, measure has {p.size}")


def _bilinear(cls, op, a, b, inner: int = 1):
    """op(a, b) as a cls, for an op whose every output entry is a sum of inner
    products of one entry of each operand: op of the numerators over the product
    of the denominators."""
    ((an, ad), (bn, bd)), exact, _ = _combine(a, b)
    if exact:
        an, bn = _ints(a._max * b._max * inner, an, bn)
    return cls._carry(op(an, bn), ad * bd, exact)


def compose(g: StochasticMatrix, f: StochasticMatrix) -> StochasticMatrix:
    """Chapman-Kolmogorov composite g after f."""
    if g.n_cols != f.n_rows:
        raise ShapeMismatch(f"cannot compose {g.n_cols} columns with {f.n_rows} rows")
    return _bilinear(StochasticMatrix, np.matmul, g, f, f.n_rows)


def product(f: StochasticMatrix, f2: StochasticMatrix) -> StochasticMatrix:
    """Kernel on product spaces, output pairs ordered first-factor major."""
    return _bilinear(StochasticMatrix, np.kron, f, f2)


def push(f: StochasticMatrix, p: ProbVector) -> ProbVector:
    """Pushforward measure (matrix times vector)."""
    _check_columns(f, p)
    return _bilinear(ProbVector, np.matmul, f, p, p.size)


def bayes_inverse(f: StochasticMatrix, p: ProbVector, tol: Tolerance = DEFAULT_TOL) -> StochasticMatrix:
    """Bayes rule g_xy = f_yx p_x / q_y, with uniform columns on the nullset of q.

    The result satisfies g_xy q_y = f_yx p_x for every x, y (exactly in
    rational mode) and push(g, q) = p.  In rational mode, with f = F / df and
    p = P / dp, q is Q / (df dp) for Q = F P, so g_xy = F_yx P_x / Q_y: over
    the lcm L of the nonzero |Q_y| (and of the size of p, when q has a zero)
    its numerators are F_yx P_x (L / Q_y), and L / size on a null column.
    """
    _check_columns(f, p)
    ((fn, fd), (pn, pd)), exact, thr = _combine(f, p, tol=tol)
    if exact:
        fn, pn = _ints(f._max * p._max * p.size, fn, pn)
    q = fn @ pn
    null = np.abs(q) <= thr * fd * pd
    if exact:
        q = q.tolist()
        den = math.lcm(*(abs(v) for v in q if v), *([p.size] if null.any() else []))
        scale = np.array([den // v if v else 0 for v in q], dtype=object)
        fn, pn, scale = _ints(max(f._max * p._max * _peak(scale), den), fn, pn, scale)
        out, fill = fn.T * pn[:, None] * scale, den // p.size
    else:
        den, out, fill = 1, (fn.T * pn[:, None]) / np.where(null, 1, q), 1 / p.size
    out[:, null] = fill
    return StochasticMatrix._carry(out, den, exact)


def _differ(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Where two arrays of one shape differ: |a d_b - b d_a| > thr d_a d_b on their
    numerators a, b over d_a, d_b."""
    ((an, ad), (bn, bd)), exact, thr = _combine(a, b, tol=tol)
    if exact:
        an, bn = _ints(a._max * bd + b._max * ad, an, bn)
    return np.abs(an * bd - bn * ad) > thr * ad * bd


def _equal(a, b) -> bool:
    """Two kernels, or two vectors, of one shape hold the same values: exactly when
    both are exact, within tol.eq otherwise."""
    return a._shape == b._shape and not _differ(a, b).any()


def _bayes_diagram(f: StochasticMatrix, p: ProbVector, g: StochasticMatrix,
                   q: ProbVector) -> bool:
    """g_xy q_y == f_yx p_x for every x and y, of exact operands, as two whole
    arrays [x, y]."""
    return _equal(_bilinear(StochasticMatrix, np.multiply, g, q),
                  _bilinear(StochasticMatrix, lambda fe, pe: (fe * pe).T, f, p))


def _supported_failure(bad: np.ndarray, p: ProbVector, tol: Tolerance):
    """First (point, outcome) of bad[outcome, point] off the nullset of p, point-major.

    Clears the nullset columns of bad in place.
    """
    bad[:, p.nullset(tol)] = False
    hits = np.flatnonzero(bad.T)
    return None if not hits.size else divmod(int(hits[0]), bad.shape[0])


def ae_equal(
    f: StochasticMatrix, h: StochasticMatrix, p: ProbVector, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Column equality off the nullset of p."""
    if f._shape != h._shape:
        raise ShapeMismatch("kernels have different shapes")
    _check_columns(f, p)
    bad = _supported_failure(_differ(f, h, tol), p, tol)
    if bad is not None:
        x, y = bad
        return _report(
            "classical-ae-equal", False, tol.eq,
            witness={"point": x, "outcome": y},
            detail=f"columns differ at supported point {x}",
        )
    return _report("classical-ae-equal", True, tol.eq)


def is_ae_deterministic(
    f: StochasticMatrix, p: ProbVector, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Every supported column is a 0/1 indicator."""
    _check_columns(f, p)
    bad = _supported_failure(~_indicator_mask(f, tol), p, tol)
    if bad is not None:
        x, y = bad
        value = int(f._num[y, x]) / f._den if f.exact else float(f.entries[y, x])
        return _report(
            "classical-ae-deterministic", False, tol.eq,
            witness={"point": x, "outcome": y, "value": value},
            detail=f"column {x} is supported but not an indicator",
        )
    return _report("classical-ae-deterministic", True, tol.eq)


def embed(f: StochasticMatrix) -> Channel:
    """Faithful embedding as a channel between all-ones algebras.

    The kernel X -> Y becomes the unital positive map C^Y ~> C^X acting by
    (F phi)(x) = sum_y f_yx phi(y); on canonical coordinates the channel
    matrix is the transpose of the kernel.
    """
    dom = AlgebraShape((1,) * f.n_rows)
    cod = AlgebraShape((1,) * f.n_cols)
    return _owned(dom, cod, f._floats().T.astype(complex))


def embed_prob(p: ProbVector, tol: Tolerance = DEFAULT_TOL) -> State:
    """Probability vector as a diagonal density on the all-ones algebra."""
    # the coordinates of 1 x 1 blocks are their entries
    return state_from_density(alg.unvec(AlgebraShape((1,) * p.size), p._floats()), tol)
