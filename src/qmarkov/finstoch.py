"""Classical engine: stochastic matrices, Bayes' rule, disintegration, and
the embedding into commutative algebras.

Entries are column-stochastic: f[y, x] is the probability of y given x.
When every input is rational (int, Fraction, or a "p/q" string) the entries
are an object array of Fractions and every operation is exact, so the Bayes
diagram g_xy q_y = f_yx p_x is an identity, not an approximation.  Otherwise
they are a float array, and non-finite entries are rejected when parsed.
Both kinds run the same array code: an operation on a float and an exact
operand is carried out in floats.  Exact sums and products run on Python-int
numerators over one common denominator per operand (see `_arith`), so they
cost integer arithmetic, not one Fraction operation per term.  Every check
compares against one zero threshold, 0 for exact entries and tol.eq for
floats, so "|v| <= thr" reads "v == 0" and "min(|v|, |v - 1|) <= thr" reads
"v in (0, 1)" in exact mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraShape, AlgElement
from .channel import Channel, PropertyReport, _report
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


def _parse_array(rows) -> tuple[np.ndarray, bool]:
    parsed = [[_parse_entry(v) for v in row] for row in rows]
    width = len(parsed[0]) if parsed else 0
    if any(len(row) != width for row in parsed):
        raise ValueError("rows have different lengths")
    exact = all(ok for row in parsed for _, ok in row)
    values = [[v for v, _ in row] for row in parsed]
    return np.array(values, dtype=object if exact else float).reshape(len(values), width), exact


def _threshold(exact: bool, tol: Tolerance):
    return 0 if exact else tol.eq


def _combine(*operands, tol: Tolerance = DEFAULT_TOL) -> tuple[list[np.ndarray], bool, object]:
    """The operands' entries in one dtype, whether that is exact, and its zero threshold.

    One float operand makes every array float; otherwise they stay Fractions.
    """
    exact = all(o.exact for o in operands)
    arrays = [np.asarray(o.entries, dtype=object if exact else float) for o in operands]
    return arrays, exact, _threshold(exact, tol)


_FRACTION = np.frompyfunc(Fraction, 2, 1)
_ZERO = Fraction(0)


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int | None]:
    """A float array with None, or an exact one as Python-int numerators (each
    with its entry's sign) over the lcm of its denominators: `_arith` operands."""
    if a.dtype != object:
        return a, None
    ratios = [v.as_integer_ratio() for v in a.flat]
    den = math.lcm(*(d for _, d in ratios))
    return np.array([n * (den // d) for n, d in ratios], dtype=object).reshape(a.shape), den


def _arith(op, *operands: tuple[np.ndarray, int | None], over=None) -> np.ndarray:
    """op(*operands) / over, for an op linear in each operand separately
    (a product, or a sum over one operand; not a difference of two).

    Operands and over come from `_scaled`.  Float arrays go through as they
    are.  For exact ones op runs on the Python-int numerators and one
    Fraction is built per nonzero output entry; the zeros share one
    Fraction(0), as Fractions are immutable.  Since every term of op's result
    holds one entry of each operand, dividing by the product of the lcms
    undoes the scaling; Python ints do not overflow, so the result is exact
    for any denominators.  over, broadcast against the result, divides it
    entrywise.
    """
    out = op(*(a for a, _ in operands))
    if operands[0][1] is None:
        return out if over is None else out / over[0]
    den = math.prod(d for _, d in operands)
    if over is not None:
        num, d = over
        out, den = out * d, den * num
    nonzero = out != 0
    if isinstance(den, np.ndarray):
        den = np.broadcast_to(den, out.shape)[nonzero]
    result = np.full(out.shape, _ZERO, dtype=object)
    result[nonzero] = _FRACTION(out[nonzero], den)
    return result


def _column_sums(arr: np.ndarray) -> np.ndarray:
    # running sums from 0, so each float column adds up in the order sum(column)
    # would; a sum that overflows is inf and fails in _first_bad_column
    with np.errstate(over="ignore"):
        return np.add.accumulate(np.vstack([np.zeros((1, arr.shape[1]), arr.dtype), arr]))[-1]


def _first_bad_column(arr: np.ndarray, thr):
    """(column, has a negative entry, column sum) of the first column with an
    entry below -thr or a sum off 1, or None when every column is fine.

    Exact entries are decided on their integer numerators over the common
    denominator den (thr is 0): an entry is negative when its numerator is,
    and a column sums to 1 when its numerators sum to den.  Only the sum of
    the column reported is built as a Fraction.
    """
    num, den = _scaled(arr)
    if den is None:
        negative = (arr < -thr).any(axis=0)
        total = _column_sums(arr)
        mag = np.abs(total)
        ok = (np.abs(total - 1) <= thr * np.maximum(1, mag)) & (mag < np.inf)
    else:
        negative = (num < 0).any(axis=0)
        total = num.sum(axis=0)
        ok = total == den
    bad = np.flatnonzero(negative | ~ok)
    if not bad.size:
        return None
    x = int(bad[0])
    return x, bool(negative[x]), total[x] if den is None else Fraction(total[x], den)


def _indicator_mask(entries: np.ndarray, thr) -> np.ndarray:
    """Entries within thr of 0 or 1."""
    return np.minimum(np.abs(entries), np.abs(entries - 1)) <= thr


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic kernel from a set of size n_cols to one of size n_rows."""

    entries: np.ndarray
    exact: bool

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def is_deterministic(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Every column is a 0/1 indicator."""
        return bool(_indicator_mask(self.entries, _threshold(self.exact, tol)).all())


def stochastic(rows, tol: Tolerance = DEFAULT_TOL) -> StochasticMatrix:
    arr, exact = _parse_array(rows)
    bad = _first_bad_column(arr, _threshold(exact, tol))
    if bad is not None:
        x, negative, total = bad
        raise ValueError(f"negative probability in column {x}" if negative
                         else f"column {x} sums to {total}, expected 1")
    return StochasticMatrix(arr, exact)


@dataclass(frozen=True)
class ProbVector:
    """Probability vector with its nullset."""

    entries: np.ndarray
    exact: bool

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def nullset(self, tol: Tolerance = DEFAULT_TOL) -> list[int]:
        return np.flatnonzero(np.abs(self.entries) <= _threshold(self.exact, tol)).tolist()


def prob_vector(values, tol: Tolerance = DEFAULT_TOL) -> ProbVector:
    arr, exact = _parse_array([list(values)])
    vec = arr[0]
    bad = _first_bad_column(vec[:, None], _threshold(exact, tol))
    if bad is not None:
        _, negative, total = bad
        raise ValueError("negative probability entry" if negative
                         else f"probabilities sum to {total}, expected 1")
    return ProbVector(vec.copy(), exact)


def deterministic_kernel(func, n_in: int, n_out: int) -> StochasticMatrix:
    """Kernel of a function {0..n_in-1} -> {0..n_out-1}, exact."""
    images = [func(x) for x in range(n_in)]
    for x, y in enumerate(images):
        if y not in range(n_out):
            raise ValueError(f"column {x} sums to 0, expected 1")
    entries = np.full((n_out, n_in), _ZERO, dtype=object)
    entries[np.array(images, dtype=int), np.arange(n_in)] = Fraction(1)
    return StochasticMatrix(entries, True)


def _check_columns(f: StochasticMatrix, p: ProbVector) -> None:
    if f.n_cols != p.size:
        raise ShapeMismatch(f"kernel has {f.n_cols} columns, measure has {p.size}")


def compose(g: StochasticMatrix, f: StochasticMatrix) -> StochasticMatrix:
    """Chapman-Kolmogorov composite g after f."""
    if g.n_cols != f.n_rows:
        raise ShapeMismatch(f"cannot compose {g.n_cols} columns with {f.n_rows} rows")
    (ge, fe), exact, _ = _combine(g, f)
    return StochasticMatrix(_arith(np.matmul, _scaled(ge), _scaled(fe)), exact)


def product(f: StochasticMatrix, f2: StochasticMatrix) -> StochasticMatrix:
    """Kernel on product spaces, output pairs ordered first-factor major."""
    (fe, f2e), exact, _ = _combine(f, f2)
    return StochasticMatrix(_arith(np.kron, _scaled(fe), _scaled(f2e)), exact)


def push(f: StochasticMatrix, p: ProbVector) -> ProbVector:
    """Pushforward measure (matrix times vector)."""
    _check_columns(f, p)
    (fe, pe), exact, _ = _combine(f, p)
    return ProbVector(_arith(np.matmul, _scaled(fe), _scaled(pe)), exact)


def bayes_inverse(f: StochasticMatrix, p: ProbVector, tol: Tolerance = DEFAULT_TOL) -> StochasticMatrix:
    """Bayes rule g_xy = f_yx p_x / q_y, with uniform columns on the nullset of q.

    The result satisfies g_xy q_y = f_yx p_x for every x, y (exactly in
    rational mode) and push(g, q) = p.
    """
    _check_columns(f, p)
    (fe, pe), exact, thr = _combine(f, p, tol=tol)
    fs, ps = _scaled(fe), _scaled(pe)
    q = _arith(np.matmul, fs, ps)
    null = np.abs(q) <= thr
    out = _arith(lambda fa, pa: fa.T * pa[:, None], fs, ps, over=_scaled(np.where(null, 1, q)))
    out[:, null] = Fraction(1, p.size)
    return StochasticMatrix(out, exact)


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
    if f.entries.shape != h.entries.shape:
        raise ShapeMismatch("kernels have different shapes")
    _check_columns(f, p)
    (fe, he), _, thr = _combine(f, h, tol=tol)
    bad = _supported_failure(np.abs(fe - he) > thr, p, tol)
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
    bad = _supported_failure(~_indicator_mask(f.entries, _threshold(f.exact, tol)), p, tol)
    if bad is not None:
        x, y = bad
        return _report(
            "classical-ae-deterministic", False, tol.eq,
            witness={"point": x, "outcome": y, "value": float(f.entries[y, x])},
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
    if f.exact:   # one Fraction.__float__ per nonzero entry; float(Fraction(0)) is 0.0
        nonzero, mat = f.entries.astype(bool), np.zeros(f.entries.shape)
        mat[nonzero] = f.entries[nonzero].astype(float)
    else:
        mat = np.asarray(f.entries, dtype=float)
    return Channel(dom, cod, mat.T.astype(complex))


def embed_prob(p: ProbVector, tol: Tolerance = DEFAULT_TOL) -> State:
    """Probability vector as a diagonal density on the all-ones algebra."""
    s = AlgebraShape((1,) * p.size)
    blocks = tuple(np.array([[complex(v)]]) for v in np.asarray(p.entries, dtype=float))
    return state_from_density(AlgElement(s, blocks), tol)
