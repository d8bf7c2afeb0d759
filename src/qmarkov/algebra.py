"""Finite direct sums of matrix algebras and their structure maps.

An algebra is described by its block dimensions (n_1, ..., n_k).  The
canonical coordinate basis lists the matrix units block by block, row-major
inside each block, which fixes the vectorization used by every channel
matrix in the library.  An element is its shape and one read-only vector of
coordinates in that basis; its blocks are views into the vector.

The adjoint, products of units and tensor products of units are index
tables on coordinates.  Products, norms and spectra read an element as
stacks: the k blocks of size m form one array (k, m, m), one per block size,
with any leading batch dimensions: a view of the coordinates when the blocks
of that size are adjacent, a gather otherwise.  A batch of elements of many
equal blocks costs one array operation, not one per block or element, and
the finiteness of an element is checked once, when stacked.  Every tol.eq
comparison of two elements is the one equality rule, `failing_entries`,
which reads coordinates and takes stacks only for the norms it needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import NotSelfAdjoint, ShapeMismatch
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "AlgebraShape",
    "AlgElement",
    "zero",
    "unit",
    "mul",
    "adjoint",
    "trace",
    "norm",
    "elem_equal",
    "vec",
    "unvec",
    "matrix_units",
    "basis_index",
    "tensor_shape",
    "tensor_elem",
    "is_positive_elem",
    "is_self_adjoint_elem",
    "block_embed",
    "random_element",
    "random_self_adjoint",
    "random_positive",
    "random_density",
]


@dataclass(frozen=True, eq=False)
class AlgebraShape:
    """Block dimensions (n_1, ..., n_k) of a direct sum of matrix algebras;
    coord_dim, the sum of the n_i^2, is the number of coordinates."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if len(blocks) < 1 or any(n < 1 for n in blocks):
            raise ValueError(f"invalid block dimensions {self.blocks}")
        layout = _layout_of(blocks)
        # coord_dim, the hash and the coordinate layout are kept in the instance dict, so
        # each is one attribute read; equal shapes share one layout
        self.__dict__.update(blocks=blocks, _hash=hash(blocks), _layout=layout,
                             coord_dim=layout.coord_dim)

    # equality (identity first, as every cached index table looks a shape up),
    # hashing, pickling and repr read `blocks` only
    def __eq__(self, other):
        if self is other:
            return True
        return self.blocks == other.blocks if isinstance(other, AlgebraShape) else NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return AlgebraShape, (self.blocks,)

    @property
    def total_dim(self) -> int:
        """Dimension of the Hilbert space carrying the block-diagonal picture."""
        return sum(self.blocks)

    @property
    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.blocks)

    def offsets(self) -> tuple[int, ...]:
        """Coordinate offset of each block in the canonical basis."""
        return self._offsets

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        return tuple(accumulate((n * n for n in self.blocks[:-1]), initial=0))

    def __repr__(self):
        return f"AlgebraShape({list(self.blocks)})"


class AlgElement:
    """Element of a direct sum of matrix algebras: its shape and its
    coordinates in the canonical basis, one read-only complex vector.

    AlgElement(shape, blocks) copies the blocks into the vector, so no array
    the caller holds can change the element, and raises ValueError on NaN or
    Inf entries, as a `Channel` does; `blocks` and `block(x)` are read-only
    views into it.  Two elements are equal when their shapes and coordinates
    are exactly equal; elements are not hashable.
    """

    __slots__ = ("shape", "_coords")

    def __init__(self, shape: AlgebraShape, blocks):
        if len(blocks) != len(shape.blocks):
            raise ShapeMismatch("block count does not match shape")
        parts = []
        for n, b in zip(shape.blocks, blocks):
            m = np.asarray(b, dtype=complex)
            if m.shape != (n, n):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({n}, {n})")
            parts.append(m.reshape(-1))
        v = np.concatenate(parts)
        _finite(v)
        _adopt(shape, v, self)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.block(x) for x in range(len(self.shape.blocks)))

    def block(self, x: int) -> np.ndarray:
        n, off = self.shape.blocks[x], self.shape.offsets()[x]
        return self._coords[off:off + n * n].reshape(n, n)

    def __setattr__(self, name, value):
        raise AttributeError("AlgElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._coords, other._coords))

    __hash__ = None

    def __repr__(self):
        return f"AlgElement(shape={self.shape!r}, blocks={self.blocks!r})"

    def __reduce__(self):
        return unvec, (self.shape, self._coords)

    def __add__(self, other: "AlgElement") -> "AlgElement":
        _check_same_shape(self, other)
        return _adopt(self.shape, self._coords + other._coords)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        _check_same_shape(self, other)
        return _adopt(self.shape, self._coords - other._coords)

    def __mul__(self, scalar: complex) -> "AlgElement":
        return _adopt(self.shape, scalar * self._coords)

    __rmul__ = __mul__

    def __neg__(self) -> "AlgElement":
        return self * (-1.0)


_set_shape, _set_coords = AlgElement.shape.__set__, AlgElement._coords.__set__


def _adopt(s: AlgebraShape, v: np.ndarray, a: AlgElement | None = None) -> AlgElement:
    """The element (a, or a new one) with coordinates v, taken without a copy:
    a complex vector, or a view of the stacks given to `_join`, that no caller writes to."""
    a = object.__new__(AlgElement) if a is None else a
    _set_shape(a, s)   # the slot descriptors: AlgElement.__setattr__ refuses every write
    v.setflags(write=False)
    _set_coords(a, v)
    return a


def _check_same_shape(a: AlgElement, b: AlgElement):
    if a.shape is not b.shape and a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")


def zero(s: AlgebraShape) -> AlgElement:
    return _adopt(s, np.zeros(s.coord_dim, dtype=complex))


def unit(s: AlgebraShape) -> AlgElement:
    """Multiplicative identity (the image of the unit inclusion)."""
    return _adopt(s, _unit_coords(s))


def mul(a: AlgElement, b: AlgElement) -> AlgElement:
    """Blockwise matrix product."""
    _check_same_shape(a, b)
    return _adopt(a.shape, _mul_coords(a.shape, a._coords, b._coords))


def adjoint(a: AlgElement) -> AlgElement:
    """Blockwise conjugate transpose (the involution)."""
    return _adopt(a.shape, _adjoint_coords(a.shape, a._coords))


def trace(a: AlgElement) -> complex:
    """Unweighted trace, summed over blocks."""
    return complex(_trace_coords(a.shape, a._coords))


def _trace_coords(s: AlgebraShape, v: np.ndarray) -> np.ndarray:
    """Traces of the elements with coordinates v (..., coord_dim), one per element.

    `take` gathers each element's diagonal contiguously (an indexed gather
    v[..., diag] of a batch is column-major), so it is summed as it would be
    alone and every trace has the bits `trace` gives.
    """
    lead = v.shape[:-1]
    per_block = np.zeros((len(s.blocks) + 1,) + lead[::-1], dtype=complex)
    blocks = per_block[1:]
    for g in s._layout.groups:   # the diagonal, summed as np.trace sums it
        blocks[g.ids] = v.take(g.diag, -1).reshape(lead + g.tail[:2]).sum(-1).T
    # a running sum from 0, so the blocks add up in order, as a per-block sum() adds them
    return np.add.accumulate(per_block)[-1].T


def norm(a: AlgElement) -> float:
    """Operator norm: the maximum of the blockwise operator norms."""
    return float(_op_norm(_element_stacks(a)))


def elem_equal(a: AlgElement, b: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    _check_same_shape(a, b)
    return _coords_equal(a.shape, a._coords, b._coords, tol)


def _coords_equal(s: AlgebraShape, u: np.ndarray, v: np.ndarray, tol: Tolerance, unit=1.0) -> bool:
    """Whether the elements with coordinates u and v (..., coord_dim), broadcast, are equal
    in every pair: `failing_entries` with no support and floor unit, one vector a batch of one.

    A pair with entries above 2^500, where u - v may overflow, is compared with u,
    v and the floor scaled alike by its own exact 2^-e from `scale_exponent`.
    Raises ValueError on NaN or Inf entries.
    """
    big = 2.0 ** 1000   # one pair whose sums of squares are at most 2^1000 needs no scaling
    if u.ndim == 1 == v.ndim and np.vdot(u, u).real <= big and np.vdot(v, v).real <= big:
        return not _some(failing_entries(s, u, v, tol, unit=unit))
    if u.shape != v.shape:
        u, v = np.broadcast_arrays(u, v)
    e = scale_exponent(np.concatenate((u, v), axis=-1)[..., None, :], 500)   # per pair
    if _some(e):
        c = np.ldexp(1.0, -e)
        u, v, unit = u * c[..., None], v * c[..., None], unit * c
    return not _some(failing_entries(s, u, v, tol, unit=unit))


def vec(a: AlgElement) -> np.ndarray:
    """Coordinates of a in the canonical matrix-unit basis: a's own read-only vector."""
    return a._coords


def unvec(s: AlgebraShape, v: np.ndarray) -> AlgElement:
    """The element with coordinates v (copied); raises ValueError on NaN or Inf entries."""
    v = np.array(v, dtype=complex).reshape(-1)
    if v.size != s.coord_dim:
        raise ShapeMismatch(f"coordinate vector of length {v.size}, expected {s.coord_dim}")
    _finite(v)
    return _adopt(s, v)


def basis_index(s: AlgebraShape, block: int, i: int, j: int) -> int:
    """Coordinate index of the matrix unit E_ij in the given block."""
    return s.offsets()[block] + i * s.blocks[block] + j


def matrix_units(s: AlgebraShape) -> list[AlgElement]:
    """All matrix units of the algebra in canonical coordinate order."""
    return [_adopt(s, e) for e in np.eye(s.coord_dim, dtype=complex)]


def tensor_shape(s1: AlgebraShape, s2: AlgebraShape) -> AlgebraShape:
    """Tensor product shape, block pairs ordered left-factor major: one object
    per pair of block dimensions, so its layout and index tables are built once."""
    return _tensor_shape(s1.blocks, s2.blocks)


@lru_cache(maxsize=64)
def _tensor_shape(left: tuple[int, ...], right: tuple[int, ...]) -> AlgebraShape:
    return AlgebraShape(tuple(m * n for m in left for n in right))


def tensor_elem(a: AlgElement, b: AlgElement) -> AlgElement:
    """Kronecker product per block pair, in tensor_shape order."""
    return _adopt(tensor_shape(a.shape, b.shape), _tensor_coords(a.shape, b.shape, a._coords,
                                                                 b._coords))


def _tensor_coords(s1: AlgebraShape, s2: AlgebraShape, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coordinates of the tensor products of elements with coordinates u on s1 and v on s2."""
    left, right = tensor_index(s1, s2)
    return u[..., left] * v[..., right]


def is_self_adjoint_elem(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a is self-adjoint: the skew half of the rule of `_psd_verdicts` at
    unit 1.  A skew within tol.herm passes with no norm taken."""
    xs = _element_stacks(a)
    dev = _max_abs([x - _dagger(x) for x in xs])
    return bool(dev <= tol.herm or dev <= tol.herm * tol.scale(_op_norm(xs)))


def is_positive_elem(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a is positive (equals some b*b), per block against max(1, ||a||),
    as `_psd_verdicts` decides it.  Raises NotSelfAdjoint when a is not
    self-adjoint within tolerance, ValueError on NaN or Inf entries.  Above 2^500,
    where a +- a* could overflow, it is decided on a 2^-e and the floor 2^-e, as
    `channel.is_cp` decides.
    """
    v = vec(a)
    e = int(scale_exponent(v[None], 500))
    c = 2.0 ** -e
    xs = _stacks(a.shape, v * c) if e else _element_stacks(a)
    not_sa, negative, _, _ = _psd_verdicts(_hermitian(xs), [x - _dagger(x) for x in xs], c, tol)
    if not_sa:
        raise NotSelfAdjoint("element is not self-adjoint within tolerance")
    return not negative


def min_eig(a: AlgElement) -> float:
    """Smallest eigenvalue across blocks of the self-adjoint part of a."""
    return float(_lowest(_eigvalsh(_hermitian(_element_stacks(a)))))


# ---------------------------------------------------------------------------
# Coordinate layout: index tables, shared by every caller, so read-only
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _labels(blocks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block offset, block size, row and column of every unit, canonical order."""
    sizes = np.array(blocks)
    n = np.repeat(sizes, sizes * sizes)
    off = np.repeat(np.cumsum(sizes * sizes) - sizes * sizes, sizes * sizes)
    row, col = np.divmod(np.arange(n.size) - off, n)
    return off, n, row, col


@lru_cache(maxsize=64)
def adjoint_index(s: AlgebraShape) -> np.ndarray:
    """adj[a] is the index of E_a*."""
    off, n, row, col = _labels(s.blocks)
    return _read_only(off + col * n + row)


@lru_cache(maxsize=64)
def product_index(s: AlgebraShape) -> np.ndarray:
    """prod[a, b] is the index of E_a E_b, or coord_dim when the product is 0."""
    off, n, row, col = _labels(s.blocks)
    joint = (off[:, None] == off[None, :]) & (col[:, None] == row[None, :])
    return _read_only(np.where(joint, off[:, None] + row[:, None] * n[:, None] + col[None, :],
                               s.coord_dim))


@lru_cache(maxsize=64)
def tensor_index(s1: AlgebraShape, s2: AlgebraShape) -> tuple[np.ndarray, np.ndarray]:
    """(left, right): the units of s1 and of s2 whose tensor product is each
    unit of tensor_shape(s1, s2), canonical order.

    Block (x, y) of the tensor shape has size m n; its unit at row (i, p),
    column (j, q) is E_ij (x) E_pq.
    """
    t = tensor_shape(s1, s2)
    _, _, row, col = _labels(t.blocks)
    block = np.repeat(np.arange(len(t.blocks)), np.array(t.blocks) ** 2)
    x, y = np.divmod(block, len(s2.blocks))
    m, n = np.array(s1.blocks)[x], np.array(s2.blocks)[y]
    (i, p), (j, q) = np.divmod(row, n), np.divmod(col, n)
    left = np.array(s1.offsets())[x] + i * m + j
    right = np.array(s2.offsets())[y] + p * n + q
    return _read_only(left), _read_only(right)


@lru_cache(maxsize=64)
def _embed_index(s: AlgebraShape) -> np.ndarray:
    """Flat position of every unit in the block-diagonal total_dim x total_dim picture."""
    _, _, row, col = _labels(s.blocks)
    start = np.repeat(np.cumsum((0,) + s.blocks[:-1]), np.array(s.blocks) ** 2)
    return _read_only((start + row) * s.total_dim + start + col)


@lru_cache(maxsize=64)
def _unit_coords(s: AlgebraShape) -> np.ndarray:
    """vec(1)."""
    _, _, row, col = _labels(s.blocks)
    return _read_only((row == col).astype(complex))


# ---------------------------------------------------------------------------
# Stacked layout: the blocks of each size as one array
# ---------------------------------------------------------------------------

Stacks = list  # one array (..., k, m, m) per block size of a shape

_SLACK = 1e-12     # relative margin on the cheap norm bounds, far above rounding


class _Group(NamedTuple):
    """The k blocks of one size m of a shape."""

    m: int
    ids: np.ndarray              # the blocks of size m
    rows: np.ndarray             # their coordinate rows
    at: slice | np.ndarray       # the rows as a slice when they are one range: stacks are views
    tail: tuple[int, int, int]   # (k, m, m)
    diag: np.ndarray             # the rows of their diagonal entries


class _Layout(NamedTuple):
    """How the coordinates of a shape split into stacks, built once per block dimensions."""

    coord_dim: int
    groups: tuple[_Group, ...]   # one per block size, in order of first appearance
    in_order: bool               # every group is one range: stacks concatenate to coordinates
    re: slice | np.ndarray       # where `_random_coords` reads the real and imaginary
    im: slice | np.ndarray       # parts of every coordinate in one flat draw


def _as_slice(idx: np.ndarray, step: int) -> slice | np.ndarray:
    """idx as a slice when it is idx[0], idx[0] + step, ..., else idx."""
    if (idx == idx[0] + step * np.arange(idx.size)).all():
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


@lru_cache(maxsize=256)
def _layout_of(blocks: tuple[int, ...]) -> _Layout:
    sizes, (off, n, row, col) = np.array(blocks), _labels(blocks)
    groups = []
    for m in dict.fromkeys(blocks):
        ids, rows = np.flatnonzero(sizes == m), np.flatnonzero(n == m)
        diag = rows[row[rows] == col[rows]]
        groups.append(_Group(m, _read_only(ids), _read_only(rows), _as_slice(rows, 1),
                             (len(ids), m, m), _read_only(diag)))
    re = np.arange(n.size) + off   # block by block: n^2 real parts, then n^2 imaginary parts
    step = int(re[1] - re[0]) if re.size > 1 else 1
    return _Layout(n.size, tuple(groups), all(isinstance(g.at, slice) for g in groups),
                   _as_slice(_read_only(re), step), _as_slice(_read_only(re + n * n), step))


def _finite(x: np.ndarray):
    """The sum of the squares of the entries of x, or ValueError on a NaN or Inf entry.
    Every entry is finite when that sum is, so only a sum that is not takes the entrywise test."""
    squares = np.vdot(x, x)
    if not np.isfinite(squares) and not np.isfinite(x).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return squares


def _some(x: np.ndarray) -> bool:
    """Whether some entry of x is nonzero: for one value its truth, else count_nonzero,
    the cheaper test for each (`any` on a NumPy scalar costs several times either)."""
    return bool(x) if x.ndim == 0 else np.count_nonzero(x) > 0


def _stacks(s: AlgebraShape, v: np.ndarray) -> Stacks:
    """Coordinates (..., coord_dim) on s as stacks (..., k, m, m), views of v where they can be."""
    lead = v.shape[:-1]
    return [v[..., g.at].reshape(lead + g.tail) for g in s._layout.groups]


def _element_stacks(a: AlgElement) -> Stacks:
    """a as stacks (k, m, m); raises ValueError on NaN or Inf entries."""
    v = vec(a)
    _finite(v)
    return _stacks(a.shape, v)


def _join(s: AlgebraShape, xs: Stacks) -> np.ndarray:
    """Coordinates (..., coord_dim) on s from complex stacks (..., k, m, m);
    inverts `_stacks`.  The result may be a view of xs[0]."""
    lead, layout = xs[0].shape[:-3], s._layout
    if not xs[0].size:   # an empty batch, whose rows reshape cannot infer
        return np.empty(lead + (s.coord_dim,), dtype=complex)
    flat = [x.reshape(lead + (-1,)) for x in xs]
    if layout.in_order:
        return flat[0] if len(flat) == 1 else np.concatenate(flat, axis=-1)
    v = np.empty(lead + (s.coord_dim,), dtype=complex)
    for g, x in zip(layout.groups, flat):
        v[..., g.rows] = x
    return v


def _mul_coords(s: AlgebraShape, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coordinates of the blockwise products of elements with coordinates u and v."""
    return _join(s, [x @ y for x, y in zip(_stacks(s, u), _stacks(s, v))])


def _gram(s: AlgebraShape, x: np.ndarray) -> np.ndarray:
    """Coordinates of B*B for the elements B with coordinates x (..., coord_dim)."""
    return _mul_coords(s, _adjoint_coords(s, x), x)


def _mul_columns(s: AlgebraShape, a: np.ndarray, m: np.ndarray, left: bool) -> np.ndarray:
    """a X (left) or X a for every column X of m (coord_dim, N): a F(E_j) or F(E_j) a in
    column j of a channel matrix.  One call per block size k x (r, r): a @ M (k, r, r N) on
    the left, a^T @ M[i] per row i of M (k, r, r, N) on the right, a broadcast multiply for
    r = 1.  BLAS sums in its own order: the last bits may differ from `_mul_coords`."""
    n, groups = m.shape[1], s._layout.groups
    out = None if len(groups) == 1 else np.empty(m.shape, dtype=complex)
    for g, x in zip(groups, _stacks(s, a)):
        k, r, _ = g.tail
        c = m[g.at].reshape(k, r, r * n)
        y = (x * c if r == 1 else x @ c if left
             else np.matmul(x.swapaxes(1, 2)[:, None], c.reshape(k, r, r, n)))
        if out is None:
            return y.reshape(m.shape)
        out[g.at] = y.reshape(-1, n)
    return out


def _adjoint_coords(s: AlgebraShape, u: np.ndarray) -> np.ndarray:
    """Coordinates of the adjoints of elements with coordinates u."""
    return u[..., adjoint_index(s)].conj()


def _dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


def _fold_max(values: list) -> np.ndarray:
    """np.maximum.reduce(values), one pairwise maximum at a time, in order: the same
    values (NaN included) with no conversion of the list to an array.  One entry is
    returned as it is, so callers must not write into the result."""
    return reduce(np.maximum, values)


def _fold_min(values: list) -> np.ndarray:
    """np.minimum.reduce(values), folded as `_fold_max` folds."""
    return reduce(np.minimum, values)


# The norm of an element is its largest blockwise operator norm.  It lies
# between the largest absolute entry and the largest blockwise Frobenius
# norm; both bounds are widened by _SLACK to cover rounding.  Each function
# maps stacks (..., k, m, m) to one value per element (...).

def _max_abs(xs: Stacks) -> np.ndarray:
    """Largest absolute entry of each element, as `elem_equal` measures it."""
    return _fold_max([np.abs(x).max(axis=(-3, -2, -1)) for x in xs])


def _lower(xs: Stacks) -> np.ndarray:
    return _max_abs(xs) * (1 - _SLACK)


def _upper(xs: Stacks) -> np.ndarray:
    return _fold_max([_frobenius(x) for x in xs]) * (1 + _SLACK)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Largest blockwise Frobenius norm of each element of one stack; inf above the
    float max."""
    return _scaled_norm(
        x, lambda y: np.sqrt((y.real ** 2 + y.imag ** 2).sum(axis=(-2, -1)).max(axis=-1)))


def _scaled_norm(x: np.ndarray, norm_of) -> np.ndarray:
    """norm_of(x) of one stack (..., k, p, q), one value per element, where the squares of
    the entries of x may overflow: each element with a real or imaginary part above
    2^500 is scaled by the 2^-e of its largest one, exactly, so every absolute entry
    is below sqrt(2), and its norm scaled back; inf above the float max, with no warning.
    An Inf part, with exponent 0, stays Inf."""
    # a part is above 2^500 only when the sum of all squares is above 2^1000 (or NaN)
    if np.vdot(x, x).real <= 2.0 ** 1000:
        return norm_of(x)
    top = _top_part(x, (-3, -2, -1))
    if not np.max(top, initial=0.0) > 2.0 ** 500:
        return norm_of(x)
    e = np.frexp(top)[1]
    with np.errstate(over="ignore"):
        return np.ldexp(norm_of(x * np.ldexp(1.0, -e)[..., None, None, None]), e)


def _op_norm(xs: Stacks) -> np.ndarray:
    """Operator norm of each element: the largest singular value of its blocks; inf
    above the float max.

    The blocks may be rectangular (`linalg.op_norm` passes one p x q matrix).
    """
    def spectral(x):
        top = np.linalg.eigvalsh(_dagger(x) @ x)[..., -1]
        return np.sqrt(np.maximum(top, 0.0)).max(axis=-1)

    out = []
    for x in xs:
        if x.shape[-2:] == (1, 1):   # |z| of a finite z may overflow to inf: no warning
            out.append(np.abs(x[..., 0, 0]).max(axis=-1))
        else:   # x* x may overflow
            out.append(_scaled_norm(x, spectral))
    return _fold_max(out)


# ---------------------------------------------------------------------------
# The equality rule: every tol.eq decision of the exact checks
# ---------------------------------------------------------------------------

_SCALARS = AlgebraShape((1,))   # C: the rule compares scalars as 1 x 1 elements


def scale_exponent(matrix: np.ndarray, bits: int) -> np.ndarray:
    """0 when every real and imaginary part of matrix is at most 2^bits in absolute
    value; otherwise the e > 0 that puts the largest of them 2^-e in
    [2^(bits - 1), 2^bits), so every entry of matrix 2^-e is below 2^(bits + 1/2).
    One exponent per matrix of a stack (..., r, c).  Raises ValueError on NaN or
    Inf entries.

    The scaling is exact, so checks whose products or differences could
    overflow compare operands scaled by 2^-e instead.
    """
    # an entry above 2^bits only when the sum of all squares is above 2^2bits (or NaN)
    if np.vdot(matrix, matrix).real <= 2.0 ** (2 * bits):
        return np.zeros(matrix.shape[:-2], dtype=int)
    top = _top_part(matrix, (-2, -1))
    _finite(top)
    return np.where(top > 2.0 ** bits, np.frexp(top)[1] - bits, 0)


def _top_part(x: np.ndarray, axis) -> np.ndarray:
    """The largest real or imaginary part of x over axis, in absolute value: |z| of a
    finite z may overflow, its parts cannot."""
    return np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=axis)


def _with_support(x: np.ndarray, p: np.ndarray, side: str) -> np.ndarray:
    """x[n] p (side "right") or p x[n] (side "left") for every n, one product per block.

    x is (..., n, k, m, m) and p (..., k, m, m), with the leading axes of x:
    each batch entry of x is multiplied by its own support.
    """
    lead, (n, k, m, _) = x.shape[:-4], x.shape[-4:]
    p = p.reshape(-1, m, m)
    if side == "right":
        out = x.swapaxes(-4, -3).reshape(-1, n * m, m) @ p
        return out.reshape(lead + (k, n, m, m)).swapaxes(-4, -3)
    b = len(lead)
    at = tuple(range(b))
    out = p @ x.transpose(at + (b + 1, b + 2, b, b + 3)).reshape(-1, m, n * m)
    return out.reshape(lead + (k, m, n, m)).transpose(at + (b + 2, b, b + 1, b + 3))


def failing_entries(s: AlgebraShape, lhs: np.ndarray, rhs: np.ndarray, tol: Tolerance,
                    proj: np.ndarray | None = None, side: str = "right",
                    unit: float | np.ndarray = 1.0) -> np.ndarray:
    """Whether each entry of a batch of element pairs fails: the one equality rule.

    lhs and rhs are the coordinates (..., coord_dim) on s of the two elements of
    every entry; the result is a bool per entry (...).  With no support an
    entry passes when max|lhs - rhs| <= tol.eq * max(unit, ||lhs||, ||rhs||),
    the rule of `elem_equal`.  With supports, coordinates proj (..., coord_dim)
    of one projection P per batch entry of the leading axes of lhs
    (..., n, coord_dim), it passes when the operator norm of (lhs - rhs) P
    (side "right") or P (lhs - rhs) (side "left") is within the same bound, the
    rule of the a.e. checks.  ||.|| is the operator norm: the largest blockwise
    one.  unit, broadcast against the entries, is the floor of each entry's
    scale: 1 but for operands scaled by a power of two, where it is scaled
    alike.  A scalar is an element of `_SCALARS`.  lhs and rhs broadcast against
    each other.

    max-abs entry <= operator norm <= Frobenius norm, so cheap bounds settle
    most entries.  With no support the deviation is the largest entry itself;
    with one, it lies between the bounds of its product.  An entry whose
    deviation is at most tol.eq * unit passes whatever its scale.  Otherwise
    it passes under the upper bound on its deviation and the lower bound on
    its scale, or fails under the lower bound on its deviation and the upper
    bound on its scale.  Only the rest pay for exact operator norms.  With a
    support, a batch of one entry that the first bound leaves live takes its
    exact norms at once, the deviation's and the scale's in one call, where the
    norm of a zero operand is 0 and not taken.  A NaN or infinite deviation
    fails, whatever the scale: an infinite operand leaves no finite bound.
    """
    diff = lhs - rhs
    diff_shape = diff.shape
    if proj is None:
        dev_hi = np.maximum.reduce(np.abs(diff), axis=-1)
    else:
        diff = [_with_support(x, p, side) for x, p in zip(_stacks(s, diff), _stacks(s, proj))]
        dev_hi = _upper(diff)
    # the live entries; True stays only where they fail.  Every test reads
    # not (dev <= bound), so a NaN deviation fails; an infinite one fails below
    fail = ~(dev_hi <= tol.eq * unit)
    if not _some(fail):
        return fail
    if proj is not None and fail.size == 1 and np.isfinite(dev_hi).all():
        # the deviation, then the nonzero operands, in one call
        one = [[x.reshape((1,) + x.shape[-3:]) for x in diff]]
        one += [_stacks(s, x.reshape(1, s.coord_dim)) for x in (lhs, rhs) if _some(x)]
        norms = _op_norm([np.concatenate(xs) for xs in zip(*one)])
        return np.reshape(~(norms[0] <= tol.eq * np.maximum(unit, norms[1:].max())),
                          np.shape(fail))
    shape = fail.shape
    fail, dev_hi = fail.reshape(-1), dev_hi.reshape(-1)   # one flat run of entries
    live = np.flatnonzero(fail)
    lhs, rhs = (x if x.shape == diff_shape else np.broadcast_to(x, diff_shape)
                for x in (lhs, rhs))
    lhs, rhs = (_stacks(s, x.reshape(-1, s.coord_dim)[live]) for x in (lhs, rhs))
    dev_hi, unit = dev_hi[live], np.full(shape, unit).reshape(-1)[live]
    if proj is None:
        dev_lo = dev_hi
    else:
        diff = [x.reshape((-1,) + x.shape[-3:])[live] for x in diff]
        dev_lo = _lower(diff)
    out = ~(dev_lo <= tol.eq * np.maximum(unit, np.maximum(_upper(lhs), _upper(rhs))))
    out |= dev_lo == np.inf
    open_ = ~out & (dev_hi > tol.eq * np.maximum(unit, np.maximum(_lower(lhs), _lower(rhs))))
    if open_.any():
        def pick(xs):
            return [x[open_] for x in xs]
        dev = dev_hi[open_] if proj is None else _op_norm(pick(diff))
        scale = np.maximum(_op_norm(pick(lhs)), _op_norm(pick(rhs)))
        out[open_] = ~(dev <= tol.eq * np.maximum(unit[open_], scale))
    fail[live] = out
    return fail.reshape(shape)


def _hermitian(xs: Stacks) -> Stacks:
    """The Hermitian parts (x + x*) / 2, exactly Hermitian in floating point."""
    return [0.5 * (x + _dagger(x)) for x in xs]


def _eigvalsh(hs: Stacks) -> Stacks:
    """Ascending eigenvalues (..., k, m) of every matrix of the Hermitian stacks hs."""
    return [h.real[..., 0] if h.shape[-1] == 1 else np.linalg.eigvalsh(h) for h in hs]


def _lowest(w: Stacks) -> np.ndarray:
    """Smallest eigenvalue of each element, from the stacks of its ascending eigenvalues."""
    return _fold_min([v[..., 0].min(axis=-1) for v in w])


def _psd_verdicts(hs: Stacks, diff: Stacks, unit, tol: Tolerance, w: Stacks | None = None):
    """Decide, for every element x of a batch, the rule

        max|x - x*| <= tol.herm s   and   lambda_min(H) >= -tol.psd s,

    with H = (x + x*) / 2 and s = max(unit, ||x||); unit is one floor for all
    elements or one per element.  x is given by the writable stacks hs of H and
    diff of x - x*, (..., k, m, m).  Returns (not self-adjoint, not PSD,
    max|x - x*|, lowest eigenvalue), one value per element; the eigenvalue is
    +inf when no spectrum was taken.  A caller that holds the ascending
    eigenvalues of H passes them (w, stacks (..., k, m)).

    The ladder: a pass that `_psd_pass` proves at lo = max(unit, max|H_ij| (1 - _SLACK)),
    with the skew within tol.herm lo, needs no spectrum; otherwise one batched
    eigvalsh bounds the scale by max(unit, ||H|| (1 - _SLACK)) and
    max(unit, (||H|| + ||x - x*||_F / 2)(1 + _SLACK)), and only an element whose
    verdict differs between the two pays for its exact norm, taken of
    H + (x - x*) / 2, which is x up to one rounding per entry.
    """
    skew = _max_abs(diff)
    if w is None:
        floor = np.maximum(unit, _lower(hs))
        if (skew <= tol.herm * floor).all() and _psd_pass(hs, floor, tol):
            passed = np.zeros(np.shape(skew), dtype=bool)
            return passed, passed, skew, np.inf
        w = _eigvalsh(hs)
    low, top = _lowest(w), _fold_max([np.abs(v).max(axis=(-2, -1)) for v in w])   # ||H||

    def fails(scale):
        return skew > tol.herm * scale, low < -tol.psd * scale

    lo = np.maximum(unit, top * (1 - _SLACK))
    not_sa, negative = fails(lo)
    if not (not_sa | negative).any():   # a pass at lo is a pass at every larger scale
        return not_sa, negative, skew, low
    not_sa_hi, negative_hi = fails(np.maximum(unit, top * (1 + _SLACK) + 0.5 * _upper(diff)))
    open_ = (not_sa != not_sa_hi) | (negative != negative_hi)
    if open_.any():   # any scale between the bounds settles the other elements
        scale = np.array(lo, dtype=float)
        scale[open_] = np.maximum(np.broadcast_to(unit, open_.shape)[open_],
                                  _op_norm([h[open_] + 0.5 * d[open_] for h, d in zip(hs, diff)]))
        not_sa, negative = fails(scale)
    return not_sa, negative, skew, low


_UNIT_ROUNDOFF = 2.0 ** -53
_LEAD = 64


def _psd_pass(hs: Stacks, lo: np.ndarray, tol: Tolerance) -> bool:
    """Whether one Cholesky factorization per stack proves lambda_min(H) >= -tol.psd * lo
    for every matrix H of the Hermitian stacks hs (..., k, m, m).

    lo, of shape (...), is max(1, max|entry| (1 - _SLACK)) of each element:
    at most the caller's scale, so a certified pass is a pass there too.  The
    stacks are writable; each is shifted in place and restored exactly.  False
    means "not certified", never "not positive": the caller decides those
    spectrally.  With t = tol.psd * lo, a factorization of H + (t - r) I that
    succeeds proves the bound, where r = 8 (m + 2) m u (lo / (1 - _SLACK) + t)
    bounds the rounding of forming the shift and Cholesky's backward error
    (see README, "How exact checks are decided").  numpy raises for a whole
    stack when one member fails, so one failure, or a diagonal entry below
    -t, leaves the stack uncertified.  For 1 x 1 blocks that diagonal test
    is the whole decision, as in the spectral test.
    """
    if (lo > 2.0 ** 500).any():   # products could overflow: leave it to the spectrum
        return False
    for h in hs:
        m = h.shape[-1]
        diag = np.einsum("...ii->...i", h)   # a writable view
        if (diag.real < -tol.psd * lo[..., None, None]).any():   # lambda_min <= min H_ii
            return False
        if m == 1:   # the diagonal is the spectrum
            continue
        # (t - r) / lo: the shift per unit of scale, the same for every element
        shift = tol.psd - 8 * (m + 2) * m * _UNIT_ROUNDOFF * (1 / (1 - _SLACK) + tol.psd)
        if shift <= 0:
            return False
        saved = diag.copy()
        diag += (shift * lo)[..., None, None]
        try:
            factored = _factors(h)
        finally:
            diag[...] = saved
        if not factored:
            return False
    return True


def _factors(h: np.ndarray) -> bool:
    """Whether `np.linalg.cholesky` factors every matrix of the stack h (..., m, m).

    numpy's Cholesky of a large matrix runs on past a bad pivot, so the
    leading block, a principal submatrix, is factored first: it ends an
    attempt that fails there early and costs (64 / m)^3 of the whole.
    """
    m = h.shape[-1]
    try:
        for lead in (_LEAD, m) if m > 2 * _LEAD else (m,):
            np.linalg.cholesky(h[..., :lead, :lead])
    except np.linalg.LinAlgError:
        return False
    return True


def block_embed(a: AlgElement) -> np.ndarray:
    """Faithful block-diagonal matrix picture of a on the total Hilbert space."""
    n = a.shape.total_dim
    out = np.zeros(n * n, dtype=complex)
    out[_embed_index(a.shape)] = a._coords
    return out.reshape(n, n)


def _random_coords(s: AlgebraShape, rng: np.random.Generator, lead: tuple = ()) -> np.ndarray:
    """Coordinates (*lead, coord_dim) of standard complex Gaussian elements.

    Each element is one flat draw split in block order, real part then
    imaginary part per block, so it holds the numbers per-block draws give.
    """
    layout = s._layout
    z = rng.standard_normal(lead + (2 * s.coord_dim,))
    return z[..., layout.re] + 1j * z[..., layout.im]


def random_element(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """Independent standard complex Gaussian entries in every block."""
    return _adopt(s, _random_coords(s, rng))


def random_self_adjoint(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    m = random_element(s, rng)
    return 0.5 * (m + adjoint(m))


def random_positive(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    return _adopt(s, _gram(s, _random_coords(s, rng)))


def random_density(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """Random faithful-in-expectation density: positive with unit total trace."""
    return _adopt(s, _densities(s, _random_coords(s, rng)))


def _densities(s: AlgebraShape, x: np.ndarray) -> np.ndarray:
    """Coordinates of b* b / tr(b* b) for the elements b with coordinates x
    (..., coord_dim): the densities `random_density` makes of those draws."""
    p = _gram(s, x)
    return p * (1.0 / _trace_coords(s, p).real)[..., None]
