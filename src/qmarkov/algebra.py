"""Finite direct sums of matrix algebras and their structure maps.

An algebra is described by its block dimensions (n_1, ..., n_k).  The
canonical coordinate basis lists the matrix units block by block, row-major
inside each block, which fixes the vectorization used by every channel
matrix in the library.  An element is its shape and one read-only vector of
coordinates in that basis; its blocks are views into the vector.

The adjoint, products of units and tensor products of units are index
tables on coordinates.  Products, norms, comparisons and spectra read an
element as stacks: the k blocks of size m form one array (k, m, m), one per
block size, with any leading batch dimensions: a view of the coordinates
when the blocks of that size are adjacent, a gather otherwise.  A batch of
elements of many equal blocks costs one array operation, not one per block
or element, and the finiteness of an element is checked once, when stacked.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

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
    "normalized_trace",
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
    """Block dimensions (n_1, ..., n_k) of a direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if len(blocks) < 1 or any(n < 1 for n in blocks):
            raise ValueError(f"invalid block dimensions {self.blocks}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_hash", hash(blocks))

    # the shape is frozen, so its hash and derived sizes are computed once and kept
    # in the instance dict; equality (identity first, as every cached index table
    # looks a shape up), hashing and repr read `blocks` only
    def __eq__(self, other):
        if self is other:
            return True
        return self.blocks == other.blocks if isinstance(other, AlgebraShape) else NotImplemented

    def __hash__(self):
        return self._hash

    @cached_property
    def coord_dim(self) -> int:
        return sum(n * n for n in self.blocks)

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


def _adopt(s: AlgebraShape, v: np.ndarray, a: AlgElement | None = None) -> AlgElement:
    """The element (a, or a new one) with coordinates v, taken without a copy:
    a complex vector, or a view of the stacks given to `_join`, that no caller writes to."""
    a = object.__new__(AlgElement) if a is None else a
    object.__setattr__(a, "shape", s)
    object.__setattr__(a, "_coords", _read_only(v))
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
    per_block = np.zeros(len(a.shape.blocks) + 1, dtype=complex)
    for m, ids, _, _, diag in _groups(a.shape):   # the diagonal, summed as np.trace sums it
        per_block[ids + 1] = a._coords[diag].reshape(-1, m).sum(-1)
    # a running sum from 0, so the blocks add up in order, as a per-block sum() adds them
    return complex(np.cumsum(per_block)[-1])


def normalized_trace(a: AlgElement) -> complex:
    """Trace divided by the total Hilbert-space dimension; a state on any shape."""
    return trace(a) / a.shape.total_dim


def norm(a: AlgElement) -> float:
    """Operator norm: the maximum of the blockwise operator norms."""
    return float(_op_norm(_element_stacks(a)))


def elem_equal(a: AlgElement, b: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    _check_same_shape(a, b)
    return _coords_equal(a.shape, vec(a), vec(b), tol)


def _coords_equal(s: AlgebraShape, u: np.ndarray, v: np.ndarray, tol: Tolerance) -> bool:
    """elem_equal on coordinate vectors: max|u - v| <= tol.eq * max(1, ||u||, ||v||)."""
    _finite(u)
    _finite(v)
    dev = np.abs(u - v).max()
    # the scale is at least 1, so a deviation within tol.eq needs no norm
    return bool(dev <= tol.eq or dev <= tol.eq * tol.scale(
        max(_op_norm(_stacks(s, u)), _op_norm(_stacks(s, v)))))


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
    """Tensor product shape, block pairs ordered left-factor major."""
    return AlgebraShape(tuple(m * n for m in s1.blocks for n in s2.blocks))


def tensor_elem(a: AlgElement, b: AlgElement) -> AlgElement:
    """Kronecker product per block pair, in tensor_shape order."""
    left, right = tensor_index(a.shape, b.shape)
    return _adopt(tensor_shape(a.shape, b.shape), a._coords[left] * b._coords[right])


def is_self_adjoint_elem(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    xs = _element_stacks(a)
    dev = _max_abs([x - _dagger(x) for x in xs])
    return bool(dev <= tol.herm or dev <= tol.herm * tol.scale(_op_norm(xs)))


def is_positive_elem(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a is positive (equals some b*b), per block against max(1, ||a||).

    A pass is proved by `_psd_pass` where it can be; the rest is decided
    spectrally.  Raises NotSelfAdjoint when a is not self-adjoint within tolerance.
    """
    xs = _element_stacks(a)
    skew, hs = _max_abs([x - _dagger(x) for x in xs]), _hermitian(xs)
    floor = np.maximum(1.0, _lower(xs))
    if skew <= tol.herm * floor and _psd_pass(hs, floor, tol):
        return True
    scale = tol.scale(_op_norm(xs))
    if skew > tol.herm * scale:
        raise NotSelfAdjoint("element is not self-adjoint within tolerance")
    return bool(_lowest(hs) >= -tol.psd * scale)


def min_eig(a: AlgElement) -> float:
    """Smallest eigenvalue across blocks of the self-adjoint part of a."""
    return float(_lowest(_hermitian(_element_stacks(a))))


# ---------------------------------------------------------------------------
# Coordinate layout: index tables, shared by every caller, so read-only
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _unit_labels(s: AlgebraShape) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block offset, block size, row and column of every unit, canonical order."""
    sizes = np.array(s.blocks)
    n = np.repeat(sizes, sizes * sizes)
    off = np.repeat(np.array(s.offsets()), sizes * sizes)
    row, col = np.divmod(np.arange(s.coord_dim) - off, n)
    return off, n, row, col


@lru_cache(maxsize=64)
def adjoint_index(s: AlgebraShape) -> np.ndarray:
    """adj[a] is the index of E_a*."""
    off, n, row, col = _unit_labels(s)
    return _read_only(off + col * n + row)


@lru_cache(maxsize=64)
def product_index(s: AlgebraShape) -> np.ndarray:
    """prod[a, b] is the index of E_a E_b, or coord_dim when the product is 0."""
    off, n, row, col = _unit_labels(s)
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
    _, _, row, col = _unit_labels(t)
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
    _, _, row, col = _unit_labels(s)
    start = np.repeat(np.cumsum((0,) + s.blocks[:-1]), np.array(s.blocks) ** 2)
    return _read_only((start + row) * s.total_dim + start + col)


@lru_cache(maxsize=64)
def _unit_coords(s: AlgebraShape) -> np.ndarray:
    """vec(1)."""
    _, _, row, col = _unit_labels(s)
    return _read_only((row == col).astype(complex))


# ---------------------------------------------------------------------------
# Stacked layout: the blocks of each size as one array
# ---------------------------------------------------------------------------

Stacks = list  # one array (..., k, m, m) per block size of a shape

_SLACK = 1e-12     # relative margin on the cheap norm bounds, far above rounding


@lru_cache(maxsize=64)
def _groups(s: AlgebraShape) -> tuple[tuple, ...]:
    """(m, the blocks of size m, their coordinate rows, those rows as a slice or None when they
    are not one range, the rows of their diagonal entries) for each block size of s, in order."""
    sizes, (_, n, row, col) = np.array(s.blocks), _unit_labels(s)
    out = []
    for m in dict.fromkeys(s.blocks):
        rows = np.flatnonzero(n == m)
        span = slice(int(rows[0]), int(rows[-1]) + 1) if np.all(np.diff(rows) == 1) else None
        out.append((m, np.flatnonzero(sizes == m), rows, span, rows[row[rows] == col[rows]]))
    return tuple(out)


def _finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("matrix contains NaN or Inf entries")


def _stacks(s: AlgebraShape, v: np.ndarray) -> Stacks:
    """Coordinates (..., coord_dim) on s as stacks (..., k, m, m), views of v where they can be."""
    return [v[..., rows if span is None else span].reshape(v.shape[:-1] + (len(ids), m, m))
            for m, ids, rows, span, _ in _groups(s)]


def _element_stacks(a: AlgElement) -> Stacks:
    """a as stacks (k, m, m); raises ValueError on NaN or Inf entries."""
    v = vec(a)
    _finite(v)
    return _stacks(a.shape, v)


def _join(s: AlgebraShape, xs: Stacks) -> np.ndarray:
    """Coordinates (..., coord_dim) on s from complex stacks (..., k, m, m);
    inverts `_stacks`.  The result may be a view of xs[0]."""
    lead, groups = xs[0].shape[:-3], _groups(s)
    flat = [x.reshape(lead + (-1,)) for x in xs]
    if all(span is not None for _, _, _, span, _ in groups):   # the spans follow in order
        return flat[0] if len(flat) == 1 else np.concatenate(flat, axis=-1)
    v = np.empty(lead + (s.coord_dim,), dtype=complex)
    for (_, _, rows, _, _), x in zip(groups, flat):
        v[..., rows] = x
    return v


def _mul_coords(s: AlgebraShape, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coordinates of the blockwise products of elements with coordinates u and v."""
    return _join(s, [x @ y for x, y in zip(_stacks(s, u), _stacks(s, v))])


def _adjoint_coords(s: AlgebraShape, u: np.ndarray) -> np.ndarray:
    """Coordinates of the adjoints of elements with coordinates u."""
    return u[..., adjoint_index(s)].conj()


def _dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


# The norm of an element is its largest blockwise operator norm.  It lies
# between the largest absolute entry and the largest blockwise Frobenius
# norm; both bounds are widened by _SLACK to cover rounding.  Each function
# maps stacks (..., k, m, m) to one value per element (...).

def _max_abs(xs: Stacks) -> np.ndarray:
    """Largest absolute entry of each element, as `elem_equal` measures it."""
    return np.maximum.reduce([np.abs(x).max(axis=(-3, -2, -1)) for x in xs])


def _lower(xs: Stacks) -> np.ndarray:
    return _max_abs(xs) * (1 - _SLACK)


def _upper(xs: Stacks) -> np.ndarray:
    return np.maximum.reduce([_frobenius(x) for x in xs]) * (1 + _SLACK)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Largest blockwise Frobenius norm of each element of one stack."""
    if np.abs(x).max(initial=0.0) > 2.0 ** 500:   # the squares may overflow: scale, as _op_norm
        e = np.frexp(np.abs(x).max(axis=(-3, -2, -1)))[1]
        return np.ldexp(_frobenius(x * np.ldexp(1.0, -e)[..., None, None, None]), e)
    return np.sqrt((x.real ** 2 + x.imag ** 2).sum(axis=(-2, -1)).max(axis=-1))


def _op_norm(xs: Stacks) -> np.ndarray:
    """Operator norm of each element: the largest singular value of its blocks.

    The blocks may be rectangular (`linalg.op_norm` passes one p x q matrix).
    """
    out = []
    for x in xs:
        if x.shape[-2:] == (1, 1):
            out.append(np.abs(x[..., 0, 0]).max(axis=-1))
        elif np.abs(x).max(initial=0.0) > 2.0 ** 500:   # x* x may overflow
            # scale each element by a power of two, exactly, and take the norm again
            e = np.frexp(np.abs(x).max(axis=(-3, -2, -1)))[1]
            out.append(np.ldexp(_op_norm([x * np.ldexp(1.0, -e)[..., None, None, None]]), e))
        else:
            top = np.linalg.eigvalsh(_dagger(x) @ x)[..., -1]
            out.append(np.sqrt(np.maximum(top, 0.0)).max(axis=-1))
    return np.maximum.reduce(out)


def _hermitian(xs: Stacks) -> Stacks:
    """The Hermitian parts (x + x*) / 2, exactly Hermitian in floating point."""
    return [0.5 * (x + _dagger(x)) for x in xs]


def _lowest(hs: Stacks) -> np.ndarray:
    """Smallest eigenvalue of each element, from the stacks of its Hermitian part."""
    lows = []
    for h in hs:
        w = h.real[..., 0] if h.shape[-1] == 1 else np.linalg.eigvalsh(h)
        lows.append(w[..., 0].min(axis=-1))
    return np.minimum.reduce(lows)


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
    off, n, _, _ = _unit_labels(s)
    re = np.arange(s.coord_dim) + off
    z = rng.standard_normal(lead + (2 * s.coord_dim,))
    return z[..., re] + 1j * z[..., re + n * n]


def random_element(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """Independent standard complex Gaussian entries in every block."""
    return _adopt(s, _random_coords(s, rng))


def random_self_adjoint(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    m = random_element(s, rng)
    return 0.5 * (m + adjoint(m))


def random_positive(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    m = random_element(s, rng)
    return mul(adjoint(m), m)


def random_density(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """Random faithful-in-expectation density: positive with unit total trace."""
    p = random_positive(s, rng)
    return p * (1.0 / trace(p).real)
