"""Finite direct sums of matrix algebras and their structure maps.

An algebra is described by its block dimensions (n_1, ..., n_k); an element
is one complex n_i x n_i matrix per block.  The canonical coordinate basis
lists the matrix units block by block, row-major inside each block, which
fixes the vectorization used by every channel matrix in the library.

Norms, comparisons and spectra read an element as stacks: the k blocks of
size m form one array (k, m, m), one per block size, gathered from the
coordinate vector.  An algebra of many equal blocks then costs one array
operation, not one per block, and the finiteness of an element is checked
once, when it is stacked.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

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


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n_1, ..., n_k) of a direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if len(blocks) < 1 or any(n < 1 for n in blocks):
            raise ValueError(f"invalid block dimensions {self.blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def coord_dim(self) -> int:
        return sum(n * n for n in self.blocks)

    @property
    def total_dim(self) -> int:
        """Dimension of the Hilbert space carrying the block-diagonal picture."""
        return sum(self.blocks)

    @property
    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.blocks)

    def offsets(self) -> list[int]:
        """Coordinate offset of each block in the canonical basis."""
        offs, acc = [], 0
        for n in self.blocks:
            offs.append(acc)
            acc += n * n
        return offs

    def __repr__(self):
        return f"AlgebraShape({list(self.blocks)})"


@dataclass(frozen=True)
class AlgElement:
    """Block-diagonal element of a direct sum of matrix algebras."""

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.shape.blocks):
            raise ShapeMismatch("block count does not match shape")
        mats = []
        for n, b in zip(self.shape.blocks, self.blocks):
            m = np.asarray(b, dtype=complex)
            if m.shape != (n, n):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({n}, {n})")
            mats.append(m)
        object.__setattr__(self, "blocks", tuple(mats))

    def block(self, x: int) -> np.ndarray:
        return self.blocks[x]

    def __add__(self, other: "AlgElement") -> "AlgElement":
        _check_same_shape(self, other)
        return AlgElement(self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        _check_same_shape(self, other)
        return AlgElement(self.shape, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, scalar: complex) -> "AlgElement":
        return AlgElement(self.shape, tuple(scalar * b for b in self.blocks))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgElement":
        return self * (-1.0)


def _check_same_shape(a: AlgElement, b: AlgElement):
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")


def zero(s: AlgebraShape) -> AlgElement:
    return AlgElement(s, tuple(np.zeros((n, n), dtype=complex) for n in s.blocks))


def unit(s: AlgebraShape) -> AlgElement:
    """Multiplicative identity (the image of the unit inclusion)."""
    return unvec(s, _unit_coords(s).copy())


def mul(a: AlgElement, b: AlgElement) -> AlgElement:
    """Blockwise matrix product."""
    _check_same_shape(a, b)
    return AlgElement(a.shape, tuple(x @ y for x, y in zip(a.blocks, b.blocks)))


def adjoint(a: AlgElement) -> AlgElement:
    """Blockwise conjugate transpose (the involution)."""
    return AlgElement(a.shape, tuple(b.conj().T for b in a.blocks))


def trace(a: AlgElement) -> complex:
    """Unweighted trace, summed over blocks."""
    return complex(sum(np.trace(b) for b in a.blocks))


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
    """Coordinates of a in the canonical matrix-unit basis (row-major per block)."""
    return np.concatenate(a.blocks, axis=None)


def unvec(s: AlgebraShape, v: np.ndarray) -> AlgElement:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != s.coord_dim:
        raise ShapeMismatch(f"coordinate vector of length {v.size}, expected {s.coord_dim}")
    mats, pos = [], 0
    for n in s.blocks:
        mats.append(v[pos : pos + n * n].reshape(n, n))
        pos += n * n
    return AlgElement(s, tuple(mats))


def basis_index(s: AlgebraShape, block: int, i: int, j: int) -> int:
    """Coordinate index of the matrix unit E_ij in the given block."""
    return s.offsets()[block] + i * s.blocks[block] + j


def _basis_labels(s: AlgebraShape) -> Iterator[tuple[int, int, int]]:
    for x, n in enumerate(s.blocks):
        for i in range(n):
            for j in range(n):
                yield x, i, j


def matrix_units(s: AlgebraShape) -> list[AlgElement]:
    """All matrix units of the algebra in canonical coordinate order."""
    out = []
    for x, i, j in _basis_labels(s):
        e = zero(s)
        e.blocks[x][i, j] = 1.0
        out.append(e)
    return out


def tensor_shape(s1: AlgebraShape, s2: AlgebraShape) -> AlgebraShape:
    """Tensor product shape, block pairs ordered left-factor major."""
    return AlgebraShape(tuple(m * n for m in s1.blocks for n in s2.blocks))


def tensor_elem(a: AlgElement, b: AlgElement) -> AlgElement:
    """Kronecker product per block pair, in tensor_shape order."""
    mats = [np.kron(x, y) for x in a.blocks for y in b.blocks]
    return AlgElement(tensor_shape(a.shape, b.shape), tuple(mats))


def is_self_adjoint_elem(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    xs = _element_stacks(a)
    dev = _max_abs([x - _dagger(x) for x in xs])
    return bool(dev <= tol.herm or dev <= tol.herm * tol.scale(_op_norm(xs)))


def is_positive_elem(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a is positive (equals some b*b), decided spectrally per block.

    Raises NotSelfAdjoint when a is not self-adjoint within tolerance.
    """
    xs = _element_stacks(a)
    scale = tol.scale(_op_norm(xs))
    if _max_abs([x - _dagger(x) for x in xs]) > tol.herm * scale:
        raise NotSelfAdjoint("element is not self-adjoint within tolerance")
    return bool(_min_eig(xs) >= -tol.psd * scale)


def min_eig(a: AlgElement) -> float:
    """Smallest eigenvalue across blocks of the self-adjoint part of a."""
    return float(_min_eig(_element_stacks(a)))


# ---------------------------------------------------------------------------
# Stacked layout: the blocks of each size as one array
# ---------------------------------------------------------------------------

Stacks = list  # one array (..., k, m, m) per block size of a shape

_SLACK = 1e-12     # relative margin on the cheap norm bounds, far above rounding


@lru_cache(maxsize=64)
def _groups(s: AlgebraShape) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """(m, the blocks of size m, their coordinate rows) for each block size of s."""
    offs = s.offsets()
    out = []
    for m in dict.fromkeys(s.blocks):
        ids = np.flatnonzero(np.array(s.blocks) == m)
        out.append((m, ids, np.concatenate([offs[x] + np.arange(m * m) for x in ids])))
    return tuple(out)


@lru_cache(maxsize=64)
def _block_order(s: AlgebraShape) -> np.ndarray:
    """Where each block sits when the stacks of s are concatenated."""
    order = np.argsort(np.concatenate([ids for _, ids, _ in _groups(s)]))
    order.flags.writeable = False
    return order


@lru_cache(maxsize=64)
def _unit_coords(s: AlgebraShape) -> np.ndarray:
    """vec(1); shared by every caller, so read-only."""
    v = np.zeros(s.coord_dim, dtype=complex)
    for m, _, rows in _groups(s):
        v[rows.reshape(-1, m * m)[:, :: m + 1]] = 1.0
    v.flags.writeable = False
    return v


def _finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("matrix contains NaN or Inf entries")


def _stacks(s: AlgebraShape, v: np.ndarray) -> Stacks:
    """Coordinates (..., coord_dim) on s as stacks (..., k, m, m)."""
    return [v[..., rows].reshape(v.shape[:-1] + (len(ids), m, m)) for m, ids, rows in _groups(s)]


def _element_stacks(a: AlgElement) -> Stacks:
    """a as stacks (k, m, m); raises ValueError on NaN or Inf entries."""
    v = vec(a)
    _finite(v)
    return _stacks(a.shape, v)


def _unstack(s: AlgebraShape, xs) -> tuple:
    """Per-block arrays, in block order, from arrays (k, ...) per block size."""
    items = [b for x in xs for b in x]
    return tuple(items[i] for i in _block_order(s))


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
    frob = [(x.real ** 2 + x.imag ** 2).sum(axis=(-2, -1)).max(axis=-1) for x in xs]
    return np.sqrt(np.maximum.reduce(frob)) * (1 + _SLACK)


def _op_norm(xs: Stacks) -> np.ndarray:
    """Operator norm of each element, computed as `linalg.op_norm` does per block."""
    out = []
    for x in xs:
        if x.shape[-1] == 1:
            out.append(np.abs(x[..., 0, 0]).max(axis=-1))
        else:
            top = np.linalg.eigvalsh(_dagger(x) @ x)[..., -1]
            out.append(np.sqrt(np.maximum(top, 0.0)).max(axis=-1))
    return np.maximum.reduce(out)


def _min_eig(xs: Stacks) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each element."""
    lows = []
    for x in xs:
        h = 0.5 * (x + _dagger(x))
        w = h.real[..., 0] if x.shape[-1] == 1 else np.linalg.eigvalsh(h)
        lows.append(w[..., 0].min(axis=-1))
    return np.minimum.reduce(lows)


def block_embed(a: AlgElement) -> np.ndarray:
    """Faithful block-diagonal matrix picture of a on the total Hilbert space."""
    n = a.shape.total_dim
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for b, k in zip(a.blocks, a.shape.blocks):
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out


def random_element(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """Independent standard complex Gaussian entries in every block."""
    mats = tuple(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in s.blocks
    )
    return AlgElement(s, mats)


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
