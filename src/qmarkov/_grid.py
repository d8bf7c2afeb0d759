"""Closed-form evaluation of the exact basis checks and of channel matrices.

An exact check compares two elements of a codomain algebra for every matrix
unit, or every ordered pair of matrix units, of a domain algebra.  The image
of a unit is a column of the channel matrix, and a product of two units is a
unit or zero (E_ij E_kl = delta_jk E_il), so every operand of such a check is
an index lookup into the stacked images, a conjugate transpose, or a batched
matrix product of them.  `first_failure` evaluates the whole grid of
comparisons in numpy and returns the first failing entry in canonical order.

Codomain blocks are grouped by size: the k blocks of size m of a batch of N
elements form one stack of shape (N, k, m, m), so an algebra of many equal
blocks costs one array operation, not one per block.

The index tables of `algebra` also build channel matrices: a tensor
product, the multiplication map and the Choi blocks are gathers or scatters
of matrix entries, and blockwise A X B is the Kronecker product `block_kron`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import algebra as alg
from .algebra import (
    AlgebraShape,
    AlgElement,
    Stacks,
    _dagger,
    _groups,
    _lower,
    _max_abs,
    _op_norm,
    _upper,
    adjoint_index,
    product_index,
)
from .tolerances import Tolerance

# codomain entries per operand in one chunk of the grid, and coordinates per
# element times trials in one batch of a sampled check
_CHUNK = 1 << 13


def images(s: AlgebraShape, matrix: np.ndarray) -> Stacks:
    """The columns of `matrix`, coordinates on s, as stacks per block size."""
    return [matrix[rows].T.reshape(matrix.shape[1], -1, m, m) for m, _, rows, *_ in _groups(s)]


def block_kron(s: AlgebraShape, left: Stacks, right: Stacks) -> np.ndarray:
    """Block-diagonal matrix of kron(left[x], right[x]) over the blocks x of s.

    Coordinates are row-major per block, so vec(A X B) = (A (x) B^T) vec(X):
    with left = A and right = B^T per block, this is the coordinate matrix
    of X |-> A X B applied blockwise.  left and right are stacks (k, m, m) per block size.
    """
    out = np.zeros((s.coord_dim, s.coord_dim), dtype=complex)
    for (m, ids, rows, *_), a, b in zip(_groups(s), left, right):
        at = rows.reshape(len(ids), m * m, 1)
        prod = a[:, :, None, :, None] * b[:, None, :, None, :]
        out[at, at.swapaxes(1, 2)] = prod.reshape(len(ids), m * m, m * m)
    return out


def choi_blocks(f) -> list[tuple[np.ndarray, Stacks]]:
    """The Choi blocks C_yx of a channel f, grouped by block size.

    The Choi matrix of domain block y is block-diagonal over the codomain
    blocks x, with blocks C_yx[(i, a), (j, b)] = F(E_ij)_x[a, b] of size n m.
    One entry per domain block size n: the domain blocks y of that size and,
    per codomain block size m, their blocks as a stack (k_n, k_m, n m, n m),
    read from the channel matrix by a slice (a gather for interleaved blocks)
    and a transpose: a copy, or a read-only view where the transpose allows.
    """
    out = []
    for n, ys, cols, col_span, _ in _groups(f.domain):
        stacks = []
        for m, xs, rows, row_span, _ in _groups(f.codomain):
            c = f.matrix[rows if row_span is None else row_span][
                :, cols if col_span is None else col_span].reshape(len(xs), m, m, len(ys), n, n)
            stacks.append(c.transpose(3, 0, 4, 1, 5, 2).reshape(len(ys), len(xs), n * m, n * m))
        out.append((ys, stacks))
    return out


def products(x: np.ndarray, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """x[r] y[c] (x[r]* y[c] with adjoint) for every r and c, r-major.

    One matrix product per block: stacking the rows of every x[r] against
    the columns of every y[c] turns the grid of block products into a
    single (R m) x (C m) product.
    """
    r, k, m, _ = x.shape
    c = len(y)
    left = (_dagger(x) if adjoint else x).transpose(1, 0, 2, 3).reshape(k, r * m, m)
    right = y.transpose(1, 2, 0, 3).reshape(k, m, c * m)
    out = (left @ right).reshape(k, r, m, c, m)
    return out.transpose(1, 3, 0, 2, 4).reshape(r * c, k, m, m)


def _with_support(x: np.ndarray, p: np.ndarray, side: str) -> np.ndarray:
    """x[n] p (side "right") or p x[n] (side "left") for every n, one product per block."""
    n, k, m, _ = x.shape
    if side == "right":
        out = x.transpose(1, 0, 2, 3).reshape(k, n * m, m) @ p
        return out.reshape(k, n, m, m).transpose(1, 0, 2, 3)
    out = p @ x.transpose(1, 2, 0, 3).reshape(k, m, n * m)
    return out.reshape(k, m, n, m).transpose(2, 0, 1, 3)


def multiplicativity(f, adjoint: bool = False) -> Callable[[int, int], tuple[Stacks, Stacks]]:
    """Operands of the pair grid F(E_a E_b) = F(E_a) F(E_b) of a channel f,
    or F(E_a* E_b) = F(E_a)* F(E_b) with adjoint."""
    d = f.domain.coord_dim
    img = images(f.codomain, np.pad(f.matrix, ((0, 0), (0, 1))))   # entry d is 0
    prod = product_index(f.domain)
    left = adjoint_index(f.domain) if adjoint else np.arange(d)

    def operands(r0, r1):
        lhs = [x[prod[left[r0:r1]].ravel()] for x in img]
        return lhs, [products(x[r0:r1], x[:d], adjoint) for x in img]

    return operands


def times_unit(s: AlgebraShape, x: np.ndarray, b: np.ndarray, left: bool = False) -> np.ndarray:
    """Coordinates of X E_b (or E_b X when left) for the columns X of x.

    x holds coordinates on s, one column per entry of b.  Each term x_a E_a
    lands on the single unit E_a E_b, so the product is a scatter of x.
    """
    prod = product_index(s)
    target = prod[b, :].T if left else prod[:, b]
    out = np.zeros((s.coord_dim + 1, len(b)), dtype=complex)
    out[target, np.arange(len(b))] = x
    return out[:-1]


def unit(s: AlgebraShape, index: int) -> AlgElement:
    """The matrix unit with the given canonical index."""
    return alg._adopt(s, np.eye(1, s.coord_dim, index, dtype=complex)[0])


def first_failure(
    codomain: AlgebraShape,
    rows: int,
    cols: int,
    operands: Callable[[int, int], tuple[Stacks, Stacks]],
    tol: Tolerance,
    support: AlgElement | None = None,
    side: str = "right",
) -> int | None:
    """Row-major index of the first failing entry of a rows x cols grid.

    operands(r0, r1) returns (lhs, rhs): the stacked codomain elements of
    every entry in rows r0 to r1 - 1, row-major.  With no support an entry
    passes when max|lhs - rhs| <= tol.eq * max(1, ||lhs||, ||rhs||), as
    `elem_equal` decides; with a support projection P it passes when the
    operator norm of (lhs - rhs) P (side "right") or P (lhs - rhs) (side
    "left") is within the same bound, as the a.e. checks decide.  ||.|| is
    the operator norm: the largest blockwise one.

    max-abs entry <= operator norm <= Frobenius norm, so the cheap bounds
    settle most entries.  An entry whose deviation is at most tol.eq passes
    whatever its scale.  Otherwise it passes under the upper bound on its
    deviation and the lower bound on its scale, or fails under the lower
    bound on its deviation and the upper bound on its scale.  Only the rest
    pay for exact operator norms.  The grid runs in chunks of whole rows and
    stops at the first chunk that holds a failure.
    """
    proj = None if support is None else alg._element_stacks(support)
    step = max(1, _CHUNK // (cols * codomain.coord_dim))
    for r0 in range(0, rows, step):
        lhs, rhs = operands(r0, min(r0 + step, rows))
        diff = [a - b for a, b in zip(lhs, rhs)]
        if proj is not None:
            diff = [_with_support(x, p, side) for x, p in zip(diff, proj)]
        dev_hi = _upper(diff)
        live = np.flatnonzero(dev_hi > tol.eq)
        if not live.size:
            continue
        lhs, rhs, diff = ([x[live] for x in xs] for xs in (lhs, rhs, diff))
        dev_lo, dev_hi = _lower(diff), dev_hi[live]
        fail = dev_lo > tol.eq * np.maximum(1.0, np.maximum(_upper(lhs), _upper(rhs)))
        open_ = ~fail & (dev_hi > tol.eq * np.maximum(1.0, np.maximum(_lower(lhs), _lower(rhs))))
        if open_.any():
            def pick(xs):
                return [x[open_] for x in xs]
            dev = _max_abs(pick(diff)) if proj is None else _op_norm(pick(diff))
            scale = np.maximum(_op_norm(pick(lhs)), _op_norm(pick(rhs)))
            fail[open_] = dev > tol.eq * np.maximum(1.0, scale)
        if fail.any():
            return r0 * cols + int(live[fail.argmax()])
    return None
