"""Closed-form evaluation of the exact basis checks and of channel matrices.

An exact check compares two elements of a codomain algebra for every matrix
unit, or every ordered pair of matrix units, of a domain algebra.  The image
of a unit is a column of the channel matrix, and a product of two units is a
unit or zero (E_ij E_kl = delta_jk E_il), so every operand of such a check is
an index lookup into the stacked images, a conjugate transpose, or a batched
matrix product of them.  `first_failure` evaluates the whole grid of
comparisons in numpy and returns the first failing entry in canonical order.

The pair grids of multiplicativity, F(E_a E_b) = F(E_a) F(E_b), are O(n^7)
on M_n.  `gram_bound` bounds all their entries at once from one
Kadison-Schwarz Gram sum, in O(n^5), and `multiplicative_failure` runs a
grid only when that bound does not prove every entry passes.

Codomain blocks are grouped by size: the k blocks of size m of a batch of N
elements form one stack of shape (N, k, m, m), so an algebra of many equal
blocks costs one array operation, not one per block.

The index tables of `algebra` also build channel matrices: a tensor
product, the multiplication map and the Choi blocks are gathers or scatters
of matrix entries, and blockwise A X B is the Kronecker product `block_kron`.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from . import algebra as alg
from .algebra import (
    AlgebraShape,
    AlgElement,
    Stacks,
    _UNIT_ROUNDOFF,
    _dagger,
    _factors,
    _groups,
    _lower,
    _max_abs,
    _op_norm,
    _stacks,
    _unit_coords,
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


def choi_parts(f) -> list[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
    """The Choi blocks of a channel f as pairs (H, C - C*), grouped as `choi_blocks`.

    H = (C + C*) / 2 is the Hermitian part; both are fresh writable stacks
    (k_n, k_m, n m, n m).  C is read once, H is formed in place in that
    copy, and C* is one contiguous conjugate transpose that both sums read
    in memory order, so `is_cp` and the Gram certificate share one pass.
    """
    out = []
    for ys, stacks in choi_blocks(f):
        parts = []
        for c in stacks:
            c = c if c.flags.writeable else c.copy()   # never write the channel matrix
            c_star = np.conj(c.swapaxes(-1, -2), order="C")
            diff = np.subtract(c, c_star)
            parts.append((np.multiply(np.add(c, c_star, out=c), 0.5, out=c), diff))
        out.append((ys, parts))
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


def multiplicative_failure(f, tol: Tolerance, adjoint: bool = False,
                           support: AlgElement | None = None, side: str = "right") -> int | None:
    """Row-major index of the first failing pair of F(E_a E_b) = F(E_a) F(E_b),
    or of F(E_a* E_b) = F(E_a)* F(E_b) with adjoint, decided as `first_failure`
    decides it (with the support, if given, on the given side); None when
    every pair passes.

    A pass that `gram_bound` proves needs no grid.  Anything else runs the
    grid.  When entries exceed 2^500, where products could overflow, the
    grid compares operands scaled by a power of two 2^-e, the products by
    2^-2e, with the floor 1 of the scale scaled alike.
    """
    if gram_bound(f, adjoint, support, side, tol.eq) <= tol.eq:
        return None
    d = f.domain.coord_dim
    padded = np.zeros((f.codomain.coord_dim, d + 1), dtype=complex)   # entry d is 0
    padded[:, :d] = f.matrix
    img = images(f.codomain, padded)
    top = np.vdot(f.matrix, f.matrix).real   # entries above 2^500 only when this is above 2^1000
    top = _max_abs(img).max() if not top <= 2.0 ** 1000 else 0.0
    e = int(np.frexp(top)[1]) - 500 if top > 2.0 ** 500 else 0
    c = np.ldexp(1.0, -e)
    img = [x * c for x in img] if e else img
    prod = product_index(f.domain)
    left = adjoint_index(f.domain) if adjoint else np.arange(d)

    def operands(r0, r1):
        lhs = [x[prod[left[r0:r1]].ravel()] for x in img]
        return [x * c for x in lhs] if e else lhs, [products(x[r0:r1], x[:d], adjoint) for x in img]

    return first_failure(f.codomain, d, d, operands, tol, support, side, c * c)


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
    unit: float = 1.0,
) -> int | None:
    """Row-major index of the first failing entry of a rows x cols grid.

    operands(r0, r1) returns (lhs, rhs): the stacked codomain elements of
    every entry in rows r0 to r1 - 1, row-major.  With no support an entry
    passes when max|lhs - rhs| <= tol.eq * max(unit, ||lhs||, ||rhs||), as
    `elem_equal` decides; with a support projection P it passes when the
    operator norm of (lhs - rhs) P (side "right") or P (lhs - rhs) (side
    "left") is within the same bound, as the a.e. checks decide.  ||.|| is
    the operator norm: the largest blockwise one.  The floor unit is 1 but
    for operands scaled by a power of two, where it is scaled alike.

    max-abs entry <= operator norm <= Frobenius norm, so the cheap bounds
    settle most entries.  An entry whose deviation is at most tol.eq * unit passes
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
        live = np.flatnonzero(dev_hi > tol.eq * unit)
        if not live.size:
            continue
        lhs, rhs, diff = ([x[live] for x in xs] for xs in (lhs, rhs, diff))
        dev_lo, dev_hi = _lower(diff), dev_hi[live]
        fail = dev_lo > tol.eq * np.maximum(unit, np.maximum(_upper(lhs), _upper(rhs)))
        open_ = ~fail & (dev_hi > tol.eq * np.maximum(unit, np.maximum(_lower(lhs), _lower(rhs))))
        if open_.any():
            def pick(xs):
                return [x[open_] for x in xs]
            dev = _max_abs(pick(diff)) if proj is None else _op_norm(pick(diff))
            scale = np.maximum(_op_norm(pick(lhs)), _op_norm(pick(rhs)))
            fail[open_] = dev > tol.eq * np.maximum(unit, scale)
        if fail.any():
            return r0 * cols + int(live[fail.argmax()])
    return None


# ---------------------------------------------------------------------------
# The Gram certificate: a bound on every entry of a multiplicativity grid
# ---------------------------------------------------------------------------

def _gamma(n: int) -> float:
    """gamma_{2(n + 3)}: a bound on the relative rounding of a complex sum of n
    products, and on the backward error of a complex Cholesky factorization of
    size n (Higham, Thm 10.3, widened for complex arithmetic)."""
    g = 2 * (n + 3) * _UNIT_ROUNDOFF
    return g / (1 - g)


@lru_cache(maxsize=64)
def _gram_weights(s: AlgebraShape) -> tuple[np.ndarray, tuple[float, ...]]:
    """(w, (sum n_y^2, sum n_y, max n_y, (sum n_y^3)^1/2, d^1/2)) for the domain
    blocks y of s.  w is (d, 2): n_y on the diagonal units of block y, so
    F w[:, 0] = sum_y n_y F(1_y), and vec(1)."""
    one = _unit_coords(s)
    n = np.repeat(np.array(s.blocks), np.array(s.blocks) ** 2)
    w = np.stack([n * one, one], axis=1)   # complex, as F is: no conversion in the product
    w.flags.writeable = False
    sums = (sum(n * n for n in s.blocks), sum(s.blocks), max(s.blocks),
            sum(n ** 3 for n in s.blocks) ** 0.5, s.coord_dim ** 0.5)
    return w, sums


def _frob2(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix of a stack (k, p, q); a scalar when k is 1."""
    if len(x) == 1:
        return np.vdot(x, x).real
    v = np.ascontiguousarray(x).view(float)
    return np.einsum("...ij,...ij->...", v, v)


def gram_bound(f, adjoint: bool, support: AlgElement | None = None, side: str = "right",
               cap: float = np.inf) -> float:
    """An upper bound on the deviation of every entry of the multiplicativity
    grid of f, as `first_failure` computes and measures it, or inf.

    The entry (a, b) is F(E_a* E_b) - F(E_a)* F(E_b) with adjoint and
    F(E_a E_b) - F(E_a) F(E_b) without; a support P multiplies it on the
    given side.  Per codomain block x the bound is

        (||T_x|| ||P_x* T_x P_x||)^1/2 + error terms,
        T = sum_y n_y F(1_y) - sum_a F(E_a)* F(E_a),

    the Kadison-Schwarz Gram bound of a CP map G near F, with P = 1 when
    there is no support, and P T P* on the left.  README "How exact checks
    are decided" derives it and each error term.  With a support, T_x and
    P_x are taken per block; the error terms are bounds over all blocks.
    The result is inf ("not certified") as soon as a cheap lower bound on it
    exceeds cap, when the entries are too large for it to be small (above
    2^250, or u sum|F_ij|^2 > cap), or when a Choi block of F is not proved
    positive up to a tiny shift.
    """
    return _gram_bound(f, adjoint, support, side, cap)[0]


def _gram_bound(f, adjoint: bool, support: AlgElement | None, side: str,
                cap: float) -> tuple[float, dict[str, float]]:
    """`gram_bound` and the error terms of the bound it returns, by name."""
    u, d, mat, cod = _UNIT_ROUNDOFF, f.domain.coord_dim, f.matrix, f.codomain
    w, (sum_n2, sum_n, n_max, norm_w, root_d) = _gram_weights(f.domain)
    # |F_ij|^2 summed >= sum_a ||F(E_a)_x||_F^2 >= ||F(E_a)_x||_F^2 for every a and x;
    # the error terms hold u times it, and below 2^500 nothing that follows overflows
    sum_f2 = float(np.vdot(mat, mat).real)
    if not sum_f2 <= min(2.0 ** 500, cap / u):
        return np.inf, {}
    nu = mat @ w                                        # sum_y n_y F(1_y) and F(1)
    if support is None:   # the bound is at least max_x ||T_x||, and |tr T_x| <= m ||T_x||
        if abs((_unit_coords(cod) @ nu[:, 0]).real - sum_f2) > cod.total_dim * cap:
            return np.inf, {}
    elif np.abs(nu[:, 1]).max() > 1 + cap:              # ||F(1)|| - 1 > cap
        return np.inf, {}
    floor = _choi_floor(f)
    if floor is None:
        return np.inf, {}
    proj = None if support is None else _stacks(support.shape, alg.vec(support))
    groups = []
    for i, (m, ids, rows, span, _) in enumerate(_groups(cod)):
        at, k = rows if span is None else span, len(ids)
        big, one = nu[at].T.reshape(2, k, m, m)
        if m == 1:   # sum_a |F(E_a)_x|^2 is the squared norm of row x
            v = np.ascontiguousarray(mat[at]).view(float)
            t = big[:, 0, 0] - np.einsum("ij,ij->i", v, v)
        else:        # sum_a F(E_a)_x* F(E_a)_x per row of the units, then over the rows
            x = mat[at].reshape(k, m, m, d)
            t = big - (x.conj() @ x.swapaxes(-1, -2)).sum(axis=1)
        if proj is None:   # over all blocks at once: the root of the sum of squares
            tn = ptn = np.vdot(t, t).real ** 0.5
            pn = p2 = None
        elif m == 1:
            tn, pn = np.abs(t), np.abs(proj[i][:, 0, 0])
            p2 = pn * pn
            ptn = p2 * tn
        else:
            pn = proj[i]
            tn, p2 = _frob2(t) ** 0.5, _frob2(pn)   # ||P_x||^2 <= ||P_x||_F^2, refined below
            ptn = _frob2(_dagger(pn) @ t @ pn if side == "right" else pn @ t @ _dagger(pn)) ** 0.5
        # ||T_x|| ||P_x* T_x P_x|| and the rounding of T inside the second factor, with
        # ||P_x||^2 >= ||P_x||_F^2 / m: a lower bound on the square of the result
        if (tn * (ptn + 2 * u * tn * (1 if p2 is None else p2 / m))).max() > cap * cap:
            return np.inf, {}
        groups.append([m, one, tn, ptn, pn, p2])
    n2e, ne, ne2, e_max, backward, skew = floor   # the Choi negative part, and C - C*
    phi, g_d = sum_f2 ** 0.5, _gamma(d)
    # ||F(1)_x|| <= 1 + ||F(1)_x - 1||_F, refined below; the product adds
    # g_d sum_diag ||F(E_a)_x||_F
    n_one = 1 + float(np.vdot(*(2 * [nu[:, 1] - _unit_coords(cod)])).real) ** 0.5
    kappa = 0.5 * skew + u * phi             # ||F(E_a) - F_H(E_a)||: skew and the rounding of H
    rho = e_max + kappa                      # ||G(E_a) - F(E_a)||
    # T_G - (T_F + T_F*) / 2 <= extra 1, from the two parts of G - F
    extra = n2e + 2 * (ne2 + u * phi * ne) + kappa * (sum_n2 + 2 * root_d * phi)
    star = 0.0 if adjoint else skew * phi    # F(E_a) in place of F(E_a*)*
    # every computed norm, sum and product above, and the grid's own norms, are exact
    # to a relative (entries of F + 16) 64 u: this covers the rounding of the bound
    margin = 1 + 64 * (mat.size + 16) * u

    def bound(n_one: float) -> tuple[float, dict[str, float]]:
        worst, terms = 0.0, {}
        # ||F(1)|| - 1; 1 + 8u covers the rounding of n_one and of this sum before 1 cancels
        unit = max(0.0, (n_one + g_d * phi * sum_n ** 0.5) * (1 + 8 * u) - 1)
        delta = unit + ne + kappa * sum_n                          # ||G(1)|| - 1
        for m, _, tn, ptn, _, p2 in groups:
            g_m = _gamma(m)
            # of T, and 2 u ||T_x|| below
            t_round = g_d * norm_w * phi + (g_m + g_d + g_m * g_d) * sum_f2
            grid_round = g_m * sum_f2 + u * (phi + (1 + g_m) * sum_f2)     # of the grid's products
            # ||P_x||_F <= m^1/2 ||P_x|| in the rounding of the products with P: P* T P and (.) P
            p_round = 2 * g_m * (1 + g_m) * m
            product_round = g_m * (1 + u) * m ** 0.5 * (phi + (1 + g_m) * sum_f2)
            # and ||(G(1) - 1) sum_y n_y G(1_y)||
            err = t_round + extra + delta * n_max * (1 + delta)
            lin = delta * (1 + delta) + rho * (1 + 2 * phi + rho) + grid_round + star
            if p2 is None:
                b = tn * (1 + 2 * u) + err + lin
            else:
                lower = ptn + p2 * (tn * (p_round + 2 * u) + err)
                b = ((tn * (1 + 2 * u) + err) * lower) ** 0.5 + p2 ** 0.5 * (lin + product_round)
            for name, value in (("t_round", t_round), ("grid_round", grid_round),
                                ("p_round", p_round), ("product_round", product_round)):
                terms[name] = max(terms.get(name, 0.0), value)
            worst = max(worst, float(b.max()) * margin)
        terms.update(choi=e_max, backward=backward, skew=kappa, unit=unit, star=star)
        return worst, terms

    first = bound(n_one)
    if first[0] <= cap:
        return first
    # refine: the operator norms of F(1)_x and P_x, from one eigensolver call per block size;
    # forming X* X and the eigensolver each move its eigenvalues by at most gamma_m ||X||_F^2
    n_two = 0.0
    for g in groups:
        m, one, pn = g[0], g[1], g[4]
        if m == 1:
            n_two = max(n_two, float(np.abs(one).max()))
        else:
            both = one if pn is None else np.concatenate([one, pn])
            lam = np.linalg.eigvalsh(_dagger(both) @ both)[..., -1]
            lam = np.maximum(lam, 0.0) + 2 * _gamma(m) * _frob2(both)
            n_two = max(n_two, float(lam[:len(one)].max()) ** 0.5)
            if pn is not None:
                g[5] = np.minimum(g[5], lam[len(one):])
    return min(first, bound(min(n_one, n_two)), key=lambda r: r[0])


_TINY = 2.0 ** -600   # an absolute shift: lets an all-zero Choi block factor


def _choi_floor(f) -> tuple[float, ...] | None:
    """Bounds, over the codomain blocks x, on (sum_y n_y^2 e_yx, sum_y n_y e_yx,
    sum_y n_y e_yx^2, max_y e_yx, the rounding part of e_yx, max_y ||C_yx - C_yx*||_F), where
    lambda_min(H_yx) >= -e_yx is proved for the Hermitian part H_yx of every
    Choi block; None when some block is not proved positive so.

    A 1 x 1 block is its own eigenvalue.  The larger blocks of one size N
    are shifted by s = gamma_N tr / 4 + 2^-600, where tr is the sum of their
    traces, and factored: R*R = A + E for A = fl(H + s I), with
    ||E|| <= gamma_N tr(R*R) <= gamma_N tr(A) / (1 - gamma_N), gives
    e = s + (gamma_N / (1 - gamma_N) + 2 u) tr(A) (README).  Each sum over the
    blocks y of one size is bounded by the sum over all blocks of that size.
    """
    u = _UNIT_ROUNDOFF
    n2e = ne = ne2 = e_max = backward = skew2 = 0.0
    for ys, parts in choi_parts(f):
        n = f.domain.blocks[ys[0]]
        for h, diff in parts:
            size = h.shape[-1]
            diag = h.reshape(h.shape[:-2] + (-1,))[..., ::size + 1].real   # a writable view
            if size == 1:
                low = float(diag.min())
                col = top = 0.0 if low >= 0 else -float(np.minimum(diag, 0.0).sum())
            else:
                g, many = _gamma(size), h.shape[0] * h.shape[1] * size
                tr = float(diag.sum())
                if not tr >= 0:
                    return None
                shift = 0.25 * g * tr + _TINY
                diag += shift
                if not _factors(h):
                    return None
                # every A_ii = fl(H_ii + s) is positive, so H_ii > -s, |H_ii| < H_ii + 2 s,
                # and the traces of the A, summed, are at most `trace`
                g_sum = _gamma(many)
                trace = (1 + u) * ((tr + 2 * g_sum * many * shift) / (1 - g_sum) + many * shift)
                rounding = (g / (1 - g) + 2 * u) * trace   # Cholesky's backward error, and A's
                backward = max(backward, rounding)
                top, col = shift + rounding, len(ys) * shift + rounding
            n2e += n * n * col
            ne += n * col
            ne2 += n * top * col
            e_max = max(e_max, top)
            skew2 += float(np.vdot(diff, diff).real)
    return n2e, ne, ne2, e_max, backward, skew2 ** 0.5
