"""Closed-form evaluation of the exact basis checks and of channel matrices.

An exact check compares two elements of a codomain algebra for every matrix
unit, or every ordered pair of matrix units, of a domain algebra.  The image
of a unit is a column of the channel matrix, and a product of two units is a
unit or zero (E_ij E_kl = delta_jk E_il), so every operand of such a check is
an index lookup into the stacked images, a conjugate transpose, or a batched
matrix product of them.  `first_failure` evaluates the grids of a batch of
trials in numpy, each entry decided by the equality rule
`algebra.failing_entries`, and returns each trial's first failing entry in
canonical order; a per-call check is a batch of one.

The pair grids of multiplicativity, F(E_a E_b) = F(E_a) F(E_b), are O(n^7)
on M_n.  `gram_bound` bounds all their entries at once from one
Kadison-Schwarz Gram sum, in O(n^5), and `multiplicative_failure` runs a
grid only when that bound does not prove every entry passes.

Codomain blocks are grouped by size: the k blocks of size m of a batch of N
elements form one stack of shape (N, k, m, m), so an algebra of many equal
blocks costs one array operation, not one per block.

The index tables of `algebra` also build channel matrices: a tensor
product, the multiplication map and the Choi blocks are gathers or scatters
of matrix entries.  A tensor product is written straight into its one
output, in the row chunks of `row_chunks`.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from . import algebra as alg
from .algebra import (
    AlgebraShape,
    AlgElement,
    Stacks,
    _UNIT_ROUNDOFF,
    _dagger,
    _factors,
    _join,
    _some,
    _stacks,
    _unit_coords,
    adjoint_index,
    product_index,
    scale_exponent,
)
from .tolerances import Tolerance

# codomain entries per operand in one chunk of the grid, coordinates per element
# times trials in one batch of a sampled check, and entries in one row chunk of a
# channel matrix: 128 KiB of complex128, glibc's default mmap threshold
_CHUNK = 1 << 13


def row_chunks(rows: int, width: int) -> Iterator[tuple[int, int]]:
    """The bounds (r0, r1) of consecutive chunks of `rows` rows of `width` entries:
    at most _CHUNK entries per chunk, and at least one row."""
    step = max(1, _CHUNK // max(1, width))
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def choi_blocks(dom: AlgebraShape, cod: AlgebraShape,
                matrix: np.ndarray) -> list[tuple[np.ndarray, Stacks]]:
    """The Choi blocks C_yx of the maps dom ~> cod with matrices (..., c, d), grouped
    by block size.

    The Choi matrix of domain block y is block-diagonal over the codomain
    blocks x, with blocks C_yx[(i, a), (j, b)] = F(E_ij)_x[a, b] of size n m.
    One entry per domain block size n: the domain blocks y of that size and,
    per codomain block size m, their blocks as a stack (..., k_n, k_m, n m, n m),
    read from the matrices by a slice (a gather for interleaved blocks) and a
    transpose: a copy, or a read-only view where the transpose allows.
    """
    lead = matrix.shape[:-2]
    b = len(lead)
    axes = tuple(range(b)) + tuple(b + i for i in (3, 0, 4, 1, 5, 2))
    out = []
    for n, ys, _, cols, *_ in dom._layout.groups:
        stacks = []
        for m, xs, _, rows, *_ in cod._layout.groups:
            c = matrix[..., rows, :][..., cols].reshape(lead + (len(xs), m, m, len(ys), n, n))
            stacks.append(c.transpose(axes).reshape(lead + (len(ys), len(xs), n * m, n * m)))
        out.append((ys, stacks))
    return out


def choi_parts(dom: AlgebraShape, cod: AlgebraShape,
               matrix: np.ndarray) -> list[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
    """The Choi blocks as pairs (H, C - C*), grouped as `choi_blocks` groups them.

    H = (C + C*) / 2 is the Hermitian part; both are fresh writable stacks
    (..., k_n, k_m, n m, n m).  C is read once, H is formed in place in that
    copy, and C* is one contiguous conjugate transpose that both sums read
    in memory order, so `is_cp` and the Gram certificate share one pass.
    """
    out = []
    for ys, stacks in choi_blocks(dom, cod, matrix):
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
    single (R m) x (C m) product.  x and y are (..., R, k, m, m) and
    (..., C, k, m, m); leading axes are a batch, with one product per block
    of each batch entry, and the result is (..., R C, k, m, m).
    """
    lead, (r, k, m, _), c = x.shape[:-4], x.shape[-4:], y.shape[-4]
    b = len(lead)
    at = tuple(range(b))
    left = (_dagger(x) if adjoint else x).swapaxes(-4, -3).reshape(-1, r * m, m)
    right = y.transpose(at + (b + 1, b + 2, b, b + 3)).reshape(-1, m, c * m)
    out = (left @ right).reshape(lead + (k, r, m, c, m))
    return out.transpose(at + (b + 1, b + 3, b, b + 2, b + 4)).reshape(lead + (r * c, k, m, m))


def multiplicative_failure(fs, tol: Tolerance, adjoint: bool = False,
                           supports: list[AlgElement] | None = None,
                           side: str = "right") -> list[int | None]:
    """Per channel F of fs, which share one domain and one codomain: the row-major
    index of the first failing pair of F(E_a E_b) = F(E_a) F(E_b), or of
    F(E_a* E_b) = F(E_a)* F(E_b) with adjoint, decided as `first_failure`
    decides it (with F's support, if given, on the given side); None when
    every pair passes.

    A pass that `gram_bound` proves for F needs no grid; the channels it does
    not certify share one grid.  That grid runs on the channels as they are
    unless a product overflows.  Then each compares operands scaled by a power
    of two 2^-e, entries at most 2^500, the products by 2^-2e, with the floor
    1 of the scale scaled alike; an entry whose operands all fall below
    2^(2e - 1074) then compares zeros.  e is 0 for entries at most 2^500, so
    only a larger channel batched with one that overflows can differ from its
    own call, by being compared scaled.
    """
    out: list[int | None] = [None] * len(fs)
    ps = [None] * len(fs) if supports is None else supports
    # the certificate bounds the deviation of every entry at once, and a deviation at most
    # tol.eq passes the equality rule at any scale: a channel within it needs no grid
    todo = [i for i, (f, p) in enumerate(zip(fs, ps))
            if gram_bound(f, adjoint, p, side, tol.eq) > tol.eq]
    if not todo:
        return out
    dom, cod = fs[0].domain, fs[0].codomain
    d = dom.coord_dim
    padded = np.zeros((len(todo), cod.coord_dim, d + 1), dtype=complex)   # entry d is 0
    padded[:, :, :d] = [fs[i].matrix for i in todo]
    proj = None if supports is None else np.array([alg.vec(supports[i]) for i in todo])
    prod = product_index(dom)
    left = adjoint_index(dom) if adjoint else np.arange(d)

    def grid(e: np.ndarray) -> list[int | None]:
        scaled, c = e.any(), np.ldexp(1.0, -e)[:, None, None]
        m = padded * c if scaled else padded
        cols = m.swapaxes(1, 2)   # the images as rows
        img = _stacks(cod, cols)  # and as stacks

        def operands(live, r0, r1):
            xs = [_live(x, live) for x in img]
            lhs = _live(cols, live)[:, prod[left[r0:r1]].ravel()]
            return (lhs * _live(c, live) if scaled else lhs,
                    _join(cod, [products(x[:, r0:r1], x[:, :d], adjoint) for x in xs]))

        return first_failure(cod, d, d, operands, tol, proj, side, (c * c).ravel())

    try:
        with np.errstate(over="raise", invalid="raise"):
            bad = grid(np.zeros(len(todo), dtype=int))
    except FloatingPointError:
        bad = grid(scale_exponent(padded, 500))
    for i, b in zip(todo, bad):
        out[i] = b
    return out


def equal_failure(s: AlgebraShape, left: np.ndarray, right: np.ndarray, tol: Tolerance,
                  supports: list[AlgElement] | None = None,
                  side: str = "right") -> list[int | None]:
    """Per trial of the matrices left (T, coord_dim, d) of maps F and right of maps G
    into s, or right (1, coord_dim, d) of one map G for every trial: the index of
    the first unit E_a where (F - G)(E_a) does not vanish on the trial's support,
    on the given side, or where F(E_a) != G(E_a) with no supports, decided as
    `first_failure` decides it; None when every unit passes.

    As in `star_failure`, a trial whose entries exceed 2^500 compares both maps
    scaled by 2^-e, the larger exponent of the two, with the floor 1 scaled
    alike, so no difference overflows.
    """
    e = np.maximum(scale_exponent(left, 500), scale_exponent(right, 500))
    c = np.ldexp(1.0, -e)
    if e.any():
        left, right = left * c[:, None, None], right * c[:, None, None]
    rows_f, rows_g = left.swapaxes(1, 2), right.swapaxes(1, 2)   # F(E_a) and G(E_a) as rows
    proj = None if supports is None else np.array([alg.vec(p) for p in supports])
    return first_failure(
        s, left.shape[-1], 1,
        lambda live, r0, r1: (_live(rows_f, live)[:, r0:r1], _live(rows_g, live)[:, r0:r1]),
        tol, proj, side, c)


def star_failure(f, tol: Tolerance) -> int | None:
    """Index of the first unit E_a with F(E_a*) != F(E_a)*, decided by
    `failing_entries` with no support; None when every unit passes.

    Column a of M[:, adj_dom] holds the coordinates of F(E_a*) and column a of
    conj(M[adj_cod, :]) those of F(E_a)*, for the channel matrix M.  They are
    read in chunks of units, in canonical order, the first one small, so a
    map that fails early reads little of M.  Above 2^500 both compare
    operands scaled by 2^-e and the floor 1 scaled alike, so no difference
    overflows.
    """
    cod, adj = f.codomain, adjoint_index(f.domain)
    back = adjoint_index(cod)
    e = f._exponent   # scale_exponent(f.matrix, 500), read when f was built
    c = np.ldexp(1.0, -e) if e else 1.0
    m = f.matrix * c if e else f.matrix
    d, rows = f.domain.coord_dim, cod.coord_dim
    a0, step = 0, max(1, _CHUNK // (8 * rows))
    while a0 < d:
        a1 = min(d, a0 + step)
        fail = alg.failing_entries(cod, m[:, adj[a0:a1]].T, m[back, a0:a1].conj().T, tol, unit=c)
        if _some(fail):
            return a0 + int(fail.argmax())
        a0, step = a1, max(1, _CHUNK // rows)
    return None


def unit(s: AlgebraShape, index: int) -> AlgElement:
    """The matrix unit with the given canonical index."""
    return alg._adopt(s, np.eye(1, s.coord_dim, index, dtype=complex)[0])


def first_failure(
    codomain: AlgebraShape,
    rows: int,
    cols: int,
    operands: Callable[[np.ndarray, int, int], tuple[np.ndarray, np.ndarray]],
    tol: Tolerance,
    supports: np.ndarray | None = None,
    side: str = "right",
    unit: float | np.ndarray = 1.0,
) -> list[int | None]:
    """Per trial, the row-major index of the first failing entry of its rows x cols
    grid, or None when every entry passes.

    unit holds the floor of each trial's scale, so its length is the number T
    of trials; supports, if given, the coordinates (T, coord_dim) of one support
    projection per trial.  operands(live, r0, r1) returns (lhs, rhs): the
    coordinates (len(live), (r1 - r0) cols, coord_dim) of the codomain elements
    of the entries in rows r0 to r1 - 1, row-major, of the trials live, an
    ascending index array.  Each entry is decided by `alg.failing_entries`,
    under its trial's support.  The grids run together in chunks of whole
    rows, at most _CHUNK codomain entries per operand over the live trials
    and at least one row.  A trial that fails drops out of later chunks, and
    the run stops when no trial is live: a single grid stops at its first
    failing chunk.
    """
    floor = np.array(unit, dtype=float, ndmin=1)
    out: list[int | None] = [None] * len(floor)
    live, r0 = np.arange(len(floor)), 0
    while r0 < rows and live.size:
        r1 = min(rows, r0 + max(1, _CHUNK // (live.size * cols * codomain.coord_dim)))
        proj = None if supports is None else _live(supports, live)
        fail = alg.failing_entries(codomain, *operands(live, r0, r1), tol, proj, side,
                                   _live(floor, live)[:, None])
        if fail.any():
            hit = fail.any(axis=-1)
            for i in np.flatnonzero(hit):
                out[live[i]] = r0 * cols + int(fail[i].argmax())
            live = live[~hit]
        r0 = r1
    return out


def _live(x: np.ndarray, live) -> np.ndarray:
    """The entries live of x along its leading trial axis: x itself if all are live, or
    if x holds one entry that every trial shares and some trial is live."""
    return x if len(live) == len(x) or (len(x) == 1 and len(live)) else x[live]


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
    for i, (m, ids, _, at, *_) in enumerate(cod._layout.groups):
        k = len(ids)
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
    for ys, parts in choi_parts(f.domain, f.codomain, f.matrix):
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
