"""Loop implementations of the exact checks and constructions, kept as a slow oracle.

These are the straightforward versions of what the library computes in
closed form: the checks visit every matrix unit, or every pair of matrix
units, and decide each comparison with `elem_equal` or an operator-norm test
on the support; the constructions apply a callback to every matrix unit, and
`is_cp` decides the full Choi matrix of each domain block (and
`is_cp_spectral` every stack of Choi blocks by eigvalsh, the decision the
Cholesky certificate stands in for); the classical
kernel operations visit every entry, with one branch for Fractions and one
for floats; the dense-matrix primitives call LAPACK once per matrix, with
their own Hermiticity test, PSD test and rank cutoff; the element operations
build an element block by block, the stacked layout gathers and scatters
every block size on its coordinate rows, and the sampled checks draw and
decide one random element per trial; the strict-positivity and causality
grids of the corpus visit one pair, or triple, of matrix units per step, and
the EPR system takes one trace per coefficient, and the knill-laflamme
sweep draws, pulls back and checks one state per step; the compressions, the
doubling, padded and padded-block embeddings, the EPR spin flip and the
masked map of the `state-ae` suite, which the library builds from its
constructors, apply a callback to every matrix unit; the props suites draw
and decide one trial at a time, build the star-preserving part of a map by
`channel_from_action`, each random CPU map and unitary from a QR of its own
and normalize weights by a Fraction sum, and the `bayes` suite takes every
state value of a law with `State.expect`, one matrix unit or one random
element at a time, and builds its shifted candidate by `channel_from_action`.  The
differential tests run both and require the same verdicts, witnesses and matrices.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from qmarkov import _grid, bayes, corpus, props, state
from qmarkov import channel as ch
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.bayes import BayesProblem
from qmarkov.channel import (
    Channel,
    PropertyReport,
    _report,
    apply,
    channel_from_action,
    compose,
    hs_adjoint,
    identity_channel,
)
from qmarkov.errors import (
    NotCommutative,
    NotPSD,
    NotSelfAdjoint,
    PullbackNotPSD,
    ShapeMismatch,
    SupportNotFull,
)
from qmarkov.finstoch import ProbVector, StochasticMatrix, _parse_entry
from qmarkov.state import NullspaceTest, State, pullback_state, state_from_density
from qmarkov.tolerances import DEFAULT_TOL, Tolerance


class NonscalarImageBlock(ValueError):
    """A support point of `commutative_disintegration`'s loop that does not read one
    scalar block of the domain."""


# ---------------------------------------------------------------------------
# dense-matrix primitives: one LAPACK call per matrix
# ---------------------------------------------------------------------------

def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def op_norm(m) -> float:
    """Largest singular value, computed as sqrt of the top eigenvalue of m*m."""
    a = _as_matrix(m)
    if a.size == 0:
        return 0.0
    if a.shape == (1, 1):
        return float(abs(a[0, 0]))
    gram = a.conj().T @ a
    ev = np.linalg.eigvalsh(gram)
    return float(np.sqrt(max(ev[-1], 0.0)))


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = _as_matrix(m)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    return dev <= tol.herm * tol.scale(op_norm(a))


def herm_eig(m, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) with w descending and m = u diag(w) u*; NotSelfAdjoint otherwise."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSelfAdjoint(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    if not is_hermitian(a, tol):
        dev = np.max(np.abs(a - a.conj().T))
        raise NotSelfAdjoint(f"anti-Hermitian deviation {dev:.3e} exceeds tolerance")
    sym = 0.5 * (a + a.conj().T)
    w, u = np.linalg.eigh(sym)   # np.linalg.LinAlgError when LAPACK does not converge
    return w[::-1].copy(), u[:, ::-1].copy()


def pinv_psd(m, rank_tol: float | None = None, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; eigenvalues <= rank_tol * lambda_max count as 0."""
    if rank_tol is None:
        rank_tol = tol.rank
    w, u = herm_eig(m, tol)
    scale = tol.scale(w[0] if w.size else 0.0)
    if w.size and w[-1] < -tol.psd * scale:
        raise NotPSD(f"minimum eigenvalue {w[-1]:.3e} is negative beyond tolerance")
    cutoff = rank_tol * (w[0] if w.size and w[0] > 0 else 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (u * inv) @ u.conj().T


def sqrt_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    w, u = herm_eig(m, tol)
    scale = tol.scale(w[0] if w.size else 0.0)
    if w.size and w[-1] < -tol.psd * scale:
        raise NotPSD(f"minimum eigenvalue {w[-1]:.3e} is negative beyond tolerance")
    root = np.sqrt(np.clip(w, 0.0, None))
    return (u * root) @ u.conj().T


def is_star_preserving(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    for e in alg.matrix_units(f.domain):
        lhs = apply(f, alg.adjoint(e))
        rhs = alg.adjoint(apply(f, e))
        if not alg.elem_equal(lhs, rhs, tol):
            return _report(
                "star-preserving", False, tol.eq, witness={"input": e},
                detail="F(E*) != F(E)* on a matrix unit",
            )
    return _report("star-preserving", True, tol.eq)


def is_deterministic(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    star = is_star_preserving(f, tol)
    if not star.passed:
        return _report(
            "deterministic", False, tol.eq, witness=star.witness,
            detail="not star-preserving",
        )
    units = alg.matrix_units(f.domain)
    images = [apply(f, e) for e in units]
    for a, ea in enumerate(units):
        for b, eb in enumerate(units):
            lhs = apply(f, alg.mul(ea, eb))
            rhs = alg.mul(images[a], images[b])
            if not alg.elem_equal(lhs, rhs, tol):
                return _report(
                    "deterministic", False, tol.eq,
                    witness={"left_input": ea, "right_input": eb},
                    detail="F(Ea Eb) != F(Ea) F(Eb)",
                )
    return _report("deterministic", True, tol.eq)


def s_positivity_equation(f: Channel, g: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    if g.codomain != f.domain:
        raise ShapeMismatch("channels are not composable")
    c_units = alg.matrix_units(g.domain)
    b_units = alg.matrix_units(f.domain)
    for ci, c in enumerate(c_units):
        gc = apply(g, c)
        fgc = apply(f, gc)
        for bi, b in enumerate(b_units):
            lhs = apply(f, alg.mul(gc, b))
            rhs = alg.mul(fgc, apply(f, b))
            if not alg.elem_equal(lhs, rhs, tol):
                return _report(
                    "s-positivity-equation", False, tol.eq,
                    witness={"outer_input": c, "inner_input": b,
                             "outer_index": ci, "inner_index": bi},
                    detail="F(G(C) B) != F(G(C)) F(B)",
                )
    return _report("s-positivity-equation", True, tol.eq)


def _side_vanishes(x, p, side, tol, scale) -> bool:
    prod = alg.mul(x, p) if side == "right" else alg.mul(p, x)
    return alg.norm(prod) <= tol.eq * tol.scale(scale)


def ae_equal(f: Channel, g: Channel, omega: State, side: str = "right",
             tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    p = omega.support
    for e in alg.matrix_units(f.domain):
        fe, ge = apply(f, e), apply(g, e)
        scale = max(alg.norm(fe), alg.norm(ge))
        if not _side_vanishes(fe - ge, p, side, tol, scale):
            return _report(
                f"ae-equal-{side}", False, tol.eq, witness={"input": e},
                detail="(F - G)(B) does not vanish on the support",
            )
    return _report(f"ae-equal-{side}", True, tol.eq)


def ae_deterministic(f: Channel, omega: State, side: str = "right",
                     tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    p = omega.support
    units = alg.matrix_units(f.domain)
    images = [apply(f, e) for e in units]
    for a, ea in enumerate(units):
        fa_star = alg.adjoint(images[a])
        for b, eb in enumerate(units):
            lhs = apply(f, alg.mul(alg.adjoint(ea), eb))
            rhs = alg.mul(fa_star, images[b])
            scale = max(alg.norm(lhs), alg.norm(rhs))
            if not _side_vanishes(lhs - rhs, p, side, tol, scale):
                return _report(
                    f"ae-deterministic-{side}", False, tol.eq,
                    witness={"left_input": ea, "right_input": eb},
                    detail="F(B*C) != F(B)*F(C) on the support",
                )
    return _report(f"ae-deterministic-{side}", True, tol.eq)


def petz_exists(prob: BayesProblem, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    if not alg.elem_equal(xi.support, alg.unit(xi.shape), tol):
        raise SupportNotFull("pullback state does not have full support")
    rho, sigma = omega.density, xi.density
    for e in alg.matrix_units(f.domain):
        lhs = alg.mul(apply(f, alg.mul(sigma, e)), rho)
        rhs = alg.mul(rho, apply(f, alg.mul(e, sigma)))
        if not alg.elem_equal(lhs, rhs, tol):
            return _report(
                "petz-exists", False, tol.eq, witness={"input": e},
                detail="F(sigma B) rho != rho F(B sigma)",
            )
    return _report("petz-exists", True, tol.eq)


def bayes_sides(f: Channel, omega: State, xi: State, g: Channel, side: str = "left"):
    """lhs[a][b] and rhs[a][b] of the Bayes condition on every pair of units E_a of
    the codomain and E_b of the domain: states of products of elements, block by block."""
    def table(w: State, first, second):   # [i][j] = w(X_i Y_j)
        return [[complex(sum(np.trace(p @ q) for p, q in zip(wx, y.blocks))) for y in second]
                for wx in ([r @ b for r, b in zip(w.density.blocks, x.blocks)] for x in first)]

    cod_units, dom_units = matrix_units(f.codomain), matrix_units(f.domain)
    g_img = [apply(g, e) for e in cod_units]
    f_img = [apply(f, e) for e in dom_units]
    if side == "left":     # xi(G(A) B) = omega(A F(B))
        return table(xi, g_img, dom_units), table(omega, cod_units, f_img)
    # xi(B G(A)) = omega(F(B) A), tabulated [b][a]
    return tuple(list(zip(*t)) for t in (table(xi, dom_units, g_img),
                                         table(omega, f_img, cod_units)))


def verify_bayes(f: Channel, omega: State, xi: State, g: Channel, side: str = "left",
                 tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """The Bayes condition pair by pair; the witness is the pair that fails by most
    over its bound, the first of equals in row-major order."""
    lhs, rhs = bayes_sides(f, omega, xi, g, side)
    cod_units, dom_units = matrix_units(f.codomain), matrix_units(f.domain)
    worst, worst_dev, witness = None, 0.0, None
    for a, ea in enumerate(cod_units):
        for b, eb in enumerate(dom_units):
            dev = abs(lhs[a][b] - rhs[a][b])
            worst_dev = max(worst_dev, dev)
            over = dev - tol.eq * max(1.0, abs(lhs[a][b]), abs(rhs[a][b]))
            if over > 0 and (worst is None or over > worst):
                worst, witness = over, (ea, eb, lhs[a][b], rhs[a][b], dev)
    if witness is None:
        return _report(f"bayes-{side}", True, tol.eq, detail=f"max deviation {worst_dev:.3g}")
    ea, eb, lhs, rhs, dev = witness
    return _report(
        f"bayes-{side}", False, tol.eq,
        witness={"a_input": ea, "b_input": eb, "lhs": lhs, "rhs": rhs},
        detail=f"Bayes condition fails by {dev:.6g}",
    )


def verify_disintegration(f: Channel, omega: State, g: Channel,
                          tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShapeMismatch("candidate must run opposite to the channel")
    xi = pullback_state(omega, f, tol)
    for e in alg.matrix_units(f.codomain):
        lhs = xi.expect(apply(g, e))
        rhs = omega.expect(e)
        if abs(lhs - rhs) > tol.eq * tol.scale(max(abs(lhs), abs(rhs))):
            return _report(
                "disintegration", False, tol.eq,
                witness={"input": e, "lhs": lhs, "rhs": rhs},
                detail="state preservation fails: xi(G(A)) != omega(A)",
            )
    section = ae_equal(compose(g, f), identity_channel(f.domain), xi, "right", tol)
    if not section.passed:
        return _report(
            "disintegration", False, tol.eq, witness=section.witness,
            detail="G o F is not a.e. equal to the identity",
        )
    return _report("disintegration", True, tol.eq,
                   detail="state preservation and a.e. section both hold")


# ---------------------------------------------------------------------------
# constructions: one callback per matrix unit
# ---------------------------------------------------------------------------

def transpose_channel(s: AlgebraShape) -> Channel:
    return channel_from_action(
        s, s, lambda a: AlgElement(s, tuple(b.T.copy() for b in a.blocks))
    )


def ad_channel(v: np.ndarray) -> Channel:
    v = np.asarray(v, dtype=complex)
    p, q = v.shape
    dom, cod = AlgebraShape((q,)), AlgebraShape((p,))
    return channel_from_action(dom, cod, lambda a: AlgElement(cod, (v @ a.blocks[0] @ v.conj().T,)))


def conjugation_by(e: AlgElement) -> Channel:
    s = e.shape
    return channel_from_action(s, s, lambda a: alg.mul(alg.mul(e, a), alg.adjoint(e)))


def kraus_channel(domain: AlgebraShape, codomain: AlgebraShape, kraus_ops) -> Channel:
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]

    def act(a: AlgElement) -> AlgElement:
        b = a.blocks[0]
        return AlgElement(codomain, (sum(k.conj().T @ b @ k for k in ops),))

    return channel_from_action(domain, codomain, act)


def mult_map(s: AlgebraShape) -> Channel:
    dom = alg.tensor_shape(s, s)
    mat = np.zeros((s.coord_dim, dom.coord_dim), dtype=np.int8)
    cod_off = s.offsets()
    col = 0
    k = len(s.blocks)
    for x in range(k):
        m = s.blocks[x]
        for y in range(k):
            n = s.blocks[y]
            for i in range(m):
                for p in range(n):
                    for j in range(m):
                        for q in range(n):
                            if x == y and j == p:
                                mat[cod_off[x] + i * m + q, col] = 1.0
                            col += 1
    return Channel(dom, s, mat)


def tensor(f: Channel, g: Channel) -> Channel:
    dom = alg.tensor_shape(f.domain, g.domain)
    cod = alg.tensor_shape(f.codomain, g.codomain)
    f_units = [apply(f, e) for e in alg.matrix_units(f.domain)]
    g_units = [apply(g, e) for e in alg.matrix_units(g.domain)]
    mat = np.zeros((cod.coord_dim, dom.coord_dim), dtype=complex)
    col = 0
    for x, m in enumerate(f.domain.blocks):
        for y, n in enumerate(g.domain.blocks):
            for i in range(m):
                for p in range(n):
                    for j in range(m):
                        for q in range(n):
                            fa = f_units[alg.basis_index(f.domain, x, i, j)]
                            gb = g_units[alg.basis_index(g.domain, y, p, q)]
                            mat[:, col] = vec(tensor_elem(fa, gb))
                            col += 1
    return Channel(dom, cod, mat)


def choi(f: Channel) -> list[np.ndarray]:
    out = []
    ncod = f.codomain.total_dim
    for y, n in enumerate(f.domain.blocks):
        c = np.zeros((n * ncod, n * ncod), dtype=complex)
        for i in range(n):
            for j in range(n):
                e = matrix_units(f.domain)[alg.basis_index(f.domain, y, i, j)]
                img = block_embed(apply(f, e))
                eij = np.zeros((n, n), dtype=complex)
                eij[i, j] = 1.0
                c += np.kron(eij, img)
        out.append(c)
    return out


def is_cp(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    for y, c in enumerate(choi(f)):
        scale = tol.scale(op_norm(c))
        skew = np.max(np.abs(c - c.conj().T)) if c.size else 0.0
        w, _ = herm_eig(0.5 * (c + c.conj().T), tol)
        if skew > tol.herm * scale:
            return _report(
                "cp", False, tol.psd,
                witness={"domain_block": y, "skew_norm": float(skew),
                         "min_eigenvalue": float(w[-1])},
                detail=f"Choi matrix of domain block {y} is not Hermitian "
                       f"(skew {skew:.3g}); Hermitian part has eigenvalue {w[-1]:.6g}",
            )
        if w[-1] < -tol.psd * scale:
            return _report(
                "cp", False, tol.psd,
                witness={"domain_block": y, "min_eigenvalue": float(w[-1])},
                detail=f"Choi matrix of domain block {y} has eigenvalue {w[-1]:.6g}",
            )
    return _report("cp", True, tol.psd)


# ---------------------------------------------------------------------------
# spectral PSD decisions: the tests the Cholesky certificate stands in for
# ---------------------------------------------------------------------------

def psd_by_spectrum(h: np.ndarray, lo: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """lambda_min(H) >= -tol.psd * lo for one Hermitian matrix, by eigvalsh."""
    low = h.real[0, 0] if h.shape == (1, 1) else np.linalg.eigvalsh(h)[0]
    return bool(low >= -tol.psd * lo)


def is_cp_spectral(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """`is_cp` decided by one batched eigvalsh of every stack of Choi blocks, with no
    certificate: the same numbers, so the same report, bit for bit."""
    k = len(f.domain.blocks)
    skew, low = np.zeros(k), np.full(k, np.inf)
    herm_norm, skew_frob = np.zeros(k), np.zeros(k)
    for ys, stacks in _grid.choi_blocks(f.domain, f.codomain, f.matrix):
        for c in stacks:
            c = c.copy()
            c_star = alg._dagger(c)
            diff = c - c_star
            h = 0.5 * (c + c_star)
            w = h.real[..., 0] if c.shape[-1] == 1 else np.linalg.eigvalsh(h)
            skew[ys] = np.maximum(skew[ys], np.abs(diff).max(axis=(1, 2, 3)))
            low[ys] = np.minimum(low[ys], w[..., 0].min(axis=1))
            herm_norm[ys] = np.maximum(herm_norm[ys], np.abs(w).max(axis=(1, 2)))
            sq = np.square(diff.real) + np.square(diff.imag)
            skew_frob[ys] = np.maximum(skew_frob[ys], (0.5 * np.sqrt(sq.sum(axis=(2, 3)))).max(axis=1))
    lo = np.maximum(1.0, herm_norm * (1 - alg._SLACK))
    hi = np.maximum(1.0, (herm_norm + skew_frob) * (1 + alg._SLACK))
    scale = lo.copy()
    open_ = ((skew > tol.herm * lo) != (skew > tol.herm * hi)) | (
        (low < -tol.psd * lo) != (low < -tol.psd * hi))
    for ys, stacks in _grid.choi_blocks(f.domain, f.codomain, f.matrix):
        pick = open_[ys]
        if pick.any():
            scale[ys[pick]] = np.maximum(1.0, alg._op_norm([c[pick] for c in stacks]))
    not_herm = skew > tol.herm * scale
    bad = not_herm | (low < -tol.psd * scale)
    if not bad.any():
        return _report("cp", True, tol.psd)
    y = int(bad.argmax())
    if not_herm[y]:
        return _report(
            "cp", False, tol.psd,
            witness={"domain_block": y, "skew_norm": float(skew[y]),
                     "min_eigenvalue": float(low[y])},
            detail=f"Choi matrix of domain block {y} is not Hermitian "
                   f"(skew {skew[y]:.3g}); Hermitian part has eigenvalue {low[y]:.6g}",
        )
    return _report(
        "cp", False, tol.psd,
        witness={"domain_block": y, "min_eigenvalue": float(low[y])},
        detail=f"Choi matrix of domain block {y} has eigenvalue {low[y]:.6g}",
    )


def product_form(state: State) -> np.ndarray:
    s = state.shape
    t = np.zeros((s.coord_dim, s.coord_dim), dtype=complex)
    for x, (n, off) in enumerate(zip(s.blocks, s.offsets())):
        sig = state.density.blocks[x]
        for p in range(n):
            for q in range(n):
                i = off + p * n + q
                for r in range(n):
                    t[i, off + q * n + r] = sig[r, p]
    return t


def bayes_candidate_channel(prob: BayesProblem) -> Channel:
    """The candidate of `bayes_candidate`, from the same pseudo-inverse and support."""
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    rho = omega.density
    fstar = hs_adjoint(f)
    sigma_pinv = xi.spectrum.inverse_power(1.0)
    complement = alg.unit(xi.shape) - xi.support
    comp_density = alg.unit(omega.shape) * (1.0 / omega.shape.total_dim)

    def act(a: AlgElement) -> AlgElement:
        main = alg.mul(sigma_pinv, apply(fstar, alg.mul(rho, a)))
        weight = complex(sum(np.trace(r @ x) for r, x in zip(comp_density.blocks, a.blocks)))
        return main + weight * complement

    return channel_from_action(f.codomain, f.domain, act)


def petz_recovery(prob: BayesProblem) -> Channel:
    """`petz_recovery` from the same square roots."""
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    sqrt_rho = omega.spectrum.sqrt()
    sqrt_sigma_pinv = xi.spectrum.inverse_power(0.5)
    fstar = hs_adjoint(f)

    def act(a: AlgElement) -> AlgElement:
        mid = apply(fstar, alg.mul(alg.mul(sqrt_rho, a), sqrt_rho))
        return alg.mul(alg.mul(sqrt_sigma_pinv, mid), sqrt_sigma_pinv)

    return channel_from_action(f.codomain, f.domain, act)


def commutative_disintegration(f: Channel, omega: State, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """`commutative_disintegration` without its a.e. determinism precondition."""
    if not f.codomain.is_commutative:
        raise NotCommutative("disintegration construction requires an all-ones codomain")
    nx = len(f.codomain.blocks)
    dom = f.domain
    p_diag = np.array([omega.density.blocks[x][0, 0].real for x in range(nx)])
    p_supp = np.array([omega.support.blocks[x][0, 0].real > 0.5 for x in range(nx)])
    unit_images = []
    for y in range(len(dom.blocks)):
        mats = [np.eye(n, dtype=complex) * (x == y) for x, n in enumerate(dom.blocks)]
        unit_images.append(apply(f, AlgElement(dom, tuple(mats))))
    block_of = {}
    for x in np.flatnonzero(p_supp):
        vals = np.array([abs(unit_images[y].blocks[x][0, 0]) for y in range(len(dom.blocks))])
        hits = np.flatnonzero(vals > 0.5)
        if hits.size != 1:
            raise NonscalarImageBlock(
                f"support point {x} does not evaluate through a unique block"
            )
        y = int(hits[0])
        if dom.blocks[y] != 1:
            raise NonscalarImageBlock(
                f"support point {x} evaluates through block {y} of dimension {dom.blocks[y]}"
            )
        block_of[int(x)] = y
    q = np.zeros(len(dom.blocks))
    for x, y in block_of.items():
        q[y] += p_diag[x]

    def act(a: AlgElement) -> AlgElement:
        avg = complex(sum(a.blocks[x][0, 0] for x in range(nx))) / nx
        out = []
        for y, n in enumerate(dom.blocks):
            if q[y] > 0:
                val = sum(
                    p_diag[x] / q[y] * a.blocks[x][0, 0]
                    for x, yy in block_of.items()
                    if yy == y
                )
            else:
                val = avg
            out.append(val * np.eye(n, dtype=complex))
        return AlgElement(dom, tuple(out))

    return channel_from_action(f.codomain, dom, act)


# ---------------------------------------------------------------------------
# element operations: one step per block, elements as tuples of blocks
# ---------------------------------------------------------------------------

def zero(s: AlgebraShape) -> AlgElement:
    return AlgElement(s, tuple(np.zeros((n, n), dtype=complex) for n in s.blocks))


def add(a: AlgElement, b: AlgElement) -> AlgElement:
    return AlgElement(a.shape, tuple(x + y for x, y in zip(a.blocks, b.blocks)))


def sub(a: AlgElement, b: AlgElement) -> AlgElement:
    return AlgElement(a.shape, tuple(x - y for x, y in zip(a.blocks, b.blocks)))


def scale(scalar: complex, a: AlgElement) -> AlgElement:
    return AlgElement(a.shape, tuple(scalar * b for b in a.blocks))


def mul(a: AlgElement, b: AlgElement) -> AlgElement:
    return AlgElement(a.shape, tuple(x @ y for x, y in zip(a.blocks, b.blocks)))


def adjoint(a: AlgElement) -> AlgElement:
    return AlgElement(a.shape, tuple(b.conj().T for b in a.blocks))


def trace(a: AlgElement) -> complex:
    return complex(sum(np.trace(b) for b in a.blocks))


def vec(a: AlgElement) -> np.ndarray:
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


def matrix_units(s: AlgebraShape) -> list[AlgElement]:
    out = []
    for x, n in enumerate(s.blocks):
        for i in range(n):
            for j in range(n):
                mats = [np.zeros((k, k), dtype=complex) for k in s.blocks]
                mats[x][i, j] = 1.0
                out.append(AlgElement(s, tuple(mats)))
    return out


def tensor_elem(a: AlgElement, b: AlgElement) -> AlgElement:
    mats = [np.kron(x, y) for x in a.blocks for y in b.blocks]
    return AlgElement(alg.tensor_shape(a.shape, b.shape), tuple(mats))


def block_embed(a: AlgElement) -> np.ndarray:
    n = a.shape.total_dim
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for b, k in zip(a.blocks, a.shape.blocks):
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out


def random_element(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    mats = tuple(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in s.blocks
    )
    return AlgElement(s, mats)


def expect(omega: State, a: AlgElement) -> complex:
    return complex(sum(np.trace(r @ b) for r, b in zip(omega.density.blocks, a.blocks)))


# ---------------------------------------------------------------------------
# stacked layout: every block size gathered from, and scattered to, its
# coordinate rows, whether or not they are one range
# ---------------------------------------------------------------------------

def _groups(s: AlgebraShape) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(m, the blocks of size m, their coordinate rows) for each block size of s."""
    sizes = np.array(s.blocks)
    n = np.repeat(sizes, sizes * sizes)
    return [(m, np.flatnonzero(sizes == m), np.flatnonzero(n == m))
            for m in dict.fromkeys(s.blocks)]


def stacks(s: AlgebraShape, v: np.ndarray) -> list[np.ndarray]:
    return [v[..., rows].reshape(v.shape[:-1] + (len(ids), m, m)) for m, ids, rows in _groups(s)]


def join(s: AlgebraShape, xs: list[np.ndarray]) -> np.ndarray:
    lead = xs[0].shape[:-3]
    v = np.empty(lead + (s.coord_dim,), dtype=complex)
    for (_, _, rows), x in zip(_groups(s), xs):
        v[..., rows] = x.reshape(lead + (-1,))
    return v


def stacked_mul(s: AlgebraShape, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return join(s, [x @ y for x, y in zip(stacks(s, u), stacks(s, v))])


def stacked_trace(a: AlgElement) -> complex:
    """np.trace of every block-size stack, the block traces summed in block order from 0."""
    per_block = np.zeros(len(a.shape.blocks) + 1, dtype=complex)
    for (_, ids, _), x in zip(_groups(a.shape), stacks(a.shape, alg.vec(a))):
        per_block[ids + 1] = np.trace(x, axis1=-2, axis2=-1)
    return complex(np.cumsum(per_block)[-1])


# ---------------------------------------------------------------------------
# sampled checks: one random element per trial
# ---------------------------------------------------------------------------

def _sampled_check(f, prop, trials, seed, tol, violation) -> PropertyReport:
    rng = np.random.default_rng(seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for t in range(trials):
        b = random_element(f.domain, rng)
        bad = violation(b)
        if bad is not None:
            return _report(
                prop, False, tol.psd, witness={"trial": t, "input": b, **bad},
                detail=f"violation found at trial {t}",
            )
    return _report(prop, True, tol.psd, detail=f"{trials} trials", sampled=True)


def is_positive_sampled(f: Channel, trials: int = 64, seed: int = 0,
                        tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    def violation(b):
        arg = mul(adjoint(b), b)
        out = apply(f, arg)
        scale = tol.scale(alg.norm(out))
        if not alg.is_self_adjoint_elem(out, tol):
            return {"reason": "image of a positive element is not self-adjoint"}
        low = alg.min_eig(out)
        if low < -tol.psd * scale:
            return {"reason": "negative eigenvalue", "min_eigenvalue": low}
        return None

    return _sampled_check(f, "positive", trials, seed, tol, violation)


def is_schwarz_sampled(f: Channel, trials: int = 64, seed: int = 0,
                       tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    unit_norm = alg.norm(apply(f, unit(f.domain)))

    def violation(b):
        fb = apply(f, b)
        gap = sub(apply(f, mul(adjoint(b), b)), scale(unit_norm, mul(adjoint(fb), fb)))
        bound = tol.scale(alg.norm(gap))
        if not alg.is_self_adjoint_elem(gap, tol):
            return {"reason": "Schwarz gap is not self-adjoint"}
        low = alg.min_eig(gap)
        if low < -tol.psd * bound:
            return {"reason": "Schwarz inequality violated", "min_eigenvalue": low}
        return None

    return _sampled_check(f, "schwarz", trials, seed, tol, violation)


# ---------------------------------------------------------------------------
# element norms, comparisons and spectra: one call per block
# ---------------------------------------------------------------------------

def unit(s: AlgebraShape) -> AlgElement:
    return AlgElement(s, tuple(np.eye(n, dtype=complex) for n in s.blocks))


def norm(a: AlgElement) -> float:
    return max(op_norm(b) for b in a.blocks)


def elem_equal(a: AlgElement, b: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = tol.scale(max(norm(a), norm(b)))
    dev = max(np.max(np.abs(x - y)) for x, y in zip(a.blocks, b.blocks))
    return bool(dev <= tol.eq * scale)


def min_eig(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> float:
    return float(min(herm_eig(0.5 * (b + b.conj().T), tol)[0][-1] for b in a.blocks))


def is_positive_elem(a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = tol.scale(norm(a))
    dev = max(np.max(np.abs(b - b.conj().T)) for b in a.blocks)
    if dev > tol.herm * scale:
        raise NotSelfAdjoint("element is not self-adjoint within tolerance")
    for b in a.blocks:
        w, _ = herm_eig(0.5 * (b + b.conj().T), tol)
        if w[-1] < -tol.psd * scale:
            return False
    return True


def spectrum(density: AlgElement, tol: Tolerance = DEFAULT_TOL):
    """(values, vectors, keep) per block, values descending, one cutoff for all blocks."""
    eigs = [herm_eig(0.5 * (b + b.conj().T), tol) for b in density.blocks]
    lam_max = max(w[0] for w, _ in eigs)
    cutoff = tol.rank * max(lam_max, 0.0)
    return (tuple(w for w, _ in eigs), tuple(u for _, u in eigs),
            tuple(w > cutoff for w, _ in eigs))


def spectral_function(density: AlgElement, values, tol: Tolerance = DEFAULT_TOL) -> AlgElement:
    """sum_i f(w_i) u_i u_i* per block, with values(w, keep) giving f(w)."""
    ws, us, keeps = spectrum(density, tol)
    return AlgElement(density.shape, tuple(
        (u * values(w, k)) @ u.conj().T for w, u, k in zip(ws, us, keeps)))


def pullback_density(omega: State, f: Channel, tol: Tolerance = DEFAULT_TOL):
    """`pullback_state` as (density, (values, vectors, keep)), or PullbackNotPSD."""
    sigma = apply(hs_adjoint(f), omega.density)
    sym = 0.5 * (sigma + alg.adjoint(sigma))
    dev = norm(sigma - alg.adjoint(sigma))
    if dev > 2 * tol.herm * tol.scale(norm(sigma)):
        raise PullbackNotPSD(f"pullback density has anti-self-adjoint part {dev:.3e}")
    if min_eig(sym, tol) < -tol.psd * tol.scale(norm(sym)):
        raise PullbackNotPSD("pullback density has a negative eigenvalue")
    tr = alg.trace(sym)
    if abs(tr - 1.0) > tol.eq * tol.scale(abs(tr)):
        raise PullbackNotPSD(f"pullback density has trace {tr}, expected 1")
    return sym, spectrum(sym, tol)


def state_error(rho: AlgElement, tol: Tolerance = DEFAULT_TOL):
    """What `state_from_density` raises, as (type, message), or (None, None): the
    positivity test of is_positive_elem, then the trace."""
    try:
        if not is_positive_elem(rho, tol):
            return ValueError, "density is not positive semidefinite within tolerance"
    except NotSelfAdjoint as exc:
        return NotSelfAdjoint, str(exc)
    tr = alg.trace(rho)
    if abs(tr - 1.0) > tol.eq * tol.scale(abs(tr)):
        return ValueError, f"density trace {tr} is not 1 within tolerance"
    return None, None


def is_unital(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    img = apply(f, unit(f.domain))
    if elem_equal(img, unit(f.codomain), tol):
        return _report("unital", True, tol.eq)
    return _report("unital", False, tol.eq, witness={"image_of_unit": img},
                   detail="F(1) differs from 1")


# ---------------------------------------------------------------------------
# classical kernels: one Python step per entry, one branch per mode
# ---------------------------------------------------------------------------

def _classical_is_zero(v, exact: bool, tol: Tolerance) -> bool:
    return v == 0 if exact else abs(v) <= tol.eq


def _classical_parse(rows):
    """Entries as Fractions when every input is rational, else floats (rectangular rows)."""
    vals, exact = [], True
    for row in rows:
        out = []
        for v in row:
            x, ok = _parse_entry(v)
            exact = exact and ok
            out.append(x)
        vals.append(out)
    if exact:
        arr = np.empty((len(vals), len(vals[0]) if vals else 0), dtype=object)
        for i, row in enumerate(vals):
            for j, v in enumerate(row):
                arr[i, j] = v
        return arr, True
    return np.array([[float(v) for v in row] for row in vals], dtype=float), False


def classical_stochastic(rows, tol: Tolerance = DEFAULT_TOL):
    arr, exact = _classical_parse(rows)
    for x in range(arr.shape[1]):
        col = arr[:, x]
        if any((v < 0) if exact else (v < -tol.eq) for v in col):
            raise ValueError(f"negative probability in column {x}")
        total = sum(col)
        ok = total == 1 if exact else abs(total - 1.0) <= tol.eq * max(1.0, abs(total))
        if not ok:
            raise ValueError(f"column {x} sums to {total}, expected 1")
    return StochasticMatrix(arr, exact)


def classical_prob_vector(values, tol: Tolerance = DEFAULT_TOL):
    arr, exact = _classical_parse([list(values)])
    vec = arr[0]
    if any((v < 0) if exact else (v < -tol.eq) for v in vec):
        raise ValueError("negative probability entry")
    total = sum(vec)
    ok = total == 1 if exact else abs(total - 1.0) <= tol.eq * max(1.0, abs(total))
    if not ok:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return ProbVector(vec.copy(), exact)


def classical_is_deterministic(f, tol: Tolerance = DEFAULT_TOL) -> bool:
    for x in range(f.n_cols):
        for v in f.entries[:, x]:
            near01 = v in (0, 1) if f.exact else min(abs(v), abs(v - 1)) <= tol.eq
            if not near01:
                return False
    return True


def classical_nullset(p, tol: Tolerance = DEFAULT_TOL) -> list[int]:
    return [x for x, v in enumerate(p.entries) if _classical_is_zero(v, p.exact, tol)]


def classical_compose(g, f):
    if g.exact and f.exact:
        out = np.empty((g.n_rows, f.n_cols), dtype=object)
        for z in range(g.n_rows):
            for x in range(f.n_cols):
                out[z, x] = sum((g.entries[z, y] * f.entries[y, x] for y in range(f.n_rows)),
                                Fraction(0))
        return StochasticMatrix(out, True)
    ge = np.asarray(g.entries, dtype=float)
    fe = np.asarray(f.entries, dtype=float)
    return StochasticMatrix(ge @ fe, False)


def classical_product(f, f2):
    if f.exact and f2.exact:
        out = np.empty((f.n_rows * f2.n_rows, f.n_cols * f2.n_cols), dtype=object)
        for y in range(f.n_rows):
            for y2 in range(f2.n_rows):
                for x in range(f.n_cols):
                    for x2 in range(f2.n_cols):
                        out[y * f2.n_rows + y2, x * f2.n_cols + x2] = (
                            f.entries[y, x] * f2.entries[y2, x2]
                        )
        return StochasticMatrix(out, True)
    return StochasticMatrix(
        np.kron(np.asarray(f.entries, dtype=float), np.asarray(f2.entries, dtype=float)),
        False,
    )


def classical_push(f, p):
    if f.exact and p.exact:
        vals = [sum((f.entries[y, x] * p.entries[x] for x in range(p.size)), Fraction(0))
                for y in range(f.n_rows)]
        out = np.empty(len(vals), dtype=object)
        for i, v in enumerate(vals):
            out[i] = v
        return ProbVector(out, True)
    fe = np.asarray(f.entries, dtype=float)
    pe = np.asarray(p.entries, dtype=float)
    return ProbVector(fe @ pe, False)


def classical_bayes_inverse(f, p, tol: Tolerance = DEFAULT_TOL):
    q = classical_push(f, p)
    n_x = p.size
    exact = f.exact and p.exact
    uniform = Fraction(1, n_x) if exact else 1.0 / n_x
    out = np.empty((n_x, f.n_rows), dtype=object if exact else float)
    for y in range(f.n_rows):
        if _classical_is_zero(q.entries[y], q.exact, tol):
            for x in range(n_x):
                out[x, y] = uniform
        else:
            for x in range(n_x):
                out[x, y] = f.entries[y, x] * p.entries[x] / q.entries[y]
    return StochasticMatrix(out, exact)


def classical_ae_equal(f, h, p, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    null = set(classical_nullset(p, tol))
    for x in range(f.n_cols):
        if x in null:
            continue
        for y in range(f.n_rows):
            d = f.entries[y, x] - h.entries[y, x]
            if not _classical_is_zero(d, f.exact and h.exact, tol):
                return _report(
                    "classical-ae-equal", False, tol.eq,
                    witness={"point": x, "outcome": y},
                    detail=f"columns differ at supported point {x}",
                )
    return _report("classical-ae-equal", True, tol.eq)


def classical_is_ae_deterministic(f, p, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    null = set(classical_nullset(p, tol))
    for x in range(f.n_cols):
        if x in null:
            continue
        for y in range(f.n_rows):
            v = f.entries[y, x]
            near01 = v in (0, 1) if f.exact else min(abs(v), abs(v - 1.0)) <= tol.eq
            if not near01:
                return _report(
                    "classical-ae-deterministic", False, tol.eq,
                    witness={"point": x, "outcome": y, "value": float(v)},
                    detail=f"column {x} is supported but not an indicator",
                )
    return _report("classical-ae-deterministic", True, tol.eq)


# ---------------------------------------------------------------------------
# corpus counterexamples: one pair, or triple, of matrix units per step
# ---------------------------------------------------------------------------

def strict_positivity_violations(f: Channel, g: Channel, p: AlgElement):
    """(max, first maximizing (a, b), max of the mirror) of ||P (G(E_a F(E_b)) - G(E_a)
    G(F(E_b)))|| and ||P (G(F(E_b) E_a) - G(F(E_b)) G(E_a))||, a-major."""
    worst_direct, worst_mirror = 0.0, 0.0
    direct_witness = None
    for a, a_unit in enumerate(alg.matrix_units(f.codomain)):
        ga = apply(g, a_unit)
        for b, b_unit in enumerate(alg.matrix_units(f.domain)):
            fb = apply(f, b_unit)
            gfb = apply(g, fb)
            direct = alg.norm(alg.mul(p, apply(g, alg.mul(a_unit, fb)) - alg.mul(ga, gfb)))
            mirror = alg.norm(alg.mul(p, apply(g, alg.mul(fb, a_unit)) - alg.mul(gfb, ga)))
            if direct > worst_direct:
                worst_direct, direct_witness = direct, (a, b)
            worst_mirror = max(worst_mirror, mirror)
    return worst_direct, direct_witness, worst_mirror


def causality_violations(h: Channel, k: Channel, g: Channel, proj: np.ndarray):
    """(max of the hypothesis, max of the conclusion, its first maximizing (c, a, b)) of
    |tr(P G(E_a H(E_b))) - tr(P G(E_a K(E_b)))| and, with E_c inserted,
    |tr(P E_c G(E_a H(E_b))) - tr(P E_c G(E_a K(E_b)))|, in (b, a, c) order."""
    def f_scalar(a: AlgElement) -> complex:
        return complex(np.trace(proj @ a.blocks[0]))

    worst_hyp, worst_conc = 0.0, 0.0
    conc_witness = None
    for b, b_unit in enumerate(alg.matrix_units(h.domain)):
        hb, kb = apply(h, b_unit), apply(k, b_unit)
        for a, a_unit in enumerate(alg.matrix_units(g.domain)):
            lhs = f_scalar(apply(g, alg.mul(a_unit, hb)))
            rhs = f_scalar(apply(g, alg.mul(a_unit, kb)))
            worst_hyp = max(worst_hyp, abs(lhs - rhs))
            for c, c_unit in enumerate(alg.matrix_units(g.domain)):
                lhs2 = f_scalar(alg.mul(c_unit, apply(g, alg.mul(a_unit, hb))))
                rhs2 = f_scalar(alg.mul(c_unit, apply(g, alg.mul(a_unit, kb))))
                if abs(lhs2 - rhs2) > worst_conc:
                    worst_conc = abs(lhs2 - rhs2)
                    conc_witness = (c, a, b)
    return worst_hyp, worst_conc, conc_witness


def epr_system() -> tuple[np.ndarray, np.ndarray]:
    """The coefficients and right-hand side of the joint-state equation of the EPR
    density, one trace per entry: 0.5 tr(A E_out) and tr(rho (A (x) B)) for every pair
    of units (A, B) of M_2 and every output unit E_out."""
    rho = 0.5 * np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
    )
    units = [e.blocks[0] for e in alg.matrix_units(AlgebraShape((2,)))]
    rows, rhs = [], []
    for a_mat in units:
        for bi, b_mat in enumerate(units):
            row = np.zeros(16, dtype=complex)
            for out_idx in range(4):
                i, j = divmod(out_idx, 2)
                basis_out = np.zeros((2, 2), dtype=complex)
                basis_out[i, j] = 1.0
                row[out_idx * 4 + bi] = 0.5 * np.trace(a_mat @ basis_out)
            rows.append(row)
            rhs.append(np.trace(rho @ np.kron(a_mat, b_mat)))
    return np.stack(rows), np.array(rhs)


def kl_reports(pairs, n_states: int = 8, seed: int = 0) -> list[list[PropertyReport]]:
    """`corpus._kl_reports` one state at a time: per pair (F, G), a generator from the
    seed and, per state, `state_from_density` of one `random_density` draw,
    `pullback_state` along F and `verify_disintegration` of (G, omega o F, F)."""
    out = []
    for f, g in pairs:
        rng = np.random.default_rng(seed)
        row = []
        for _ in range(n_states):
            omega = state_from_density(alg.random_density(AlgebraShape((2,)), rng))
            row.append(bayes.verify_disintegration(g, pullback_state(omega, f), f))
        out.append(row)
    return out


def kl_sampled_checks(gammas, n_states: int = 8, seed: int = 0) -> list:
    """The sampled-states check of the knill-laflamme fixture at every strength, from the
    channels of `corpus.kl_channels` and the reports of `kl_reports`."""
    pairs = [corpus.kl_channels(gamma)[2:] for gamma in gammas]
    return [corpus.CheckResult(
                f"error disintegrates recovery for {n_states} sampled states (gamma={gamma})",
                all(r.passed for r in row))
            for gamma, row in zip(gammas, kl_reports(pairs, n_states, seed))]


# ---------------------------------------------------------------------------
# the maps of the corpus fixtures and props suites: one callback per matrix unit
# ---------------------------------------------------------------------------

def compression(v: np.ndarray) -> Channel:
    """X |-> V* X V from M_m to M_n, for the isometry V of shape (m, n)."""
    m, n = v.shape

    def down_act(x: AlgElement) -> AlgElement:
        return AlgElement(AlgebraShape((n,)), (v.conj().T @ x.blocks[0] @ v,))

    return channel_from_action(AlgebraShape((m,)), AlgebraShape((n,)), down_act)


def compression_pair(n: int, m: int, rng: np.random.Generator) -> tuple[Channel, Channel]:
    """(down, up) of a random isometry V: X |-> V* X V, and C |-> V C V* + tr(C)/n (1 - V V*)."""
    gin = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    v, _ = np.linalg.qr(gin)
    proj = v @ v.conj().T
    dom_small, dom_big = AlgebraShape((n,)), AlgebraShape((m,))

    def up_act(c: AlgElement) -> AlgElement:
        avg = np.trace(c.blocks[0]) / n
        return AlgElement(dom_big, (v @ c.blocks[0] @ v.conj().T + avg * (np.eye(m) - proj),))

    return compression(v), channel_from_action(dom_small, dom_big, up_act)


def padded_inclusion(n: int, m: int) -> Channel:
    """B |-> diag(B, tr(B)/n 1) from M_n to M_m."""
    dom, cod = AlgebraShape((n,)), AlgebraShape((m,))

    def act(b: AlgElement) -> AlgElement:
        out = np.zeros((m, m), dtype=complex)
        out[:n, :n] = b.blocks[0]
        avg = np.trace(b.blocks[0]) / n
        for k in range(n, m):
            out[k, k] = avg
        return AlgElement(cod, (out,))

    return channel_from_action(dom, cod, act)


def padded_block(n: int, k: int) -> tuple[Channel, Channel]:
    """B |-> (B, tr(B)/n 1_k) from M_n to M_n + M_k, and (A, D) |-> A back."""
    dom, cod = AlgebraShape((n,)), AlgebraShape((n, k))

    def f_act(b: AlgElement) -> AlgElement:
        avg = np.trace(b.blocks[0]) / n
        return AlgElement(cod, (b.block(0), avg * np.eye(k, dtype=complex)))

    def g_act(a: AlgElement) -> AlgElement:
        return AlgElement(dom, (a.block(0),))

    return channel_from_action(dom, cod, f_act), channel_from_action(cod, dom, g_act)


def doubling_embedding() -> Channel:
    """B |-> diag(B, B) from M_2 to M_4."""
    m4 = AlgebraShape((4,))

    def act(b: AlgElement) -> AlgElement:
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = b.blocks[0]
        out[2:, 2:] = b.blocks[0]
        return AlgElement(m4, (out,))

    return channel_from_action(AlgebraShape((2,)), m4, act)


def corner_compression() -> Channel:
    """A |-> the upper left 3x3 corner of A, from M_4 to M_3."""
    m3 = AlgebraShape((3,))
    return channel_from_action(AlgebraShape((4,)), m3,
                               lambda a: AlgElement(m3, (a.block(0)[:3, :3],)))


def epr_spin_flip() -> Channel:
    """B |-> J B^T J* on M_2, J = [[0, 1], [-1, 0]], written out entry by entry."""
    m2 = AlgebraShape((2,))
    return channel_from_action(m2, m2, lambda a: AlgElement(m2, (np.array(
        [[a.blocks[0][1, 1], -a.blocks[0][0, 1]],
         [-a.blocks[0][1, 0], a.blocks[0][0, 0]]]),)))


def masked(f: Channel, bump: Channel, comp: AlgElement) -> Channel:
    """b |-> F(b) + C bump(b) C: F changed only on the corner C."""
    def act(b: AlgElement) -> AlgElement:
        return apply(f, b) + alg.mul(alg.mul(comp, apply(bump, b)), comp)

    return channel_from_action(f.domain, f.codomain, act)


# ---------------------------------------------------------------------------
# props suites: one trial, and one matrix unit, per step
# ---------------------------------------------------------------------------

def unit_laws(shapes) -> bool:
    """1 E = E 1 = E, one matrix unit E of each shape at a time."""
    ok = True
    for s in shapes:
        one = alg.unit(s)
        for e in alg.matrix_units(s):
            ok = ok and alg.elem_equal(alg.mul(one, e), e)
            ok = ok and alg.elem_equal(alg.mul(e, one), e)
    return ok


def algebra_laws(shapes, rng: np.random.Generator, trials: int) -> tuple[bool, bool, bool]:
    """(associativity, involution reversing products, tensor multiplicativity), one
    trial at a time: a shape and three elements, then a shape and two elements."""
    assoc_ok, star_ok, tensor_ok = True, True, True
    for _ in range(trials):
        s = shapes[int(rng.integers(0, len(shapes)))]
        a, b, c = (alg.random_element(s, rng) for _ in range(3))
        assoc_ok = assoc_ok and alg.elem_equal(alg.mul(alg.mul(a, b), c),
                                               alg.mul(a, alg.mul(b, c)))
        star_ok = star_ok and alg.elem_equal(alg.adjoint(alg.mul(a, b)),
                                             alg.mul(alg.adjoint(b), alg.adjoint(a)))
        s2 = shapes[int(rng.integers(0, len(shapes)))]
        a2, b2 = alg.random_element(s2, rng), alg.random_element(s2, rng)
        tensor_ok = tensor_ok and alg.elem_equal(
            alg.mul(alg.tensor_elem(a, a2), alg.tensor_elem(b, b2)),
            alg.tensor_elem(alg.mul(a, b), alg.mul(a2, b2)))
    return assoc_ok, star_ok, tensor_ok


def weakly_multiplicative(f: Channel, p: AlgElement, rng: np.random.Generator,
                          trials: int) -> bool:
    """F(b* b) P = F(b)* F(b) P, one random b at a time, up to the first failure."""
    for _ in range(trials):
        b = alg.random_element(f.domain, rng)
        fb = apply(f, b)
        if not alg.elem_equal(alg.mul(apply(f, alg.mul(alg.adjoint(b), b)), p),
                              alg.mul(alg.mul(alg.adjoint(fb), fb), p)):
            return False
    return True


def random_star_preserving(s: AlgebraShape, t: AlgebraShape, rng: np.random.Generator) -> Channel:
    """b |-> (F(b) + F(b*)*) / 2 of a random map F, applied to every matrix unit."""
    raw = rng.standard_normal((t.coord_dim, s.coord_dim)) + 1j * rng.standard_normal(
        (t.coord_dim, s.coord_dim)
    )
    f = Channel(s, t, raw)

    def sym(b: AlgElement) -> AlgElement:
        return 0.5 * (apply(f, b) + alg.adjoint(apply(f, alg.adjoint(b))))

    return channel_from_action(s, t, sym)


def minimal_supports(rng: np.random.Generator, trials: int) -> bool:
    """Q P = P and omega((1 - P) a) = 0 for the support P of a compressed random
    density, one trial at a time; a compression with no weight leaves the draw."""
    tol, ok = DEFAULT_TOL, True
    for _ in range(trials):
        s = props._STATE_SHAPES[int(rng.integers(0, len(props._STATE_SHAPES)))]
        rho = alg.random_density(s, rng)
        proj = props._random_projection(s, rng)
        compressed = alg.mul(alg.mul(proj, rho), proj)
        tr = alg.trace(compressed).real
        if tr <= tol.eq:
            continue
        omega = state_from_density(compressed * (1.0 / tr))
        p = omega.support
        ok = ok and alg.elem_equal(alg.mul(proj, p), p)
        comp = alg.unit(s) - p
        a = alg.random_element(s, rng)
        ok = ok and abs(omega.expect(alg.mul(comp, a))) <= tol.eq * tol.scale(alg.norm(a))
    return ok


def nullspace_trials(rng: np.random.Generator, trials: int) -> bool:
    """omega(a* a) = 0 and a in the right nullspace for a = m (1 - P), one trial at a time."""
    tol, ok = DEFAULT_TOL, True
    for _ in range(trials):
        s = props._STATE_SHAPES[int(rng.integers(0, len(props._STATE_SHAPES)))]
        omega = state_from_density(alg.random_density(s, rng))
        p = omega.support
        comp = alg.unit(s) - p
        m = alg.random_element(s, rng)
        a = alg.mul(m, comp)
        val = omega.expect(alg.mul(alg.adjoint(a), a))
        ok = ok and abs(val) <= tol.eq * tol.scale(alg.norm(a) ** 2)
        ok = ok and NullspaceTest("right", omega).contains(a)
    return ok


def ae_trials(rng: np.random.Generator, trials: int) -> np.ndarray:
    """The four a.e. verdicts of every trial of the `state-ae` suite, drawn and
    decided one trial at a time by the verifiers."""
    s, t = AlgebraShape((2,)), AlgebraShape((3,))
    out = []
    for _ in range(trials):
        f = props._random_star_preserving(s, t, rng)
        omega = props.random_rank_deficient_state(t, rng)
        if int(rng.integers(0, 2)):
            comp = alg.unit(t) - omega.support
            bump = props._random_star_preserving(s, t, rng)
            g = Channel(s, t, f.matrix + compose(props.conjugation_by(comp), bump).matrix)
        else:
            g = props._random_star_preserving(s, t, rng)
        out.append([state.ae_equal(f, g, omega, "left").passed,
                    state.ae_equal(f, g, omega, "right").passed,
                    state.ae_deterministic(f, omega, "left").passed,
                    state.ae_deterministic(f, omega, "right").passed])
    return np.array(out, dtype=bool).reshape(-1, 4)


def random_cpu_channel(n_dom: int, n_cod: int, rng: np.random.Generator) -> Channel:
    """A random CPU map M_n_dom ~> M_n_cod: one QR of its own draw, whose blocks of
    n_dom rows are the Kraus operators of one `kraus_channel` call."""
    n_kraus = max(2, -(-n_cod // n_dom) + 1)
    gin = rng.standard_normal((n_kraus * n_dom, n_cod)) + 1j * rng.standard_normal(
        (n_kraus * n_dom, n_cod))
    iso, _ = np.linalg.qr(gin)
    ops = [iso[i * n_dom:(i + 1) * n_dom, :] for i in range(n_kraus)]
    return ch.kraus_channel(AlgebraShape((n_dom,)), AlgebraShape((n_cod,)), ops)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random unitary from one QR of its own draw, its columns times the phases of R."""
    gin = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(gin)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_projection(n: int, rng: np.random.Generator) -> np.ndarray:
    """The projection onto the first `keep` columns of a random unitary of M_n, keep
    drawn first: one matrix product per call."""
    keep = int(rng.integers(1, n + 1))
    cols = random_unitary(n, rng)[:, :keep]
    return cols @ cols.conj().T


def random_density(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """b* b / tr(b* b) for a random b, by the element operations of one call."""
    b = alg.random_element(s, rng)
    p = alg.mul(alg.adjoint(b), b)
    return p * (1.0 / alg.trace(p).real)


def adjoint_laws(rng: np.random.Generator, trials: int) -> tuple[bool, bool]:
    """(adjoint involutive and dual to the pairing, adjoint reverses composition) of the
    `channel` suite, one trial at a time: F, G, a and b drawn, then every law decided."""
    tol = DEFAULT_TOL
    adj_ok, contra_ok = True, True
    for _ in range(trials):
        f = random_cpu_channel(2, 3, rng)
        g = random_cpu_channel(3, 2, rng)
        adj_ok = adj_ok and corpus._same_map(hs_adjoint(hs_adjoint(f)), f)
        contra_ok = contra_ok and corpus._same_map(hs_adjoint(compose(f, g)),
                                                   compose(hs_adjoint(g), hs_adjoint(f)))
        a = alg.random_self_adjoint(f.codomain, rng)
        b = alg.random_element(f.domain, rng)
        pairing_gap = abs(
            alg.trace(alg.mul(alg.adjoint(a), apply(f, b)))
            - alg.trace(alg.mul(alg.adjoint(apply(hs_adjoint(f), a)), b))
        )
        scale = np.linalg.norm(alg.vec(a)) * np.linalg.norm(f.matrix) * np.linalg.norm(alg.vec(b))
        adj_ok = adj_ok and pairing_gap <= tol.eq * tol.scale(scale)
    return adj_ok, contra_ok


def cp_closure(rng: np.random.Generator, trials: int) -> bool:
    """Whether F o G and F (x) G are CP, one pair of random CPU maps at a time."""
    ok = True
    for _ in range(trials):
        f = random_cpu_channel(2, 3, rng)
        g = random_cpu_channel(3, 2, rng)
        ok = ok and ch.is_cp(compose(f, g)).passed and ch.is_cp(ch.tensor(f, g)).passed
    return ok


def multiplicative_domain(rng: np.random.Generator, trials: int) -> tuple[bool, str]:
    """(passed, detail) of the multiplicative-domain laws, one trial at a time, up to
    the first failure: V, c and d drawn, F(b* b) = F(b)* F(b) decided, then x drawn
    and both mixed products decided."""
    n, m = 2, 5
    for _ in range(trials):
        gin = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        v, _ = np.linalg.qr(gin)
        c_small = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d_big = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        comp = np.eye(m) - v @ v.conj().T
        f = ch.ad_channel(v.conj().T)   # X |-> V* X V
        b = AlgElement(AlgebraShape((m,)), (v @ c_small @ v.conj().T + comp @ d_big @ comp,))
        fb = apply(f, b)
        if not alg.elem_equal(apply(f, alg.mul(alg.adjoint(b), b)), alg.mul(alg.adjoint(fb), fb)):
            return False, "constructed element left the multiplicative domain"
        x = alg.random_element(AlgebraShape((m,)), rng)
        fx = apply(f, x)
        if not (alg.elem_equal(apply(f, alg.mul(alg.adjoint(b), x)), alg.mul(alg.adjoint(fb), fx))
                and alg.elem_equal(apply(f, alg.mul(alg.adjoint(x), b)),
                                   alg.mul(alg.adjoint(fx), fb))):
            return False, "two-sided conclusion fails"
    return True, ""


def invertible_conjugations(rng: np.random.Generator, trials: int) -> bool:
    """Whether F^-1 o F = id and F is deterministic, one conjugation by a random unitary
    at a time."""
    ok = True
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        f = ch.conjugation_by(AlgElement(AlgebraShape((n,)), (random_unitary(n, rng),)))
        ok = ok and corpus._same_map(compose(ch.invert(f), f), identity_channel(f.domain))
        ok = ok and ch.is_deterministic(f).passed
    return ok


def compressions_pass(rng: np.random.Generator, trials: int) -> bool:
    """Whether down o up is deterministic and (down, up) satisfies the S-positivity
    equation, one compression pair, built by callbacks, at a time."""
    ok = True
    for _ in range(trials):
        down, up = compression_pair(2, 5, rng)
        ok = ok and ch.is_deterministic(compose(down, up)).passed
        ok = ok and ch.s_positivity_equation(down, up).passed
    return ok


def kron_channel_matrix(ops) -> np.ndarray:
    """sum_i kron(K_i*, K_i^T) by `np.kron`, the matrix of a Heisenberg Kraus channel."""
    n, m = ops[0].shape
    mat = np.zeros((m * m, n * n), dtype=complex)
    for k in ops:
        mat += np.kron(k.conj().T, k.T)
    return mat


def rational_weights(rng: np.random.Generator, n: int, zero_last: bool = False) -> list:
    """n weights drawn in 0..6 as Fractions, normalized by their Fraction sum."""
    weights = [Fraction(int(w), 1) for w in rng.integers(0, 7, size=n)]
    if zero_last:
        weights[-1] = Fraction(0)
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    return [w / total for w in weights]


def random_rational_prob(rng: np.random.Generator, n: int) -> ProbVector:
    """An exact prior of Fraction-sum weights, validated entry by entry."""
    return classical_prob_vector(rational_weights(rng, n))


def random_rational_kernel(rng: np.random.Generator, ny: int, nx: int,
                           zero_row: bool = False) -> StochasticMatrix:
    """An exact kernel of Fraction-sum weight columns, validated entry by entry."""
    cols = [rational_weights(rng, ny, zero_row) for _ in range(nx)]
    return classical_stochastic([[cols[x][y] for x in range(nx)] for y in range(ny)])


# ---------------------------------------------------------------------------
# the bayes suite: one matrix unit, one random element and one trial per step
# ---------------------------------------------------------------------------

def bayes_laws(rng: np.random.Generator, trials: int) -> tuple[bool, bool, bool, bool]:
    """(state preservation, a.e. uniqueness, disintegration, relative conditional
    expectation) of the `bayes` suite: xi(G(E)) = omega(E) one matrix unit E at a time,
    and the four state values of each of four random b, one b at a time."""
    tol, kinds = DEFAULT_TOL, ("unitary", "padded-block", "classical")
    preserve_ok, unique_ok, disint_ok, relexp_ok = True, True, True, True
    for i in range(trials):
        f, omega, g = props.disintegration_instance(kinds[i % 3], rng, max_dim=4)
        prob = bayes.bayes_problem(f, omega)
        xi = prob.pullback
        result = bayes.bayes_candidate(prob)
        if not result.bayes_ok:
            preserve_ok = False
            continue
        for e in alg.matrix_units(f.codomain):
            lhs, rhs = xi.expect(apply(result.candidate, e)), omega.expect(e)
            preserve_ok = preserve_ok and abs(lhs - rhs) <= tol.eq * tol.scale(abs(rhs))
        other = bayes.bayes_candidate(prob, completion=omega)
        unique_ok = unique_ok and state.ae_equal(result.candidate, other.candidate, xi,
                                                 "left").passed
        if state.ae_deterministic(f, omega, "right").passed:
            section = (bayes.verify_disintegration(f, omega, result.candidate)
                       if result.bayes_right.passed else
                       state.ae_equal(compose(result.candidate, f), identity_channel(f.domain),
                                      xi, "left"))
            disint_ok = disint_ok and section.passed
        for _ in range(4):
            b = alg.random_element(f.domain, rng)
            bb = alg.mul(alg.adjoint(b), b)
            gfb = apply(g, apply(f, b))
            vals = (
                xi.expect(bb),
                xi.expect(alg.mul(alg.adjoint(gfb), gfb)),
                xi.expect(apply(g, alg.mul(alg.adjoint(apply(f, b)), apply(f, b)))),
                xi.expect(apply(g, apply(f, bb))),
            )
            relexp_ok = relexp_ok and (
                max(abs(v - vals[0]) for v in vals) <= tol.eq * tol.scale(abs(vals[0])))
    return preserve_ok, unique_ok, disint_ok, relexp_ok


def one_sided(rng: np.random.Generator, rounds: int) -> bool:
    """The one-sided check of the `bayes` suite, its shifted candidate b |-> G(b) +
    (1 - P) X(b) P built by `channel_from_action`, and unitality read off F(1)."""
    ok, saw_deficient = True, False
    for i in range(rounds):
        f, omega, _ = props.disintegration_instance("unitary", rng, max_dim=4)
        if i == rounds - 1 and not saw_deficient:
            omega = props._drop_smallest_eigenvalue(omega)
        prob = bayes.bayes_problem(f, omega)
        xi = prob.pullback
        p_xi = xi.support
        comp = alg.unit(xi.shape) - p_xi
        if alg.norm(comp) <= 0.5:
            continue
        saw_deficient = True
        base = bayes.bayes_candidate(prob).candidate
        bump = props._random_star_preserving(f.codomain, f.domain, rng)

        def shifted(a, base=base, bump=bump, comp=comp, p=p_xi):
            return apply(base, a) + alg.mul(alg.mul(comp, apply(bump, a)), p)

        other = channel_from_action(f.codomain, f.domain, shifted)
        ok = ok and bayes.verify_bayes(f, omega, xi, other, "left").passed
        ok = ok and state.ae_equal(base, other, xi, "left").passed
        ok = ok and not state.ae_equal(base, other, xi, "right").passed
        bare_chan = bayes._candidate(prob, np.zeros(f.codomain.coord_dim))
        ok = ok and bayes.verify_bayes(f, omega, xi, bare_chan, "left").passed
        ok = ok and state.ae_unital(bare_chan, xi, "left").passed
        ok = ok and not alg.elem_equal(apply(bare_chan, alg.unit(f.codomain)),
                                       alg.unit(f.domain))
    return ok and saw_deficient


def schwarz_gaps(rng: np.random.Generator, trials: int) -> bool:
    """The Schwarz-gap check of the `bayes` suite, one trial, and one random d, at a
    time: |xi(G(a* a) - G(a)* G(a))| and |xi(G(a* d) - G(a)* G(d))| against
    tol.eq max(1, ||a||^2) and tol.eq max(1, ||a|| ||d||)."""
    tol, ok = DEFAULT_TOL, True
    for _ in range(trials):
        g_pad = corpus.padded_inclusion(2, 3)
        sigma = alg.random_density(AlgebraShape((2,)), rng).blocks[0]
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = sigma
        xi = state_from_density(AlgElement(AlgebraShape((3,)), (rho,)))
        a = alg.random_element(AlgebraShape((2,)), rng)
        hyp = abs(xi.expect(apply(g_pad, alg.mul(alg.adjoint(a), a))
                            - alg.mul(alg.adjoint(apply(g_pad, a)), apply(g_pad, a))))
        ok = ok and hyp <= tol.eq * tol.scale(alg.norm(a) ** 2)
        for _ in range(4):
            d = alg.random_element(AlgebraShape((2,)), rng)
            gap = abs(xi.expect(apply(g_pad, alg.mul(alg.adjoint(a), d))
                                - alg.mul(alg.adjoint(apply(g_pad, a)), apply(g_pad, d))))
            ok = ok and gap <= tol.eq * tol.scale(alg.norm(a) * alg.norm(d))
    return ok
