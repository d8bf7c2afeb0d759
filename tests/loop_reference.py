"""Loop implementations of the exact checks and constructions, kept as a slow oracle.

These are the straightforward versions of what the library computes in
closed form: the checks visit every matrix unit, or every pair of matrix
units, and decide each comparison with `elem_equal` or an operator-norm test
on the support; the constructions apply a callback to every matrix unit, and
`is_cp` decides the full Choi matrix of each domain block.  The differential
tests run both and require the same verdicts, witnesses and matrices.
"""
from __future__ import annotations

import numpy as np

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
    NonscalarImageBlock,
    NotCommutative,
    NotSelfAdjoint,
    PullbackNotPSD,
    ShapeMismatch,
    SupportNotFull,
)
from qmarkov.linalg import herm_eig, op_norm
from qmarkov.state import State, pullback_state
from qmarkov.tolerances import DEFAULT_TOL, Tolerance


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
    idx_f = {lab: i for i, lab in enumerate(alg._basis_labels(f.domain))}
    idx_g = {lab: i for i, lab in enumerate(alg._basis_labels(g.domain))}
    for x, m in enumerate(f.domain.blocks):
        for y, n in enumerate(g.domain.blocks):
            for i in range(m):
                for p in range(n):
                    for j in range(m):
                        for q in range(n):
                            fa = f_units[idx_f[(x, i, j)]]
                            gb = g_units[idx_g[(y, p, q)]]
                            mat[:, col] = alg.vec(alg.tensor_elem(fa, gb))
                            col += 1
    return Channel(dom, cod, mat)


def choi(f: Channel) -> list[np.ndarray]:
    out = []
    ncod = f.codomain.total_dim
    for y, n in enumerate(f.domain.blocks):
        c = np.zeros((n * ncod, n * ncod), dtype=complex)
        for i in range(n):
            for j in range(n):
                e = alg.zero(f.domain)
                e.blocks[y][i, j] = 1.0
                img = alg.block_embed(apply(f, e))
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
        e = alg.zero(dom)
        np.fill_diagonal(e.blocks[y], 1.0)
        unit_images.append(apply(f, e))
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


def is_unital(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    img = apply(f, unit(f.domain))
    if elem_equal(img, unit(f.codomain), tol):
        return _report("unital", True, tol.eq)
    return _report("unital", False, tol.eq, witness={"image_of_unit": img},
                   detail="F(1) differs from 1")
