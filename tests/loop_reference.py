"""Loop implementations of the exact checks and constructions, kept as a slow oracle.

These are the straightforward versions of what the library computes in
closed form: the checks visit every matrix unit, or every pair of matrix
units, and decide each comparison with `elem_equal` or an operator-norm test
on the support; the constructions apply a callback to every matrix unit, and
`is_cp` decides the full Choi matrix of each domain block; the classical
kernel operations visit every entry, with one branch for Fractions and one
for floats; the dense-matrix primitives call LAPACK once per matrix, with
their own Hermiticity test, PSD test and rank cutoff; the element operations
build an element block by block, and the sampled checks draw and decide one
random element per trial.  The differential tests run both and require the
same verdicts, witnesses and matrices.
"""
from __future__ import annotations

from fractions import Fraction

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
    NoConvergence,
    NonscalarImageBlock,
    NotCommutative,
    NotPSD,
    NotSelfAdjoint,
    PullbackNotPSD,
    ShapeMismatch,
    SupportNotFull,
)
from qmarkov.finstoch import ProbVector, StochasticMatrix, _parse_entry
from qmarkov.state import State, pullback_state
from qmarkov.tolerances import DEFAULT_TOL, Tolerance


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
    try:
        w, u = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
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
