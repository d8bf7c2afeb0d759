"""Bayes maps, Bayesian inverses, Petz recovery, and disintegrations.

Construction never asserts success: every constructor is paired with a
verifier, and the verifiers are the source of truth.  Left and right
variants of the Bayes condition are always reported separately because they
genuinely differ for candidates that are not star-preserving.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _grid
from . import algebra as alg
from .algebra import AlgebraShape, AlgElement
from .channel import (
    Channel,
    PropertyReport,
    _report,
    apply,
    channel_from_action,
    compose,
    hs_adjoint,
    identity_channel,
    is_cp,
    is_star_preserving,
    is_unital,
)
from .errors import (
    NonscalarImageBlock,
    NotAeDeterministic,
    NotCommutative,
    PreconditionsUnmet,
    ShapeMismatch,
    SupportNotFull,
)
from .linalg import pinv_psd, sqrt_psd
from .state import State, ae_deterministic, ae_equal, pullback_state
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "BayesProblem",
    "BayesResult",
    "bayes_problem",
    "bayes_candidate",
    "verify_bayes",
    "petz_exists",
    "petz_recovery",
    "verify_disintegration",
    "commutative_disintegration",
    "ModularityReport",
    "modularity_chain",
]


@dataclass(frozen=True)
class BayesProblem:
    """A channel F: B ~> A with a prior on A and its pullback on B."""

    channel: Channel
    prior: State
    pullback: State


def bayes_problem(f: Channel, omega: State, tol: Tolerance = DEFAULT_TOL) -> BayesProblem:
    if omega.shape != f.codomain:
        raise ShapeMismatch("prior must live on the channel codomain")
    return BayesProblem(f, omega, pullback_state(omega, f, tol))


@dataclass
class BayesResult:
    """Candidate inverse channel plus the verdicts that qualify it.

    bayes_ok reflects the defining (left) Bayes condition; the right-handed
    verdict is reported alongside and may differ when the candidate is not
    star-preserving.  cpu_ok requires star-preservation, unitality, and
    complete positivity of the candidate.
    """

    candidate: Channel
    bayes_left: PropertyReport
    bayes_right: PropertyReport
    star: PropertyReport
    unital: PropertyReport
    cp: PropertyReport
    notes: list[str] = field(default_factory=list)

    @property
    def bayes_ok(self) -> bool:
        return self.bayes_left.passed

    @property
    def cpu_ok(self) -> bool:
        return self.star.passed and self.unital.passed and self.cp.passed

    def to_dict(self) -> dict:
        return {
            "bayes_ok": self.bayes_ok,
            "cpu_ok": self.cpu_ok,
            "checks": [
                r.to_dict()
                for r in (self.bayes_left, self.bayes_right, self.star, self.unital, self.cp)
            ],
            "notes": list(self.notes),
        }


def _product_form(state: State) -> np.ndarray:
    """The bilinear form T[i, j] = state(E_i E_j) on canonical basis pairs.

    E_pq E_rs = delta_qr E_ps inside one block, so T is sparse; with it, any
    expression state(X Y) becomes coords(X)^T T coords(Y).
    """
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


def verify_bayes(
    f: Channel,
    omega: State,
    xi: State,
    g: Channel,
    side: str = "left",
    tol: Tolerance = DEFAULT_TOL,
) -> PropertyReport:
    """Check the Bayes condition on all basis pairs.

    Left:  xi(G(A) B) = omega(A F(B));  right:  xi(B G(A)) = omega(F(B) A).
    Both sides are bilinear in (A, B), so matrix units decide them exactly;
    the pair grid is evaluated in closed form from the channel matrices.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShapeMismatch("candidate must run opposite to the channel")
    if omega.shape != f.codomain or xi.shape != f.domain:
        raise ShapeMismatch("states must live on the channel endpoints")
    t_xi = _product_form(xi)
    t_omega = _product_form(omega)
    if side == "left":
        lhs = g.matrix.T @ t_xi          # [a, b] = xi(G(E_a) E_b)
        rhs = t_omega @ f.matrix         # [a, b] = omega(E_a F(E_b))
    else:
        lhs = (t_xi @ g.matrix).T        # [a, b] = xi(E_b G(E_a))
        rhs = (f.matrix.T @ t_omega).T   # [a, b] = omega(F(E_b) E_a)
    dev = np.abs(lhs - rhs)
    bound = tol.eq * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    worst = float(dev.max()) if dev.size else 0.0
    if np.any(dev > bound):
        ia, ib = np.unravel_index(int((dev - bound).argmax()), dev.shape)
        a_units = alg.matrix_units(f.codomain)
        b_units = alg.matrix_units(f.domain)
        return _report(
            f"bayes-{side}", False, tol.eq,
            witness={"a_input": a_units[ia], "b_input": b_units[ib],
                     "lhs": complex(lhs[ia, ib]), "rhs": complex(rhs[ia, ib])},
            detail=f"Bayes condition fails by {dev[ia, ib]:.6g}",
        )
    return _report(f"bayes-{side}", True, tol.eq, detail=f"max deviation {worst:.3g}")


def _trace_state_element(s: AlgebraShape) -> AlgElement:
    """Density of the normalized trace state tr(.) / total_dim."""
    return alg.unit(s) * (1.0 / s.total_dim)


def bayes_candidate(
    prob: BayesProblem,
    tol: Tolerance = DEFAULT_TOL,
    completion: State | None = None,
) -> BayesResult:
    """Construct and verify the canonical Bayes-map candidate.

    On the support of the pullback the candidate is forced:
    P G(A) = pinv(sigma) F*(rho A).  Off the support it is unconstrained; the
    default completion routes through the normalized trace, which keeps the
    candidate unital.  A different completion state may be supplied; any
    completion yields the same left-Bayes verdict.
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    rho, sigma = omega.density, xi.density
    fstar = hs_adjoint(f)
    sigma_pinv = AlgElement(
        sigma.shape, tuple(pinv_psd(b, tol.rank, tol) for b in sigma.blocks)
    )
    p_xi = xi.support
    complement = alg.unit(xi.shape) - p_xi
    if completion is None:
        comp_density = _trace_state_element(omega.shape)
    else:
        if completion.shape != omega.shape:
            raise ShapeMismatch("completion state must live on the prior's algebra")
        comp_density = completion.density

    def act(a: AlgElement) -> AlgElement:
        main = alg.mul(sigma_pinv, apply(fstar, alg.mul(rho, a)))
        weight = complex(
            sum(np.trace(r @ x) for r, x in zip(comp_density.blocks, a.blocks))
        )
        return main + weight * complement

    g = channel_from_action(f.codomain, f.domain, act)
    left = verify_bayes(f, omega, xi, g, "left", tol)
    right = verify_bayes(f, omega, xi, g, "right", tol)
    star = is_star_preserving(g, tol)
    unital = is_unital(g, tol)
    cp = is_cp(g, tol)
    notes = [
        f"{r.prop}: {r.detail or 'witness recorded'}"
        for r in (left, right, star, unital, cp)
        if not r.passed
    ]
    return BayesResult(g, left, right, star, unital, cp, notes)


def petz_exists(prob: BayesProblem, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """Commutation criterion F(sigma B) rho = rho F(B sigma) on basis elements.

    Only stated for full pullback support; raises SupportNotFull otherwise.
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    if not alg.elem_equal(xi.support, alg.unit(xi.shape), tol):
        raise SupportNotFull("pullback state does not have full support")
    rho = _grid.element(omega.density)
    sigma = alg.vec(xi.density)[:, None]

    def operands(r0, r1):
        units = np.arange(r0, r1)
        right = _grid.images(f.codomain, f.matrix @ _grid.times_unit(f.domain, sigma, units))
        left = _grid.images(f.codomain,
                            f.matrix @ _grid.times_unit(f.domain, sigma, units, left=True))
        return [x @ r for x, r in zip(right, rho)], [r @ x for x, r in zip(left, rho)]

    bad = _grid.first_failure(f.codomain, f.domain.coord_dim, 1, operands, tol)
    if bad is not None:
        return _report(
            "petz-exists", False, tol.eq, witness={"input": _grid.unit(f.domain, bad)},
            detail="F(sigma B) rho != rho F(B sigma)",
        )
    return _report("petz-exists", True, tol.eq)


def petz_recovery(prob: BayesProblem, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """The recovery channel Ad_sqrt(pinv sigma) o F* o Ad_sqrt(rho)."""
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    rho, sigma = omega.density, xi.density
    sqrt_rho = AlgElement(rho.shape, tuple(sqrt_psd(b, tol) for b in rho.blocks))
    sqrt_sigma_pinv = AlgElement(
        sigma.shape,
        tuple(sqrt_psd(pinv_psd(b, tol.rank, tol), tol) for b in sigma.blocks),
    )
    fstar = hs_adjoint(f)

    def act(a: AlgElement) -> AlgElement:
        inner = alg.mul(alg.mul(sqrt_rho, a), sqrt_rho)
        mid = apply(fstar, inner)
        return alg.mul(alg.mul(sqrt_sigma_pinv, mid), sqrt_sigma_pinv)

    return channel_from_action(f.codomain, f.domain, act)


def _transposed_coords(a: AlgElement) -> np.ndarray:
    """Coordinates of the blockwise transpose of a: tr(a X) = this . coords(X)."""
    return np.concatenate([b.T.reshape(-1) for b in a.blocks])


def verify_disintegration(
    f: Channel, omega: State, g: Channel, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Check that g disintegrates (f, omega, xi := omega o f).

    (i) state preservation xi(G(A)) = omega(A) on basis elements;
    (ii) G o F almost-everywhere equal (right) to the identity relative to xi.
    """
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShapeMismatch("candidate must run opposite to the channel")
    xi = pullback_state(omega, f, tol)
    # omega(E_ij) = rho_ji, and xi(X) pairs the coordinates of X with those of sigma^T
    lhs = _transposed_coords(xi.density) @ g.matrix
    rhs = _transposed_coords(omega.density)
    dev = np.abs(lhs - rhs)
    fails = dev > tol.eq * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    if fails.any():
        bad = int(fails.argmax())
        return _report(
            "disintegration", False, tol.eq,
            witness={"input": _grid.unit(f.codomain, bad),
                     "lhs": complex(lhs[bad]), "rhs": complex(rhs[bad])},
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


def commutative_disintegration(
    f: Channel, omega: State, tol: Tolerance = DEFAULT_TOL
) -> Channel:
    """Construct a CPU disintegration when the codomain is commutative.

    Each supported point x of the commutative codomain evaluates f through a
    scalar block y(x) of the domain; the classical disintegration formula
    p_x delta_{y, y(x)} / q_y is used on those blocks and everything else is
    routed through the normalized trace.  Verification stays with
    verify_disintegration.
    """
    if not f.codomain.is_commutative:
        raise NotCommutative("disintegration construction requires an all-ones codomain")
    det = ae_deterministic(f, omega, "right", tol)
    if not det.passed:
        raise NotAeDeterministic("channel is not a.e. deterministic for the given state")
    nx = len(f.codomain.blocks)
    dom = f.domain
    p_diag = np.array([omega.density.blocks[x][0, 0].real for x in range(nx)])
    p_supp = np.array([omega.support.blocks[x][0, 0].real > 0.5 for x in range(nx)])
    # evaluation of f at x on the unit of each domain block
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


@dataclass
class ModularityReport:
    """Consequences of a verified CPU disintegration, with violation flags."""

    disintegration: PropertyReport
    bayes: PropertyReport
    ae_det: PropertyReport
    violations: list[str]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checks": [r.to_dict() for r in (self.disintegration, self.bayes, self.ae_det)],
            "violations": list(self.violations),
        }


def modularity_chain(
    f: Channel, omega: State, g: Channel, tol: Tolerance = DEFAULT_TOL
) -> ModularityReport:
    """Assert the two consequences that hold for every CPU disintegration.

    Preconditions (checked): g disintegrates (f, omega) and both maps are
    CPU.  Consequences: g is a left Bayes map and f is right a.e.
    deterministic.  Any consequence failing on a conforming instance is
    reported as a violation, which the test suite treats as an alarm.
    """
    disint = verify_disintegration(f, omega, g, tol)
    if not disint.passed:
        raise PreconditionsUnmet("candidate does not pass verify_disintegration")
    for name, ch in (("channel", f), ("candidate", g)):
        for check in (is_star_preserving, is_unital, is_cp):
            rep = check(ch, tol)
            if not rep.passed:
                raise PreconditionsUnmet(f"{name} is not CPU: {rep.prop} fails")
    xi = pullback_state(omega, f, tol)
    bayes = verify_bayes(f, omega, xi, g, "left", tol)
    det = ae_deterministic(f, omega, "right", tol)
    violations = []
    if not bayes.passed:
        violations.append("CPU disintegration is not a left Bayes map")
    if not det.passed:
        violations.append("disintegrated CPU channel is not right a.e. deterministic")
    return ModularityReport(disint, bayes, det, violations)
