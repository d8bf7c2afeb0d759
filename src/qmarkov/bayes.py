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
from .algebra import AlgElement
from .channel import (
    Channel,
    PropertyReport,
    _report,
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

    E_i E_j is the unit product_index[i, j] or 0, so T is a gather of the
    state's values on units; with it, any expression state(X Y) becomes
    coords(X)^T T coords(Y).
    """
    values = np.append(_transposed_coords(state.density), 0.0)   # entry coord_dim is 0
    return values[alg.product_index(state.shape)]


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
    return _bayes_report(f, g, _product_form(xi), _product_form(omega), side, tol)


def _bayes_report(
    f: Channel, g: Channel, t_xi: np.ndarray, t_omega: np.ndarray, side: str, tol: Tolerance
) -> PropertyReport:
    """The Bayes condition of verify_bayes, given the product forms of xi and omega."""
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
        return _report(
            f"bayes-{side}", False, tol.eq,
            witness={"a_input": _grid.unit(f.codomain, ia), "b_input": _grid.unit(f.domain, ib),
                     "lhs": complex(lhs[ia, ib]), "rhs": complex(rhs[ia, ib])},
            detail=f"Bayes condition fails by {dev[ia, ib]:.6g}",
        )
    return _report(f"bayes-{side}", True, tol.eq, detail=f"max deviation {worst:.3g}")


def _left_mult(a: AlgElement) -> np.ndarray:
    """Coordinate matrix of X |-> a X: the block-diagonal kron(a_x, I)."""
    xs = alg._stacks(a.shape, alg.vec(a))
    return _grid.block_kron(a.shape, xs, [np.eye(x.shape[-1])[None] for x in xs])


def _conj_mult(a: AlgElement) -> np.ndarray:
    """Coordinate matrix of X |-> a X a for self-adjoint a: kron(a_x, a_x^T)."""
    xs = alg._stacks(a.shape, alg.vec(a))
    return _grid.block_kron(a.shape, xs, [x.swapaxes(-1, -2) for x in xs])


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

    The support P and pinv(sigma) come from one rank decision, the
    pullback's spectrum, made with the tolerance `bayes_problem` was given;
    tol here decides the verdicts of the five checks.  In coordinates the candidate is
    L(pinv sigma) F* L(rho) + vec(1 - P) coords(completion^T)^T, with L(a)
    the matrix of left multiplication by a.
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    complement = alg._unit_coords(xi.shape) - alg.vec(xi.support)
    if completion is None:   # the normalized trace tr(.) / total_dim
        comp_row = alg._unit_coords(omega.shape) * (1.0 / omega.shape.total_dim)
    else:
        if completion.shape != omega.shape:
            raise ShapeMismatch("completion state must live on the prior's algebra")
        comp_row = _transposed_coords(completion.density)
    main = _left_mult(xi.spectrum.inverse_power(1.0)) @ hs_adjoint(f).matrix \
        @ _left_mult(omega.density)
    g = Channel(f.codomain, f.domain, main + np.outer(complement, comp_row))
    t_xi, t_omega = _product_form(xi), _product_form(omega)
    left = _bayes_report(f, g, t_xi, t_omega, "left", tol)
    right = _bayes_report(f, g, t_xi, t_omega, "right", tol)
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
    rho = alg._element_stacks(omega.density)
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


def petz_recovery(prob: BayesProblem) -> Channel:
    """The recovery channel Ad_sqrt(pinv sigma) o F* o Ad_sqrt(rho).

    sqrt(pinv sigma) takes its rank from the pullback's spectrum, as the
    support does: the rank cutoff is the tolerance `bayes_problem` was given.
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    mat = _conj_mult(xi.spectrum.inverse_power(0.5)) @ hs_adjoint(f).matrix \
        @ _conj_mult(omega.spectrum.sqrt())
    return Channel(f.codomain, f.domain, mat)


def _transposed_coords(a: AlgElement) -> np.ndarray:
    """Coordinates of the blockwise transpose of a: tr(a X) = this . coords(X)."""
    return alg.vec(a)[alg.adjoint_index(a.shape)]


def verify_disintegration(
    f: Channel, omega: State, g: Channel, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Check that g disintegrates (f, omega, xi := omega o f).

    (i) state preservation xi(G(A)) = omega(A) on basis elements;
    (ii) G o F almost-everywhere equal (right) to the identity relative to xi.
    """
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShapeMismatch("candidate must run opposite to the channel")
    return _disintegration(f, omega, g, pullback_state(omega, f, tol), tol)


def _disintegration(
    f: Channel, omega: State, g: Channel, xi: State, tol: Tolerance
) -> PropertyReport:
    """`verify_disintegration` given the pullback xi = omega o f."""
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
    sizes = np.array(dom.blocks)
    # on an all-ones codomain the coordinates are the values at the points
    p_diag = alg.vec(omega.density).real
    supp = np.flatnonzero(alg.vec(omega.support).real > 0.5)
    # diagonal coordinates of every domain block; F(1_y) at x sums block y's columns
    diag = np.flatnonzero(alg._unit_coords(dom))
    starts = np.cumsum(sizes) - sizes
    hits = np.abs(np.add.reduceat(f.matrix[np.ix_(supp, diag)], starts, axis=1)) > 0.5
    block_of = hits.argmax(axis=1)
    unique = hits.sum(axis=1) == 1
    bad = ~unique | (sizes[block_of] != 1)
    if bad.any():
        i = int(bad.argmax())
        if not unique[i]:
            raise NonscalarImageBlock(
                f"support point {supp[i]} does not evaluate through a unique block"
            )
        y = int(block_of[i])
        raise NonscalarImageBlock(
            f"support point {supp[i]} evaluates through block {y} of dimension {dom.blocks[y]}"
        )
    q = np.bincount(block_of, weights=p_diag[supp], minlength=len(sizes))
    # value of G(A) on each domain block: the classical formula on blocks that
    # carry mass, the normalized trace on the rest
    weights = np.zeros((len(sizes), nx))
    weights[q == 0] = 1.0 / nx
    weights[block_of, supp] = p_diag[supp] / q[block_of]
    mat = np.zeros((dom.coord_dim, nx), dtype=complex)
    mat[diag] = np.repeat(weights, sizes, axis=0)
    return Channel(f.codomain, dom, mat)


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
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShapeMismatch("candidate must run opposite to the channel")
    xi = pullback_state(omega, f, tol)
    disint = _disintegration(f, omega, g, xi, tol)
    if not disint.passed:
        raise PreconditionsUnmet("candidate does not pass verify_disintegration")
    for name, ch in (("channel", f), ("candidate", g)):
        for check in (is_star_preserving, is_unital, is_cp):
            rep = check(ch, tol)
            if not rep.passed:
                raise PreconditionsUnmet(f"{name} is not CPU: {rep.prop} fails")
    bayes = verify_bayes(f, omega, xi, g, "left", tol)
    det = ae_deterministic(f, omega, "right", tol)
    violations = []
    if not bayes.passed:
        violations.append("CPU disintegration is not a left Bayes map")
    if not det.passed:
        violations.append("disintegrated CPU channel is not right a.e. deterministic")
    return ModularityReport(disint, bayes, det, violations)
