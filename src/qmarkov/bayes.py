"""Bayes maps, Bayesian inverses, Petz recovery, and disintegrations.

Construction never asserts success: every constructor is paired with a
verifier, and the verifiers are the source of truth.  Left and right
variants of the Bayes condition are always reported separately because they
genuinely differ for candidates that are not star-preserving.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _grid
from . import algebra as alg
from .algebra import AlgebraShape, AlgElement
from .channel import (
    Channel,
    PropertyReport,
    _owned,
    _report,
    is_cp,
    is_star_preserving,
    is_unital,
)
from .errors import (
    NotAeDeterministic,
    NotCommutative,
    PreconditionsUnmet,
    ShapeMismatch,
    SupportNotFull,
)
from .state import State, _check_side, ae_deterministic, pullback_state
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


def verify_bayes(f: Channel, omega: State, xi: State, g: Channel, side: str = "left",
                 tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """Check the Bayes condition on all basis pairs.

    Left:  xi(G(A) B) = omega(A F(B));  right:  xi(B G(A)) = omega(F(B) A).
    Both sides are bilinear in (A, B), so matrix units decide them exactly;
    the pair grid is two column products of the densities with the channel matrices.
    """
    _check_side(side)
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShapeMismatch("candidate must run opposite to the channel")
    if omega.shape != f.codomain or xi.shape != f.domain:
        raise ShapeMismatch("states must live on the channel endpoints")
    return _bayes_report(f, g, alg.vec(xi.density), alg.vec(omega.density), side, tol)


def _bayes_sides(f: Channel, g: Channel, sigma: np.ndarray, rho: np.ndarray, side: str):
    """lhs[a, b] and rhs[a, b] of the Bayes condition on units E_a of the codomain and
    E_b of the domain, given the coordinates sigma of xi's density and rho of omega's.
    xi(Y E_rs) = (sigma Y)_sr, so each side is one column product of a density with a
    channel matrix, whose columns are the images of all units, read at the transposed unit."""
    left = side == "left"
    # xi(G(E_a) E_b) or xi(E_b G(E_a)): rows of the product, so lhs lies transposed in memory
    lhs = alg._mul_columns(f.domain, sigma, g.matrix, left).T[:, alg.adjoint_index(f.domain)]
    # omega(E_a F(E_b)) or omega(F(E_b) E_a)
    rhs = alg._mul_columns(f.codomain, rho, f.matrix, not left)[alg.adjoint_index(f.codomain)]
    return lhs, rhs


def _bayes_report(f: Channel, g: Channel, sigma: np.ndarray, rho: np.ndarray, side: str,
                  tol: Tolerance) -> PropertyReport:
    """The Bayes condition of verify_bayes, given the coordinates of the densities.

    Above 2^500, where a side could overflow, both sides are formed from the densities
    scaled by 2^-e, for the larger exponent of F and G, and decided with the floor scaled
    alike; a failure then says "scale_exponent": -e.  A NaN deviation fails.
    """
    e = max(f._exponent, g._exponent)
    unit, scaled = 2.0 ** -e, f" * 2^{e}" if e else ""
    lhs, rhs = _bayes_sides(f, g, sigma * unit, rho * unit, side)
    diff = lhs - rhs
    dev = np.abs(diff)
    worst = float(dev.max())
    # the equality rule on scalars, written out because the report names the worst pair,
    # the largest excess over the bound, where the rule finds the first failing one
    if not worst <= tol.eq * unit:   # every bound is at least tol.eq * unit
        over = np.abs(lhs, out=np.empty_like(dev))   # dev - tol.eq max(unit, |lhs|, |rhs|)
        np.maximum(over, np.maximum(np.abs(rhs, out=diff.real), unit, out=diff.real), out=over)
        np.subtract(dev, np.multiply(over, tol.eq, out=over), out=over)
        at = int(over.argmax())
        if not over.flat[at] <= 0:
            ia, ib = np.unravel_index(at, dev.shape)
            return _report(
                f"bayes-{side}", False, tol.eq,
                witness={"a_input": _grid.unit(f.codomain, ia),
                         "b_input": _grid.unit(f.domain, ib),
                         "lhs": complex(lhs[ia, ib]), "rhs": complex(rhs[ia, ib]),
                         **({"scale_exponent": -e} if e else {})},
                detail=f"Bayes condition fails by {dev[ia, ib]:.6g}{scaled}",
            )
    return _report(f"bayes-{side}", True, tol.eq, detail=f"max deviation {worst:.3g}{scaled}")


def bayes_candidate(
    prob: BayesProblem, tol: Tolerance = DEFAULT_TOL, completion: State | None = None
) -> BayesResult:
    """Construct and verify the canonical Bayes-map candidate.

    On the support of the pullback the candidate is forced:
    P G(A) = pinv(sigma) F*(rho A).  Off the support it is unconstrained; the
    default completion routes through the normalized trace, which keeps the
    candidate unital.  A different completion state may be supplied; any
    completion yields the same left-Bayes verdict.

    The support P and pinv(sigma) come from one rank decision, the
    pullback's spectrum, made with the tolerance `bayes_problem` was given;
    tol here decides the verdicts of the five checks.  The candidate is `_candidate`.
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    comp_row = None
    if completion is not None:
        if completion.shape != omega.shape:
            raise ShapeMismatch("completion state must live on the prior's algebra")
        comp_row = alg.vec(completion.density)[alg.adjoint_index(omega.shape)]   # its transpose
    g = _candidate(prob, comp_row)
    sigma, rho = alg.vec(xi.density), alg.vec(omega.density)
    left = _bayes_report(f, g, sigma, rho, "left", tol)
    right = _bayes_report(f, g, sigma, rho, "right", tol)
    star = is_star_preserving(g, tol)
    unital = is_unital(g, tol)
    cp = is_cp(g, tol)
    notes = [
        f"{r.prop}: {r.detail or 'witness recorded'}"
        for r in (left, right, star, unital, cp)
        if not r.passed
    ]
    return BayesResult(g, left, right, star, unital, cp, notes)


def _candidate(prob: BayesProblem, comp_row: np.ndarray | None = None) -> Channel:
    """The Bayes candidate of prob with the completion whose coordinates pair with A
    as comp_row, by default the normalized trace tr(.) / total_dim.

    In coordinates it is L(pinv sigma) F* L(rho) + vec(1 - P) comp_row^T, with L(a)
    the matrix of left multiplication by a, and P and pinv(sigma) read from the
    pullback's spectrum.  A row R = conj(F(E_c)) of F* pairs with rho A as
    rho^T R = conj(rho* F(E_c)) pairs with A, so F* L(rho) is the conjugate
    transpose of rho* F: both products are column products (`alg._mul_columns`).
    A zero comp_row leaves the completion-free map L(pinv sigma) F* L(rho).
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    complement = alg._unit_coords(xi.shape) - alg.vec(xi.support)
    if comp_row is None:
        comp_row = alg._unit_coords(omega.shape) * (1.0 / omega.shape.total_dim)
    rho_star = alg._adjoint_coords(f.codomain, alg.vec(omega.density))
    h = np.conj(alg._mul_columns(f.codomain, rho_star, f.matrix, True).T, order="C")
    main = alg._mul_columns(f.domain, alg.vec(xi.spectrum.inverse_power(1.0)), h, True)
    return _owned(f.codomain, f.domain, np.add(main, np.outer(complement, comp_row), out=main))


def petz_exists(prob: BayesProblem, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """Commutation criterion F(sigma B) rho = rho F(B sigma) on basis elements.

    Only stated for full pullback support; raises SupportNotFull otherwise.
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    if not alg.elem_equal(xi.support, alg.unit(xi.shape), tol):
        raise SupportNotFull("pullback state does not have full support")
    rho = alg._element_stacks(omega.density)
    sigma = alg.vec(xi.density)[:, None]

    def operands(_, r0, r1):   # one trial
        units = np.arange(r0, r1)
        right = f.matrix @ _grid.times_unit(f.domain, sigma, units)
        left = f.matrix @ _grid.times_unit(f.domain, sigma, units, left=True)
        right, left = (alg._stacks(f.codomain, m.swapaxes(-1, -2)) for m in (right, left))
        return (alg._join(f.codomain, [x @ r for x, r in zip(right, rho)])[None],
                alg._join(f.codomain, [r @ x for x, r in zip(left, rho)])[None])

    bad, = _grid.first_failure(f.codomain, f.domain.coord_dim, 1, operands, tol)
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
    As in `bayes_candidate`, F* Ad_r for r = sqrt(rho) is the conjugate transpose of
    r* F r*, so both conjugations are column products.
    """
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    cod, dom = f.codomain, f.domain
    r = alg._adjoint_coords(cod, alg.vec(omega.spectrum.sqrt()))
    s = alg.vec(xi.spectrum.inverse_power(0.5))
    rfr = alg._mul_columns(cod, r, alg._mul_columns(cod, r, f.matrix, True), False)   # r* F r*
    h = np.conj(rfr.T, order="C")   # F* Ad_r, rows by the domain
    return _owned(cod, dom, alg._mul_columns(dom, s, alg._mul_columns(dom, s, h, True), False))


def verify_disintegration(
    f: Channel, omega: State, g: Channel, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Check that g disintegrates (f, omega, xi := omega o f).

    (i) state preservation xi(G(A)) = omega(A) on basis elements;
    (ii) G o F almost-everywhere equal (right) to the identity relative to xi.
    """
    return _verified(f, omega, g, tol)[1]


def _verified(f: Channel, omega: State, g: Channel,
              tol: Tolerance) -> tuple[BayesProblem, PropertyReport]:
    """The problem (f, omega), with its one pullback, and the report of
    `verify_disintegration` on it."""
    if g.domain != f.codomain or g.codomain != f.domain:
        raise ShapeMismatch("candidate must run opposite to the channel")
    prob = bayes_problem(f, omega, tol)
    return prob, _disintegration(prob, g, tol)


def _disintegration(prob: BayesProblem, g: Channel, tol: Tolerance) -> PropertyReport:
    """`verify_disintegration` of the candidate g on prob: a batch of one of
    `_disintegrations`."""
    f, omega, xi = prob.channel, prob.prior, prob.pullback
    return _disintegrations(f.domain, f.codomain, f.matrix[None], g.matrix[None],
                            alg.vec(omega.density)[None], alg.vec(xi.density)[None],
                            [xi.support], tol)[0]


def _pairing(s: AlgebraShape, density: np.ndarray) -> np.ndarray:
    """The coordinates (..., coord_dim) that pair with those of every X on s as the
    state with density coordinates density (..., coord_dim) takes X: omega(E_ij) = rho_ji,
    so omega(X) = _pairing(s, rho) @ X."""
    return density.take(alg.adjoint_index(s), -1)


def _preservation(dom: AlgebraShape, cod: AlgebraShape, g: np.ndarray, rho: np.ndarray,
                  sigma: np.ndarray, tol: Tolerance):
    """(xi(G(E_a)), omega(E_a), failing) (T, cod_dim) for every unit E_a of cod and every
    trial t: state preservation of the candidate g[t] (dom_dim, cod_dim), the prior
    with density coordinates rho[t] and its pullback xi with sigma[t].  One product
    for all trials and one `failing_entries` call."""
    lhs = (_pairing(dom, sigma)[:, None] @ g)[:, 0]
    rhs = _pairing(cod, rho)
    return lhs, rhs, alg.failing_entries(alg._SCALARS, lhs[..., None], rhs[..., None], tol)


def _disintegrations(dom: AlgebraShape, cod: AlgebraShape, f: np.ndarray, g: np.ndarray,
                     rho: np.ndarray, sigma: np.ndarray, supports: list[AlgElement],
                     tol: Tolerance) -> list[PropertyReport]:
    """Per trial t, the report of `verify_disintegration` for the channel with matrix
    f[t] (cod_dim, dom_dim) from dom to cod, the candidate g[t] (dom_dim, cod_dim),
    the prior on cod with density coordinates rho[t], and its pullback, with
    density coordinates sigma[t] and support supports[t].

    State preservation is decided for all trials by `_preservation`, and the a.e.
    section of the trials that preserve their states by one
    `_grid.equal_failure` call, each G o F under its own pullback's support.
    Each product is the one a batch of one forms, so every trial gets the
    report its batch of one gives.
    """
    lhs, rhs, fails = _preservation(dom, cod, g, rho, sigma, tol)
    broken = fails.any(axis=-1).tolist()
    live = [t for t, b in enumerate(broken) if not b]
    # G o F against the identity, as ae_equal compares them; equal_failure raises
    # ValueError on a NaN or Inf entry of a composite, as compose does
    with np.errstate(over="ignore", invalid="ignore"):
        gf = _grid._live(g, live) @ _grid._live(f, live)
    section = iter(_grid.equal_failure(dom, gf, _identity(dom.coord_dim)[None], tol,
                                       [supports[t] for t in live]))
    out = []
    for t, b in enumerate(broken):
        if b:
            a = int(fails[t].argmax())
            out.append(_report(
                "disintegration", False, tol.eq,
                witness={"input": _grid.unit(cod, a),
                         "lhs": complex(lhs[t, a]), "rhs": complex(rhs[t, a])},
                detail="state preservation fails: xi(G(A)) != omega(A)"))
            continue
        a = next(section)
        if a is None:
            out.append(_report("disintegration", True, tol.eq,
                               detail="state preservation and a.e. section both hold"))
        else:
            out.append(_report(
                "disintegration", False, tol.eq, witness={"input": _grid.unit(dom, a)},
                detail="G o F is not a.e. equal to the identity"))
    return out


@lru_cache(maxsize=64)
def _identity(d: int) -> np.ndarray:
    """The d x d identity matrix, read-only: the matrix of the identity channel."""
    return alg._read_only(np.eye(d, dtype=complex))


def commutative_disintegration(
    f: Channel, omega: State, tol: Tolerance = DEFAULT_TOL
) -> Channel:
    """Construct a CPU disintegration when the codomain is commutative.

    An a.e. deterministic map's Bayes candidate is a disintegration of it, so
    this is the candidate of `bayes_problem(f, omega, tol)` with the normalized
    trace completion, supported where the pullback's rank decision puts it.
    Each supported point of an all-ones codomain is then a character, which
    reads one scalar block y(x) of the domain: the candidate is the classical
    formula p_x delta_{y, y(x)} / q_y there.  A map that vanishes at a supported
    point raises PullbackNotPSD.  Verification stays with verify_disintegration.
    """
    return _candidate(_commutative_problem(f, omega, tol))


def _commutative_problem(f: Channel, omega: State, tol: Tolerance) -> BayesProblem:
    """The problem of `commutative_disintegration`, once its preconditions hold."""
    if not f.codomain.is_commutative:
        raise NotCommutative("disintegration construction requires an all-ones codomain")
    det = ae_deterministic(f, omega, "right", tol)
    if not det.passed:
        raise NotAeDeterministic("channel is not a.e. deterministic for the given state")
    return bayes_problem(f, omega, tol)


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
    prob, disint = _verified(f, omega, g, tol)
    return _modularity(prob, disint, g, tol)


def _modularity(prob: BayesProblem, disint: PropertyReport, g: Channel,
                tol: Tolerance) -> ModularityReport:
    """`modularity_chain` of the candidate g on prob, given its disintegration report."""
    f, omega, xi = prob.channel, prob.prior, prob.pullback
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
