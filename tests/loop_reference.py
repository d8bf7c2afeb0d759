"""Loop implementations of the exact basis checks, kept as a slow oracle.

These are the straightforward versions of the checks that the library
decides with one closed-form grid evaluation: they visit every matrix unit,
or every pair of matrix units, and decide each comparison with
`elem_equal` or an operator-norm test on the support.  The differential
test runs both and requires the same verdicts and the same witnesses.
"""
from __future__ import annotations

from qmarkov import algebra as alg
from qmarkov.bayes import BayesProblem
from qmarkov.channel import Channel, PropertyReport, _report, apply, compose, identity_channel
from qmarkov.errors import ShapeMismatch, SupportNotFull
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
