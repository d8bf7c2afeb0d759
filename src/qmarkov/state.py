"""States, support projections, nullspaces, and almost-everywhere relations.

A state is stored by its density element for the unweighted trace pairing,
omega(A) = sum_x tr(rho_x A_x).  All a.e. relations are decided exactly on
the matrix-unit basis (they are linear or sesquilinear in their free
variables); nothing here is sampled.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _grid
from . import algebra as alg
from .algebra import AlgebraShape, AlgElement
from .channel import Channel, PropertyReport, _report, apply, hs_adjoint, is_star_preserving
from .errors import NotSelfAdjoint, PullbackNotPSD, ShapeMismatch
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "Spectrum",
    "State",
    "state_from_density",
    "support",
    "pullback_state",
    "NullspaceTest",
    "ae_equal",
    "ae_deterministic",
    "ae_unital",
]


@dataclass(frozen=True)
class Spectrum:
    """Blockwise eigendecomposition of a density, with one rank decision.

    Blocks of equal size are decomposed together: `stacks` holds, for each
    block size m of the shape, the eigenvalues (k, m) in descending order,
    the eigenvectors (k, m, m) as columns, and the keep mask (k, m).  keep
    marks the eigenvalues above tol.rank times the largest eigenvalue across
    all blocks, so rank decisions are consistent between blocks of different
    scale.  The support projection, the pseudo-inverse and its square root
    are all read from it, so they agree on every rank.
    """

    shape: AlgebraShape
    stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def support(self) -> AlgElement:
        """Spectral projection onto the kept eigenvalues."""
        return self._function([k for _, _, k in self.stacks])

    def inverse_power(self, power: float) -> AlgElement:
        """(pinv rho)^power: w^-power on the kept eigenvalues, 0 on the rest."""
        return self._function(
            [np.where(k, (1.0 / np.where(k, w, 1.0)) ** power, 0.0) for w, _, k in self.stacks])

    def sqrt(self) -> AlgElement:
        """PSD square root, negative rounding clipped to 0."""
        return self._function([np.sqrt(np.clip(w, 0.0, None)) for w, _, _ in self.stacks])

    def _function(self, values) -> AlgElement:
        """sum_i v_i u_i u_i* per block, for eigenvalue functions v."""
        return alg._adopt(self.shape, alg._join(self.shape, [
            (u * v[:, None, :]) @ alg._dagger(u) for (_, u, _), v in zip(self.stacks, values)]))


def _spectrum(s: AlgebraShape, herm: alg.Stacks, tol: Tolerance) -> Spectrum:
    """Spectrum of the Hermitian element with stacks herm: one eigh per block size."""
    eigs = [np.linalg.eigh(h) for h in herm]
    values = [w[:, ::-1] for w, _ in eigs]
    lam_max = max(w[:, 0].max() for w in values)
    cutoff = tol.rank * max(lam_max, 0.0)
    return Spectrum(s, tuple((w, u[:, :, ::-1], w > cutoff) for w, (_, u) in zip(values, eigs)))


@dataclass(frozen=True)
class State:
    """Positive unital functional omega = tr(rho .) with the spectrum of rho."""

    shape: AlgebraShape
    density: AlgElement
    spectrum: Spectrum = field(repr=False, compare=False)

    def __call__(self, a: AlgElement) -> complex:
        return self.expect(a)

    @cached_property
    def support(self) -> AlgElement:
        return self.spectrum.support()

    def expect(self, a: AlgElement) -> complex:
        if a.shape != self.shape:
            raise ShapeMismatch("element does not live on the state's algebra")
        return alg.trace(alg.mul(self.density, a))


def state_from_density(density: AlgElement, tol: Tolerance = DEFAULT_TOL) -> State:
    """Validate a density element (PSD, unit trace) and build the state.

    Self-adjointness and positivity are the tests of `is_positive_elem`,
    against max(1, ||rho||), read from the one spectrum the state keeps.  With
    H the Hermitian part, ||H|| <= ||rho|| <= ||H|| + ||(rho - rho*) / 2||_F,
    each bound widened by alg._SLACK; only a verdict that differs between the
    two bounds pays for the exact norm.
    """
    xs = alg._element_stacks(density)
    diff = [x - alg._dagger(x) for x in xs]
    skew, spec = alg._max_abs(diff), _spectrum(density.shape, alg._hermitian(xs), tol)
    low = min(w[:, -1].min() for w, _, _ in spec.stacks)
    top = max(np.abs(w).max() for w, _, _ in spec.stacks)   # ||H||

    def failures(scale):
        return skew > tol.herm * scale, low < -tol.psd * scale

    scale = tol.scale(top * (1 - alg._SLACK))
    if failures(scale) != failures(tol.scale(top * (1 + alg._SLACK) + 0.5 * alg._upper(diff))):
        scale = tol.scale(alg._op_norm(xs))
    not_self_adjoint, negative = failures(scale)
    if not_self_adjoint:
        raise NotSelfAdjoint("element is not self-adjoint within tolerance")
    if negative:
        raise ValueError("density is not positive semidefinite within tolerance")
    tr = alg.trace(density)
    if abs(tr - 1.0) > tol.eq * tol.scale(abs(tr)):
        raise ValueError(f"density trace {tr} is not 1 within tolerance")
    return State(density.shape, density, spec)


def support(omega: State) -> AlgElement:
    """Smallest projection P with omega(PA) = omega(AP) = omega(A) for all A."""
    return omega.support


def pullback_state(omega: State, f: Channel, tol: Tolerance = DEFAULT_TOL) -> State:
    """Pull a state on the codomain back along a channel: density F*(rho).

    Raises PullbackNotPSD when the transported density fails positivity,
    which signals that f is not positive along the support of omega.  The
    positivity test, its scale and the state's support all come from one
    eigendecomposition of the self-adjoint part.
    """
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the channel codomain")
    s = f.domain
    sigma = alg._element_stacks(apply(hs_adjoint(f), omega.density))
    skew = [x - alg._dagger(x) for x in sigma]
    # the Frobenius bound settles a skew part within 2 tol.herm at any scale
    if alg._upper(skew) > 2 * tol.herm:
        dev = alg._op_norm(skew)
        if dev > 2 * tol.herm * tol.scale(alg._op_norm(sigma)):
            raise PullbackNotPSD(f"pullback density has anti-self-adjoint part {dev:.3e}")
    herm = alg._hermitian(sigma)
    spec = _spectrum(s, herm, tol)
    low = min(w[:, -1].min() for w, _, _ in spec.stacks)
    top = max(np.abs(w).max() for w, _, _ in spec.stacks)   # the operator norm
    if low < -tol.psd * tol.scale(top):
        raise PullbackNotPSD("pullback density has a negative eigenvalue")
    sym = alg._adopt(s, alg._join(s, herm))
    tr = alg.trace(sym)
    if abs(tr - 1.0) > tol.eq * tol.scale(abs(tr)):
        raise PullbackNotPSD(f"pullback density has trace {tr}, expected 1")
    return State(s, sym, spec)


@dataclass(frozen=True)
class NullspaceTest:
    """Membership test for the one-sided nullspaces of a state.

    side "right": A in N_omega  iff  A P = 0  (omega(A*A) = 0);
    side "left":  A in nullspace from the left  iff  P A = 0.
    """

    side: str
    state: State

    def __post_init__(self):
        _check_side(self.side)

    def contains(self, a: AlgElement, tol: Tolerance = DEFAULT_TOL) -> bool:
        p = self.state.support
        prod = alg.mul(a, p) if self.side == "right" else alg.mul(p, a)
        return alg.norm(prod) <= tol.eq * tol.scale(alg.norm(a))


def _check_side(side: str):
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def ae_equal(
    f: Channel, g: Channel, omega: State, side: str = "right", tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Almost-everywhere equality of two channels relative to a state.

    Right variant: (F - G)(B) P_omega = 0 for every basis B (linearity makes
    the basis sufficient); left variant multiplies by the support from the
    left.
    """
    _check_side(side)
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ShapeMismatch("channels must share domain and codomain")
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the common codomain")
    img_f = _grid.images(f.codomain, f.matrix)
    img_g = _grid.images(g.codomain, g.matrix)
    bad = _grid.first_failure(
        f.codomain, f.domain.coord_dim, 1,
        lambda r0, r1: ([x[r0:r1] for x in img_f], [x[r0:r1] for x in img_g]),
        tol, omega.support, side,
    )
    if bad is not None:
        return _report(
            f"ae-equal-{side}", False, tol.eq, witness={"input": _grid.unit(f.domain, bad)},
            detail="(F - G)(B) does not vanish on the support",
        )
    return _report(f"ae-equal-{side}", True, tol.eq)


def ae_deterministic(
    f: Channel, omega: State, side: str = "right", tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Multiplicativity on the support: F(B*C) P = F(B)* F(C) P on basis pairs.

    The expression is sesquilinear in (B, C), so matrix units suffice.  The
    left variant puts the support on the left of the same expression; the two
    verdicts agree for star-preserving channels.
    """
    _check_side(side)
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the channel codomain")
    if not is_star_preserving(f, tol).passed:
        warnings.warn(
            "ae_deterministic called on a non-star-preserving channel; "
            "left and right verdicts may differ",
            stacklevel=2,
        )
    d = f.domain.coord_dim
    bad = _grid.multiplicative_failure(f, tol, True, omega.support, side)
    if bad is not None:
        a, b = divmod(bad, d)
        return _report(
            f"ae-deterministic-{side}", False, tol.eq,
            witness={"left_input": _grid.unit(f.domain, a),
                     "right_input": _grid.unit(f.domain, b)},
            detail="F(B*C) != F(B)*F(C) on the support",
        )
    return _report(f"ae-deterministic-{side}", True, tol.eq)


def ae_unital(
    f: Channel, omega: State, side: str = "right", tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Unitality on the support: F(1) P = P (right) or P F(1) = P (left)."""
    _check_side(side)
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the channel codomain")
    p = omega.support
    img = apply(f, alg.unit(f.domain))
    lhs = alg.mul(img, p) if side == "right" else alg.mul(p, img)
    if alg.elem_equal(lhs, p, tol):
        return _report(f"ae-unital-{side}", True, tol.eq)
    return _report(
        f"ae-unital-{side}", False, tol.eq,
        witness={"input": alg.unit(f.domain), "image_of_unit": img},
        detail="F(1) does not act as the identity on the support",
    )
