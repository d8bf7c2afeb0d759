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
from .errors import PullbackNotPSD, ShapeMismatch
from .linalg import herm_eig
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

    keep[x] marks the eigenvalues of block x above tol.rank times the largest
    eigenvalue across all blocks, so rank decisions are consistent between
    blocks of different scale.  The support projection, the pseudo-inverse
    and its square root are all read from it, so they agree on every rank.
    """

    shape: AlgebraShape
    values: tuple[np.ndarray, ...]    # per block, descending
    vectors: tuple[np.ndarray, ...]
    keep: tuple[np.ndarray, ...]

    def support(self) -> AlgElement:
        """Spectral projection onto the kept eigenvalues."""
        projs = []
        for u, keep in zip(self.vectors, self.keep):
            cols = u[:, keep]
            projs.append(cols @ cols.conj().T)
        return AlgElement(self.shape, tuple(projs))

    def inverse_power(self, power: float) -> AlgElement:
        """(pinv rho)^power: w^-power on the kept eigenvalues, 0 on the rest."""
        return self._function(
            [np.where(k, (1.0 / np.where(k, w, 1.0)) ** power, 0.0)
             for w, k in zip(self.values, self.keep)])

    def sqrt(self) -> AlgElement:
        """PSD square root, negative rounding clipped to 0."""
        return self._function([np.sqrt(np.clip(w, 0.0, None)) for w in self.values])

    def _function(self, values) -> AlgElement:
        return AlgElement(self.shape, tuple(
            (u * v) @ u.conj().T for u, v in zip(self.vectors, values)))


def _spectrum(density: AlgElement, tol: Tolerance) -> Spectrum:
    eigs = [herm_eig(0.5 * (b + b.conj().T), tol) for b in density.blocks]
    lam_max = max((w[0] for w, _ in eigs if w.size), default=0.0)
    cutoff = tol.rank * max(lam_max, 0.0)
    return Spectrum(density.shape, tuple(w for w, _ in eigs), tuple(u for _, u in eigs),
                    tuple(w > cutoff for w, _ in eigs))


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
        return complex(
            sum(np.trace(r @ b) for r, b in zip(self.density.blocks, a.blocks))
        )


def state_from_density(density: AlgElement, tol: Tolerance = DEFAULT_TOL) -> State:
    """Validate a density element (PSD, unit trace) and build the state."""
    if not alg.is_positive_elem(density, tol):
        raise ValueError("density is not positive semidefinite within tolerance")
    tr = alg.trace(density)
    if abs(tr - 1.0) > tol.eq * tol.scale(abs(tr)):
        raise ValueError(f"density trace {tr} is not 1 within tolerance")
    return State(density.shape, density, _spectrum(density, tol))


def support(omega: State) -> AlgElement:
    """Smallest projection P with omega(PA) = omega(AP) = omega(A) for all A."""
    return omega.support


def pullback_state(omega: State, f: Channel, tol: Tolerance = DEFAULT_TOL) -> State:
    """Pull a state on the codomain back along a channel: density F*(rho).

    Raises PullbackNotPSD when the transported density fails positivity,
    which signals that f is not positive along the support of omega.
    """
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the channel codomain")
    sigma = apply(hs_adjoint(f), omega.density)
    sym = 0.5 * (sigma + alg.adjoint(sigma))
    dev = alg.norm(sigma - alg.adjoint(sigma))
    if dev > 2 * tol.herm * tol.scale(alg.norm(sigma)):
        raise PullbackNotPSD(f"pullback density has anti-self-adjoint part {dev:.3e}")
    if alg.min_eig(sym, tol) < -tol.psd * tol.scale(alg.norm(sym)):
        raise PullbackNotPSD("pullback density has a negative eigenvalue")
    tr = alg.trace(sym)
    if abs(tr - 1.0) > tol.eq * tol.scale(abs(tr)):
        raise PullbackNotPSD(f"pullback density has trace {tr}, expected 1")
    return State(sym.shape, sym, _spectrum(sym, tol))


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
    bad = _grid.first_failure(f.codomain, d, d, _grid.multiplicativity(f, adjoint=True), tol,
                              omega.support, side)
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
