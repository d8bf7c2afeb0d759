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
from .channel import (Channel, PropertyReport, _apply_batch, _hs_adjoints, _report,
                      is_star_preserving)
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
        return alg._adopt(self.shape, _spectral(self.shape, self.stacks, values))


def _spectral(s: AlgebraShape, stacks: tuple, values) -> np.ndarray:
    """The coordinates (..., coord_dim) of sum_i v_i u_i u_i* per block, from `Spectrum`
    stacks with leading axes (...) and the eigenvalue functions v (..., k, m) per block size."""
    return alg._join(s, [(u * v[..., None, :]) @ alg._dagger(u)
                         for (_, u, _), v in zip(stacks, values)])


def _supports(s: AlgebraShape, stacks: tuple) -> list[AlgElement]:
    """The support projection of every state of a batch, from its `Spectrum` stacks
    (N, k, m) and (N, k, m, m): the elements `Spectrum.support` gives, in one product."""
    return [alg._adopt(s, p) for p in _spectral(s, stacks, [k for _, _, k in stacks])]


def _decompose(herm: alg.Stacks, tol: Tolerance) -> tuple:
    """The `Spectrum` stacks of the Hermitian elements with stacks herm (..., k, m, m):
    one eigh per block size for the whole batch, each element with its own rank cutoff.

    numpy decomposes every matrix of a stack on its own, so an element gets the
    same floats in a batch as alone.
    """
    eigs = [np.linalg.eigh(h) for h in herm]
    values = [w[..., ::-1] for w, _ in eigs]
    lam_max = alg._fold_max([w[..., 0].max(axis=-1) for w in values])
    cutoff = (tol.rank * np.maximum(lam_max, 0.0))[..., None, None]
    return tuple((w, u[..., ::-1], w > cutoff) for w, (_, u) in zip(values, eigs))


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
    """Validate a density element (PSD, unit trace) and build the state."""
    return _from_densities(density.shape, alg.vec(density)[None], tol)[0]


def _from_densities(s: AlgebraShape, densities: np.ndarray,
                    tol: Tolerance = DEFAULT_TOL) -> list[State]:
    """The state of the density in every row of densities (N, coord_dim), with one
    eigh per block size for all of them; `state_from_density` is its batch of one.

    Every density is decided at its own scale: self-adjointness and positivity
    are the tests of `is_positive_elem`, decided by `alg._psd_verdicts` from the
    eigenvalues of the one spectrum the state keeps, and the trace must be 1.
    The first row refused raises its error; a NaN or Inf entry in any row
    raises first.  numpy decomposes every matrix of a stack on its own, so a
    state gets the same spectrum in a batch as alone.
    """
    v = np.array(densities, dtype=complex)   # the states' own coordinates
    alg._finite(v)
    xs = alg._stacks(s, v)
    hs = alg._hermitian(xs)
    stacks = _decompose(hs, tol)
    not_self_adjoint, negative, _, _ = alg._psd_verdicts(
        hs, [x - alg._dagger(x) for x in xs], 1.0, tol,
        [w[..., ::-1] for w, _, _ in stacks])   # ascending
    tr = alg._trace_coords(s, v)
    refused = not_self_adjoint | negative | alg.failing_entries(
        alg._SCALARS, tr[:, None], np.ones((len(tr), 1)), tol)
    if refused.any():
        i = refused.argmax()
        if not_self_adjoint[i]:
            raise NotSelfAdjoint("element is not self-adjoint within tolerance")
        if negative[i]:
            raise ValueError("density is not positive semidefinite within tolerance")
        raise ValueError(f"density trace {complex(tr[i])} is not 1 within tolerance")
    return _states(s, v, stacks)


def _states(s: AlgebraShape, coords: np.ndarray, stacks: tuple) -> list[State]:
    """The state of every row of coords (N, coord_dim), with the `Spectrum` stacks
    (N, k, m) and (N, k, m, m) of its rows, as `_decompose` returns them."""
    return [State(s, alg._adopt(s, coords[i]),
                  Spectrum(s, tuple([(w[i], u[i], k[i]) for w, u, k in stacks])))
            for i in range(len(coords))]


def support(omega: State) -> AlgElement:
    """Smallest projection P with omega(PA) = omega(AP) = omega(A) for all A."""
    return omega.support


def pullback_state(omega: State, f: Channel, tol: Tolerance = DEFAULT_TOL) -> State:
    """Pull a state on the codomain back along a channel: density F*(rho).

    Raises PullbackNotPSD when the transported density fails positivity,
    which signals that f is not positive along the support of omega.  The
    positivity test, its scale and the state's support all come from one
    eigendecomposition of the self-adjoint part.  A batch of one of `_pullback`.
    """
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the channel codomain")
    return _states(f.domain, *_pullback(f.domain, alg.vec(omega.density)[None], f.matrix, tol,
                                        np.asarray(f._exponent)))[0]


def _pullback(s: AlgebraShape, densities: np.ndarray, matrix: np.ndarray,
              tol: Tolerance = DEFAULT_TOL,
              e: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
    """The pullbacks F*(rho) onto s of the densities in every row of densities
    (T, cod_dim), along one channel matrix M (cod_dim, coord_dim) for all rows
    or one per row (T, cod_dim, coord_dim): their coordinates (T, coord_dim) and
    their `Spectrum` stacks, from one eigh per block size.

    Each row is decided as `pullback_state` decides one: a skew part above
    2 tol.herm max(1, ||F*(rho)||), then an eigenvalue below -tol.psd
    max(1, ||H||) of the self-adjoint part H, then a trace of H other than 1
    under the equality rule.  The first row refused raises its PullbackNotPSD;
    a NaN or Inf entry in any row raises first.  Each row's M* rho is the
    matrix-vector product of a batch of one, and numpy decomposes every matrix
    of a stack on its own, so a row gets the same floats in a batch as alone.
    Above 2^500, where F*(rho) could overflow, a row is decided on F*(rho) 2^-e
    and the floor 2^-e, for the exponent e of its matrix, as `is_cp` decides, and
    its message says "* 2^e".  e is `alg.scale_exponent(matrix, 500)`, taken here
    unless the caller holds it (a `Channel` reads it when it is built).
    """
    if e is None:   # one, or one per row: F*(rho) could overflow above
        e = alg.scale_exponent(matrix, 500)
    scaled = alg._some(e)
    unit, one = 1.0, alg._unit_coords(alg._SCALARS)   # the floor of every scale, and 1 at it
    if scaled:   # 2^-e per row
        matrix = matrix * np.ldexp(1.0, -e)[..., None, None]
        e = np.broadcast_to(e, len(densities))
        unit = np.ldexp(1.0, -e)
        one = unit[:, None]
    v = _apply_batch(_hs_adjoints(matrix), densities)
    alg._finite(v)
    adj = alg._adjoint_coords(s, v)   # the coordinates of F*(rho)*
    skew = v - adj
    # a Frobenius norm of the skew part within 2 tol.herm passes at any scale: of all rows
    # at once first (unscaled), then of each block of each row, and only the other rows
    # pay for exact norms
    asym = np.zeros(len(v), dtype=bool)
    if scaled or not np.vdot(skew, skew).real <= (2 * tol.herm / (1 + alg._SLACK)) ** 2:
        asym = alg._upper(alg._stacks(s, skew)) > 2 * tol.herm * unit
        rows, dev = np.flatnonzero(asym), np.zeros(len(v))
        dev[rows] = alg._op_norm(alg._stacks(s, skew[rows]))
        scale = np.maximum(np.broadcast_to(unit, asym.shape)[rows],
                           alg._op_norm(alg._stacks(s, v[rows])))
        asym[rows] = dev[rows] > 2 * tol.herm * scale
    sym = 0.5 * (v + adj)   # the self-adjoint part, (x + x*) / 2 entry by entry
    stacks = _decompose(alg._stacks(s, sym), tol)
    low = alg._fold_min([w[..., -1].min(axis=-1) for w, _, _ in stacks])
    negative = low < -tol.psd * unit   # at the floor: a larger scale only lowers the bound
    if alg._some(negative):
        top = alg._fold_max([np.abs(w).max(axis=(-2, -1)) for w, _, _ in stacks])   # ||H||
        negative = low < -tol.psd * np.maximum(unit, top)
    tr = alg._trace_coords(s, sym)
    refused = asym | negative | alg.failing_entries(alg._SCALARS, tr[:, None], one, tol,
                                                    unit=unit)
    if alg._some(refused):
        i = refused.argmax()
        at = f" * 2^{e[i]}" if scaled and e[i] else ""
        if asym[i]:
            raise PullbackNotPSD(f"pullback density has anti-self-adjoint part {dev[i]:.3e}{at}")
        if negative[i]:
            raise PullbackNotPSD("pullback density has a negative eigenvalue")
        raise PullbackNotPSD(f"pullback density has trace {complex(tr[i])}{at}, expected 1")
    if scaled:
        # rows above 2^500 pass only under tolerances that pass a trace-1 density with
        # entries above 1: scaled back, their spectra may overflow to inf
        k = np.ldexp(1.0, e)
        with np.errstate(over="ignore"):
            sym = sym * k[:, None]
            stacks = tuple((w * k[:, None, None], u, keep) for w, u, keep in stacks)
    return sym, stacks


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
        """Whether A P (or P A) equals 0 under the equality rule, at the scale max(1, ||A||)."""
        p = self.state.support
        alg._check_same_shape(*((a, p) if self.side == "right" else (p, a)))
        s = a.shape
        return not alg.failing_entries(s, alg.vec(a)[None], np.zeros((1, s.coord_dim)), tol,
                                       alg.vec(p), self.side)[0]


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
    bad, = _grid.equal_failure(f.codomain, f.matrix[None], g.matrix[None], tol, [omega.support],
                               side)
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
    bad, = _grid.multiplicative_failure([f], tol, True, [omega.support], side)
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
    """Unitality on the support: F(1) P = P (right) or P F(1) = P (left), decided as
    `ae_equal` decides, by the equality rule with the support.  Above 2^500, where F(1)
    could overflow, F, 1 and the floor are scaled by 2^-e, as `is_unital` scales them
    and as a failure says ("scale_exponent")."""
    _check_side(side)
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the channel codomain")
    e = f._exponent
    c = 2.0 ** -e
    img = f.matrix @ (alg._unit_coords(f.domain) * c)
    one = alg._unit_coords(f.codomain) * c
    if not alg.failing_entries(f.codomain, img[None], one[None], tol, alg.vec(omega.support),
                               side, c)[0]:
        return _report(f"ae-unital-{side}", True, tol.eq)
    return _report(
        f"ae-unital-{side}", False, tol.eq,
        witness={"input": alg.unit(f.domain), "image_of_unit": alg.unvec(f.codomain, img),
                 **({"scale_exponent": -e} if e else {})},
        detail="F(1) does not act as the identity on the support",
    )
