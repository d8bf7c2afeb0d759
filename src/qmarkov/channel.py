"""Linear maps between direct sums of matrix algebras.

A channel F: B ~> A is stored as its matrix on canonical coordinates, size
coord_dim(A) x coord_dim(B), acting in the Heisenberg picture (inputs are
observables on the domain algebra).  Exact, basis-reducible properties
(unitality, star-preservation, determinism, complete positivity via Choi
matrices) are decided on matrix units; plain positivity and Schwarz
positivity are only ever sampled.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _grid
from . import algebra as alg
from .algebra import AlgebraShape, AlgElement
from .errors import ShapeMismatch, Singular
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "PropertyReport",
    "Channel",
    "channel_from_action",
    "identity_channel",
    "transpose_channel",
    "ad_channel",
    "conjugation_by",
    "kraus_channel",
    "mult_map",
    "apply",
    "compose",
    "tensor",
    "invert",
    "hs_adjoint",
    "choi",
    "is_cp",
    "is_unital",
    "is_star_preserving",
    "is_deterministic",
    "is_positive_sampled",
    "is_schwarz_sampled",
    "s_positivity_equation",
]


@dataclass
class PropertyReport:
    """Outcome of a single property check.

    verdict is "pass" (decided exactly on a basis), "sampled-pass" (random
    trials found no violation; not a proof), or "fail".  Fail verdicts carry
    a witness reproducing the violation.
    """

    prop: str
    verdict: str
    tolerance: float
    witness: dict | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "sampled-pass")

    def to_dict(self) -> dict:
        out = {"property": self.prop, "verdict": self.verdict, "tolerance": self.tolerance}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = {k: _jsonable(v) for k, v in self.witness.items()}
        return out


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(v)]
    if isinstance(v, AlgElement):
        return [_jsonable(b) for b in v.blocks]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _report(prop, ok, tol_used, witness=None, detail="", sampled=False) -> PropertyReport:
    if ok:
        return PropertyReport(prop, "sampled-pass" if sampled else "pass", tol_used, None, detail)
    return PropertyReport(prop, "fail", tol_used, witness, detail)


@dataclass
class Channel:
    """Linear map between algebras in matrix form, with memoized verdicts.

    The channel keeps its own read-only copy of the matrix, so a verdict
    cached on it cannot go stale through an in-place edit, and a matrix
    found finite when the channel is built stays finite.  Verdicts are
    cached under the full Tolerance they were decided with.
    """

    domain: AlgebraShape
    codomain: AlgebraShape
    matrix: np.ndarray
    _flags: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._own(np.array(self.matrix, dtype=complex))

    def _own(self, m: np.ndarray) -> "Channel":
        want = (self.codomain.coord_dim, self.domain.coord_dim)
        if m.shape != want:
            raise ShapeMismatch(f"channel matrix is {m.shape}, expected {want}")
        # a float view scans faster than complex; where the sum of squares is at most 2^1000,
        # so is every entry's square, and _exponent, `alg.scale_exponent(m, 500)`, is 0
        squares = alg._finite(m.ravel("K").view(float))
        self._exponent = 0 if squares <= 2.0 ** 1000 else int(alg.scale_exponent(m, 500))
        m.flags.writeable = False
        self.matrix = m
        return self

    def __call__(self, a: AlgElement) -> AlgElement:
        return apply(self, a)

    def cached(self, key, compute: Callable[[], PropertyReport]) -> PropertyReport:
        if key not in self._flags:
            self._flags[key] = compute()
        return self._flags[key]


def _owned(domain: AlgebraShape, codomain: AlgebraShape, m: np.ndarray) -> Channel:
    """Channel(domain, codomain, m), checked as the constructor checks it, for
    a complex matrix m that no caller writes to, taken without a copy."""
    f = object.__new__(Channel)
    f.domain, f.codomain, f._flags = domain, codomain, {}
    return f._own(m)


def channel_from_action(
    domain: AlgebraShape, codomain: AlgebraShape, action: Callable[[AlgElement], AlgElement]
) -> Channel:
    """Assemble the channel matrix by applying `action` to every matrix unit."""
    cols = []
    for e in alg.matrix_units(domain):
        out = action(e)
        if out.shape is not codomain and out.shape != codomain:
            raise ShapeMismatch("action output does not live in the stated codomain")
        cols.append(alg.vec(out))
    return _owned(domain, codomain, np.stack(cols, axis=1))


def identity_channel(s: AlgebraShape) -> Channel:
    return _owned(s, s, np.eye(s.coord_dim, dtype=complex))


def transpose_channel(s: AlgebraShape) -> Channel:
    """Blockwise transpose in the canonical basis: E_a |-> E_a* permutes the units."""
    d = s.coord_dim
    mat = np.zeros((d, d), dtype=complex)
    mat[np.arange(d), alg.adjoint_index(s)] = 1
    return _owned(s, s, mat)


def ad_channel(v: np.ndarray) -> Channel:
    """Conjugation X |-> v X v* as a channel between single-block algebras.

    For v of shape (p, q) this maps M_q to M_p; v need not be square.
    """
    v = np.asarray(v, dtype=complex)
    p, q = v.shape
    return _owned(AlgebraShape((q,)), AlgebraShape((p,)), _ad_matrix(v))


def _ad_matrix(v: np.ndarray) -> np.ndarray:
    """The matrix of X |-> v X v* for complex v (..., p, q): (..., p^2, q^2), one per
    matrix of a stack."""
    return _kron(v, v.conj())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, or of two vectors, as one broadcast product.

    Entry (i r + k, j s + l) is a_ij b_kl, the one product np.kron forms, so
    the two agree bit for bit; the product is written in the result's layout
    at once, where np.kron reorders an outer product.  Matrices (..., p, q) and
    (..., r, s) may carry leading batch axes: one product per batch entry.
    """
    if a.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * r, q * s))


def conjugation_by(e: AlgElement) -> Channel:
    """Blockwise conjugation A |-> e A e* by an element of the same algebra."""
    s = e.shape
    out = np.zeros((s.coord_dim, s.coord_dim), dtype=complex)
    for g, x in zip(s._layout.groups, alg._stacks(s, alg.vec(e))):
        at = g.rows.reshape(len(g.ids), g.m * g.m, 1)   # the rows, and columns, of each block
        out[at, at.swapaxes(1, 2)] = _ad_matrix(x)
    return _owned(s, s, out)


def kraus_channel(
    domain: AlgebraShape, codomain: AlgebraShape, kraus_ops: Sequence[np.ndarray]
) -> Channel:
    """Heisenberg-picture Kraus channel B |-> sum_i K_i* B K_i.

    Restricted to single-block domain and codomain; each K_i must be
    n_dom x n_cod.  The result is completely positive by construction.
    """
    if len(domain.blocks) != 1 or len(codomain.blocks) != 1:
        raise ShapeMismatch("Kraus form requires single-block domain and codomain")
    n, m = domain.blocks[0], codomain.blocks[0]
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    for k in ops:
        if k.shape != (n, m):
            raise ShapeMismatch(f"Kraus operator of shape {k.shape}, expected ({n}, {m})")
    return _owned(domain, codomain, _kraus_matrix(np.array(ops).reshape(len(ops), n, m)))


def _kraus_matrix(ops: np.ndarray) -> np.ndarray:
    """sum_i _ad_matrix(K_i*), the matrix of B |-> sum_i K_i* B K_i, for complex
    Kraus operators ops (..., r, n, m): (..., m^2, n^2), one per leading batch entry.
    The r terms are added in order, from 0, so each sum has the bits of a loop."""
    lead, (r, n, m) = ops.shape[:-3], ops.shape[-3:]
    mat = np.zeros(lead + (m * m, n * n), dtype=complex)
    for i in range(r):
        mat += _ad_matrix(alg._dagger(ops[..., i, :, :]))
    return mat


def mult_map(s: AlgebraShape) -> Channel:
    """Multiplication as a channel from the tensor square onto the algebra.

    Sends the coordinate vector of A (x) B to the coordinates of AB; on the
    tensor basis, E_ij^(x) (x) E_kl^(y) maps to delta_xy delta_jk E_il^(x).
    """
    dom = alg.tensor_shape(s, s)
    left, right = alg.tensor_index(s, s)
    # row coord_dim collects the products that vanish
    mat = np.zeros((s.coord_dim + 1, dom.coord_dim), dtype=complex)
    mat[alg.product_index(s)[left, right], np.arange(dom.coord_dim)] = 1
    return _owned(dom, s, mat[:-1])


def apply(f: Channel, b: AlgElement) -> AlgElement:
    if b.shape is not f.domain and b.shape != f.domain:
        raise ShapeMismatch("element does not live in the channel domain")
    return alg._adopt(f.codomain, f.matrix @ alg.vec(b))


def compose(f: Channel, g: Channel) -> Channel:
    """Composite f after g (apply g first)."""
    if g.codomain is not f.domain and g.codomain != f.domain:
        raise ShapeMismatch("codomain of the inner channel must match the outer domain")
    with np.errstate(over="ignore", invalid="ignore"):   # _owned refuses an Inf or NaN entry
        m = f.matrix @ g.matrix
    return _owned(g.domain, f.codomain, m)


def tensor(f: Channel, g: Channel) -> Channel:
    """Tensor product channel acting as F (x) G on elementary tensors.

    Each coordinate of the tensor codomain and domain is a pair of units, so
    every entry of the matrix is one product of an entry of f and one of g.
    """
    dom = alg.tensor_shape(f.domain, g.domain)
    cod = alg.tensor_shape(f.codomain, g.codomain)
    return _owned(dom, cod, _tensor_matrix((f.codomain, g.codomain), (f.domain, g.domain),
                                           f.matrix, g.matrix))


def _tensor_matrix(cods: tuple, doms: tuple, fm: np.ndarray, gm: np.ndarray) -> np.ndarray:
    """The matrix of F (x) G from the matrices fm (..., c_F, d_F) and gm (..., c_G, d_G)
    of maps F and G with codomains cods and domains doms, one per leading batch entry.

    Every entry is one product of an entry of F and one of G.  The columns of F
    and G are gathered once, and their rows per chunk of `_grid.row_chunks`,
    straight into the one output."""
    (rf, rg), (cf, cg) = alg.tensor_index(*cods), alg.tensor_index(*doms)
    fc, gc = fm.take(cf, -1), gm.take(cg, -1)
    out = np.empty(fm.shape[:-2] + (len(rf), len(cf)), dtype=complex)
    for r0, r1 in _grid.row_chunks(len(rf), out.size // len(rf)):
        np.multiply(fc.take(rf[r0:r1], -2), gc.take(rg[r0:r1], -2), out=out[..., r0:r1, :])
    return out


_COND_LIMIT = 1e12


def invert(f: Channel) -> Channel:
    """Inverse channel; raises Singular for non-square or ill-conditioned maps."""
    if f.domain.coord_dim != f.codomain.coord_dim:
        raise Singular("channel matrix is not square")
    return _owned(f.codomain, f.domain, _inverses(f.matrix))


def _inverses(m: np.ndarray) -> np.ndarray:
    """The inverses of the square matrices m (..., n, n); raises Singular, naming the
    first, when the condition estimate of one is not finite or exceeds _COND_LIMIT."""
    cond = np.linalg.cond(m)
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if bad.any():
        raise Singular(f"condition estimate {np.extract(bad, cond)[0]:.3e} exceeds "
                       f"{_COND_LIMIT:.0e}")
    return np.linalg.inv(m)


def hs_adjoint(f: Channel) -> Channel:
    """Adjoint for the unweighted trace pairing sum_x tr(A_x* B_x).

    The matrix-unit basis is orthonormal for this pairing, so the adjoint is
    the conjugate transpose of the channel matrix.
    """
    return _owned(f.codomain, f.domain, _hs_adjoints(f.matrix))


def _hs_adjoints(m: np.ndarray) -> np.ndarray:
    """The matrices of the Hilbert-Schmidt adjoints of the maps with matrices m
    (..., c, d): their conjugate transposes."""
    return alg._dagger(m)


def choi(f: Channel) -> list[np.ndarray]:
    """One Choi matrix per domain block y: sum_ij E_ij (x) F(E_ij).

    Each matrix lives on M_{n_y} (x) codomain, with the codomain realized
    block-diagonally on its total Hilbert space; F is CP iff every one of
    them is positive semidefinite.
    """
    big = f.codomain.total_dim
    embed = alg._embed_index(f.codomain)
    out = []
    for n, off_y in zip(f.domain.blocks, f.domain.offsets()):
        img = np.zeros((n * n, big * big), dtype=complex)
        img[:, embed] = f.matrix[:, off_y:off_y + n * n].T
        out.append(img.reshape(n, n, big, big).transpose(0, 2, 1, 3).reshape(n * big, n * big))
    return out


def is_cp(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """Complete positivity via the blockwise Choi matrices, decided by `_cp_verdicts`;
    the first failing domain block is the witness.  Above 2^500, where a Choi sum could
    overflow, it is decided on F 2^-e and the floor 2^-e, and the witness is unscaled."""

    def compute():
        e = f._exponent
        not_sa, negative, skew, low = _cp_verdicts(
            f.domain, f.codomain, f.matrix * 2.0 ** -e if e else f.matrix, tol, 2.0 ** -e)
        bad = not_sa | negative
        if not bad.any():
            return _report("cp", True, tol.psd)
        y = int(bad.argmax())
        skew_y, low_y = float(skew[y]) * 2.0 ** e, float(low[y]) * 2.0 ** e
        if not_sa[y]:
            return _report(
                "cp", False, tol.psd,
                witness={"domain_block": y, "skew_norm": skew_y, "min_eigenvalue": low_y},
                detail=f"Choi matrix of domain block {y} is not Hermitian "
                       f"(skew {skew_y:.3g}); Hermitian part has eigenvalue {low_y:.6g}",
            )
        return _report(
            "cp", False, tol.psd,
            witness={"domain_block": y, "min_eigenvalue": low_y},
            detail=f"Choi matrix of domain block {y} has eigenvalue {low_y:.6g}",
        )

    return f.cached(("cp", tol), compute)


def _cp_verdicts(dom: AlgebraShape, cod: AlgebraShape, matrix: np.ndarray, tol: Tolerance,
                 unit: float = 1.0):
    """(not self-adjoint, not PSD, max skew, lowest eigenvalue) of the Choi matrix C_y of
    every domain block y, for the maps dom ~> cod with matrices (..., c, d): each
    (..., k) over the k domain blocks, the eigenvalue +inf where no spectrum was taken.

    A CP map has Hermitian PSD Choi matrices, so every C_y must pass the rule of
    `alg._psd_verdicts` at the floor unit: skew first, then the minimum eigenvalue of the
    Hermitian part, each against max(unit, ||C_y||).  C_y is block-diagonal over the
    codomain blocks, so the domain blocks of one size, of every map of the batch,
    are one batch of elements, decided from the Hermitian and skew parts of
    `_grid.choi_parts`.
    """
    groups = _grid.choi_parts(dom, cod, matrix)
    if len(groups) == 1:   # one domain block size: the verdicts are every block's, in order
        return alg._psd_verdicts(*zip(*groups[0][1]), unit, tol)
    shape = matrix.shape[:-2] + (len(dom.blocks),)
    not_sa, negative = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    skew, low = np.zeros(shape), np.zeros(shape)
    for ys, parts in groups:
        hs, diffs = zip(*parts)
        not_sa[..., ys], negative[..., ys], skew[..., ys], low[..., ys] = alg._psd_verdicts(
            hs, diffs, unit, tol)
    return not_sa, negative, skew, low


def is_unital(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """F(1) = 1, compared as `elem_equal` does, on coordinates.  Above 2^500, where F(1)
    could overflow, F, 1 and the floor are scaled by 2^-e, as a failure says ("scale_exponent")."""

    def compute():
        e = f._exponent
        c = 2.0 ** -e
        img = f.matrix @ (alg._unit_coords(f.domain) * c)
        if alg._coords_equal(f.codomain, img, alg._unit_coords(f.codomain) * c, tol, c):
            return _report("unital", True, tol.eq)
        return _report("unital", False, tol.eq, detail="F(1) differs from 1",
                       witness={"image_of_unit": alg.unvec(f.codomain, img),
                                **({"scale_exponent": -e} if e else {})})

    return f.cached(("unital", tol), compute)


def is_star_preserving(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """F(B*) = F(B)* for all B, checked on matrix units (`_grid.star_failure`)."""

    def compute():
        bad = _grid.star_failure(f, tol)
        if bad is not None:
            return _report(
                "star-preserving", False, tol.eq, witness={"input": _grid.unit(f.domain, bad)},
                detail="F(E*) != F(E)* on a matrix unit",
            )
        return _report("star-preserving", True, tol.eq)

    return f.cached(("star", tol), compute)


def is_deterministic(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """Star-preservation plus multiplicativity on all basis pairs."""

    def compute():
        star = is_star_preserving(f, tol)
        if not star.passed:
            return _report(
                "deterministic", False, tol.eq, witness=star.witness,
                detail="not star-preserving",
            )
        d = f.domain.coord_dim
        bad, = _grid.multiplicative_failure([f], tol)
        if bad is not None:
            a, b = divmod(bad, d)
            return _report(
                "deterministic", False, tol.eq,
                witness={"left_input": _grid.unit(f.domain, a),
                         "right_input": _grid.unit(f.domain, b)},
                detail="F(Ea Eb) != F(Ea) F(Eb)",
            )
        return _report("deterministic", True, tol.eq)

    return f.cached(("deterministic", tol), compute)


def _sampled_check(f, prop, trials, seed, tol, gap, reasons) -> PropertyReport:
    """Decide a sampled property on batches of random inputs.

    gap maps the coordinates (T, d) of T random domain elements to (y, s):
    the coordinates y (T, c) of codomain elements that must be positive, each
    scaled by an exact 2^-s, where s is one exponent or one per trial.  A
    trial fails when its element is not self-adjoint (reasons[0]) or has a
    negative eigenvalue (reasons[1]), as `alg._psd_verdicts` decides with the
    floor 1 of the scale scaled by 2^-s alike.  A batch is one chunk of
    `_grid.row_chunks`, max(d, c) entries per trial, and the first batch with
    a failure reports its first failing trial, with "scale_exponent": -s when its batch
    was scaled.  A batch with a non-finite element raises ValueError.
    """
    rng = np.random.default_rng(seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dom, cod = f.domain, f.codomain
    for t0, t1 in _grid.row_chunks(trials, max(dom.coord_dim, cod.coord_dim)):
        x = alg._random_coords(dom, rng, (t1 - t0,))
        out, s = gap(x)
        alg._finite(out)
        xs, unit = alg._stacks(cod, out), np.ldexp(1.0, -s)
        not_sa, negative, _, low = alg._psd_verdicts(
            alg._hermitian(xs), [y - alg._dagger(y) for y in xs], unit, tol)
        fail = not_sa | negative
        if fail.any():
            t = int(fail.argmax())
            bad = ({"reason": reasons[0]} if not_sa[t]
                   else {"reason": reasons[1], "min_eigenvalue": float(low[t])})
            if np.any(s):
                bad["scale_exponent"] = -int(np.broadcast_to(s, fail.shape)[t])
            return _report(
                prop, False, tol.psd,
                witness={"trial": t0 + t, "input": alg.unvec(dom, x[t]), **bad},
                detail=f"violation found at trial {t0 + t}",
            )
    return _report(prop, True, tol.psd, detail=f"{trials} trials", sampled=True)


def _apply_batch(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The channel matrix m on coordinates (T, d): one matrix-vector product per row,
    as `apply` computes."""
    return np.matmul(m, x[..., None])[..., 0]


def _exponent(y: np.ndarray) -> np.ndarray:
    """The binary exponent of the largest absolute entry of each row of y, far below
    any other for a zero row."""
    top = np.abs(y).max(axis=-1)
    return np.where(top > 0, np.frexp(top)[1], -(1 << 20))


def _ldexp(y: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Each row of the complex y times 2^k of its row, exactly: a zero stays zero at any k."""
    return np.ldexp(np.ascontiguousarray(y).view(float), k[:, None]).view(complex)


def is_positive_sampled(
    f: Channel, trials: int = 64, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Sampled check that F maps positive elements to positive elements.

    Above 2^500 the images are formed from F 2^-e, whose entries are at most
    2^500, and decided scaled by 2^-e, as `is_schwarz_sampled` decides its gap.
    """
    e = f._exponent
    m = f.matrix * np.ldexp(1.0, -e) if e else f.matrix
    return _sampled_check(
        f, "positive", trials, seed, tol,
        lambda x: (_apply_batch(m, alg._gram(f.domain, x)), e),
        ("image of a positive element is not self-adjoint", "negative eigenvalue"))


def is_schwarz_sampled(
    f: Channel, trials: int = 64, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Sampled Kadison-Schwarz check F(B*B) >= ||F(1)|| F(B)* F(B).

    The second term is cubic in F, so above 2^250 it could overflow.  There
    the terms are formed from F 2^-e, whose entries are at most 2^250, and
    each trial's gap 2^e F'(B*B) - 2^3e ||F'(1)|| F'(B)* F'(B) is decided
    scaled by 2^-s, with s >= 0 the binary exponent of its larger nonzero term,
    so that term is not lost to the other's exponent.  A failure then reports
    the eigenvalue of the scaled gap.
    """
    e = alg.scale_exponent(f.matrix, 250)
    m = f.matrix * np.ldexp(1.0, -e) if e else f.matrix
    unit_norm = alg.norm(alg._adopt(f.codomain, m @ alg.vec(alg.unit(f.domain))))

    def gap(x):
        fb = _apply_batch(m, x)
        lhs = _apply_batch(m, alg._gram(f.domain, x))
        rhs = unit_norm * alg._gram(f.codomain, fb)
        if not e:
            return lhs - rhs, 0
        s = np.maximum(np.maximum(e + _exponent(lhs), 3 * e + _exponent(rhs)), 0)
        return _ldexp(lhs, e - s) - _ldexp(rhs, 3 * e - s), s

    return _sampled_check(f, "schwarz", trials, seed, tol, gap,
                          ("Schwarz gap is not self-adjoint", "Schwarz inequality violated"))


def s_positivity_equation(
    f: Channel, g: Channel, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Check F(G(C) B) = F(G(C)) F(B) on all basis pairs (`_s_positivity_failures`).

    This is the equational consequence that holds for Schwarz-positive unital
    F, G whenever the composite F o G is deterministic.
    """
    if g.codomain != f.domain:
        raise ShapeMismatch("channels are not composable")
    bad, = _s_positivity_failures((g.domain, f.domain, f.codomain), f.matrix[None],
                                  g.matrix[None], tol)
    if bad is not None:
        ci, bi = divmod(bad, f.domain.coord_dim)
        return _report(
            "s-positivity-equation", False, tol.eq,
            witness={"outer_input": _grid.unit(g.domain, ci),
                     "inner_input": _grid.unit(f.domain, bi),
                     "outer_index": ci, "inner_index": bi},
            detail="F(G(C) B) != F(G(C)) F(B)",
        )
    return _report("s-positivity-equation", True, tol.eq)


def _s_positivity_failures(shapes: tuple, fm: np.ndarray, gm: np.ndarray,
                           tol: Tolerance) -> list[int | None]:
    """Per trial of the matrices fm (T, c, d) of maps F: mid ~> cod and gm (T, d, r) of
    maps G: dom ~> mid, shapes (dom, mid, cod): the row-major index c d + b of the
    first pair (E_c, E_b) with F(G(E_c) E_b) != F(G(E_c)) F(E_b), decided by
    `_grid.first_failure`; None when every pair passes.

    The grids run on F and G as they are unless a product overflows.  Then each
    trial runs on F 2^-e and G 2^-k, with its own e and k that put the entries at
    most 2^250 and 2^500 (0 where they are already), with the left side scaled by
    a further 2^-e and the floor 1 by 2^-(2e + k); an entry whose operands all
    fall below 2^(2e + k - 1074) then compares zeros.
    """
    dom, mid, cod = shapes
    d, live = mid.coord_dim, _grid._live

    def grid(e: np.ndarray, k: np.ndarray) -> list[int | None]:
        scaled, c = e.any() or k.any(), np.ldexp(1.0, -e)[:, None, None]
        f, g = (fm * c, gm * np.ldexp(1.0, -k)[:, None, None]) if scaled else (fm, gm)
        f_t = np.ascontiguousarray(f.swapaxes(-1, -2))   # rows F(E_b), columns the rows R_r of F
        img = alg._stacks(cod, f_t)
        outer = alg._stacks(cod, (f @ g).swapaxes(-1, -2))
        g_t = g.swapaxes(-1, -2)[..., alg.adjoint_index(mid)]   # G(E_c)^T, one row per c

        def operands(on, r0, r1):   # F(G(E_c) E_b)_r = (G(E_c)^T R_r)_b
            lhs = alg._mul_columns(mid, live(g_t, on)[:, r0:r1], live(f_t, on)[:, None], True)
            lhs = lhs.reshape(len(on), -1, cod.coord_dim)
            return (lhs * live(c, on) if scaled else lhs,
                    alg._join(cod, [_grid.products(live(x, on)[:, r0:r1], live(y, on))
                                    for x, y in zip(outer, img)]))

        return _grid.first_failure(cod, dom.coord_dim, d, operands, tol,
                                   unit=np.ldexp(1.0, -(2 * e + k)))

    try:
        with np.errstate(over="raise", invalid="raise"):
            return grid(*2 * [np.zeros(len(fm), dtype=int)])
    except FloatingPointError:
        return grid(alg.scale_exponent(fm, 250), alg.scale_exponent(gm, 500))
