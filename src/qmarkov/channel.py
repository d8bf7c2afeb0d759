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
        alg._finite(m.ravel("K").view(float))   # a float view scans faster than complex
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
    return Channel(s, s, np.eye(s.coord_dim, dtype=np.int8)[alg.adjoint_index(s)])


def ad_channel(v: np.ndarray) -> Channel:
    """Conjugation X |-> v X v* as a channel between single-block algebras.

    For v of shape (p, q) this maps M_q to M_p; v need not be square.
    """
    v = np.asarray(v, dtype=complex)
    p, q = v.shape
    return _owned(AlgebraShape((q,)), AlgebraShape((p,)), np.kron(v, v.conj()))


def conjugation_by(e: AlgElement) -> Channel:
    """Blockwise conjugation A |-> e A e* by an element of the same algebra."""
    xs = alg._stacks(e.shape, alg.vec(e))
    return _owned(e.shape, e.shape, _grid.block_kron(e.shape, xs, [x.conj() for x in xs]))


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
    mat = np.zeros((m * m, n * n), dtype=complex)
    for k in ops:
        mat += np.kron(k.conj().T, k.T)
    return _owned(domain, codomain, mat)


def mult_map(s: AlgebraShape) -> Channel:
    """Multiplication as a channel from the tensor square onto the algebra.

    Sends the coordinate vector of A (x) B to the coordinates of AB; on the
    tensor basis, E_ij^(x) (x) E_kl^(y) maps to delta_xy delta_jk E_il^(x).
    """
    dom = alg.tensor_shape(s, s)
    left, right = alg.tensor_index(s, s)
    # 0/1 entries: a narrow dtype keeps the Channel's own complex copy the only large array;
    # row coord_dim collects the products that vanish
    mat = np.zeros((s.coord_dim + 1, dom.coord_dim), dtype=np.int8)
    mat[alg.product_index(s)[left, right], np.arange(dom.coord_dim)] = 1
    return Channel(dom, s, mat[:-1])


def apply(f: Channel, b: AlgElement) -> AlgElement:
    if b.shape is not f.domain and b.shape != f.domain:
        raise ShapeMismatch("element does not live in the channel domain")
    return alg._adopt(f.codomain, f.matrix @ alg.vec(b))


def compose(f: Channel, g: Channel) -> Channel:
    """Composite f after g (apply g first)."""
    if g.codomain is not f.domain and g.codomain != f.domain:
        raise ShapeMismatch("codomain of the inner channel must match the outer domain")
    return _owned(g.domain, f.codomain, f.matrix @ g.matrix)


def tensor(f: Channel, g: Channel) -> Channel:
    """Tensor product channel acting as F (x) G on elementary tensors.

    Each coordinate of the tensor codomain and domain is a pair of units, so
    every entry of the matrix is one product of an entry of f and one of g.
    """
    dom = alg.tensor_shape(f.domain, g.domain)
    cod = alg.tensor_shape(f.codomain, g.codomain)
    rf, rg = alg.tensor_index(f.codomain, g.codomain)
    cf, cg = alg.tensor_index(f.domain, g.domain)
    return _owned(dom, cod, f.matrix[np.ix_(rf, cf)] * g.matrix[np.ix_(rg, cg)])


_COND_LIMIT = 1e12


def invert(f: Channel) -> Channel:
    """Inverse channel; raises Singular for non-square or ill-conditioned maps."""
    if f.domain.coord_dim != f.codomain.coord_dim:
        raise Singular("channel matrix is not square")
    cond = np.linalg.cond(f.matrix)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise Singular(f"condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}")
    return _owned(f.codomain, f.domain, np.linalg.inv(f.matrix))


def hs_adjoint(f: Channel) -> Channel:
    """Adjoint for the unweighted trace pairing sum_x tr(A_x* B_x).

    The matrix-unit basis is orthonormal for this pairing, so the adjoint is
    the conjugate transpose of the channel matrix.
    """
    return _owned(f.codomain, f.domain, f.matrix.conj().T)


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
    """Complete positivity via the blockwise Choi matrices.

    A CP map has Hermitian PSD Choi matrices, so a non-Hermitian Choi block
    fails outright; otherwise the verdict is the minimum eigenvalue test.
    Both tests are relative to scale = max(1, ||C_y||), the operator norm of
    the Choi matrix C_y of domain block y.

    C_y is block-diagonal over the codomain blocks, so every quantity comes
    from its blocks C_yx and their Hermitian parts H.  max|H_ij| <= ||C_y||
    gives a lower bound lo on the scale: the domain blocks of one size pass
    together when their skew is within tol.herm * lo and `alg._psd_pass`
    proves the PSD test at lo.  Any other group is decided by one batched
    eigvalsh of H per block size, with ||H|| <= ||C_y|| <= ||H|| +
    ||(C - C*) / 2||_F, each widened by alg._SLACK; only a block whose
    verdict differs between the two bounds pays for the exact norm.
    """

    def compute():
        k = len(f.domain.blocks)
        skew, low, passed = np.zeros(k), np.full(k, np.inf), np.zeros(k, dtype=bool)
        herm_norm, skew_frob = np.zeros(k), np.zeros(k)
        for ys, parts in _grid.choi_parts(f):
            top = np.zeros(len(ys))
            for h, diff in parts:
                skew[ys] = np.maximum(skew[ys], np.abs(diff).max(axis=(1, 2, 3)))
                top = np.maximum(top, np.abs(h).max(axis=(1, 2, 3)))   # max|H_ij|
            hs = [h for h, _ in parts]
            floor = np.maximum(1.0, top * (1 - alg._SLACK))   # max|H_ij| <= ||H|| <= ||C_y||
            if (skew[ys] <= tol.herm * floor).all() and alg._psd_pass(hs, floor, tol):
                passed[ys] = True
                continue
            for h, diff in parts:
                w = h.real[..., 0] if h.shape[-1] == 1 else np.linalg.eigvalsh(h)
                low[ys] = np.minimum(low[ys], w[..., 0].min(axis=1))
                herm_norm[ys] = np.maximum(herm_norm[ys], np.abs(w).max(axis=(1, 2)))
                sq = np.add(np.square(diff.real, out=diff.real), np.square(diff.imag, out=diff.imag))
                frob = 0.5 * np.sqrt(sq.sum(axis=(2, 3)))
                skew_frob[ys] = np.maximum(skew_frob[ys], frob.max(axis=1))
        lo = np.maximum(1.0, herm_norm * (1 - alg._SLACK))
        hi = np.maximum(1.0, (herm_norm + skew_frob) * (1 + alg._SLACK))
        # any scale between the bounds settles a block whose verdict agrees at both
        scale = lo.copy()
        open_ = ((skew > tol.herm * lo) != (skew > tol.herm * hi)) | (
            (low < -tol.psd * lo) != (low < -tol.psd * hi))
        for ys, stacks in _grid.choi_blocks(f) if open_.any() else ():   # C again, not H
            pick = open_[ys]
            if pick.any():
                scale[ys[pick]] = np.maximum(1.0, _grid._op_norm([c[pick] for c in stacks]))
        not_herm = skew > tol.herm * scale
        bad = ~passed & (not_herm | (low < -tol.psd * scale))
        if not bad.any():
            return _report("cp", True, tol.psd)
        y = int(bad.argmax())
        if not_herm[y]:
            return _report(
                "cp", False, tol.psd,
                witness={"domain_block": y, "skew_norm": float(skew[y]),
                         "min_eigenvalue": float(low[y])},
                detail=f"Choi matrix of domain block {y} is not Hermitian "
                       f"(skew {skew[y]:.3g}); Hermitian part has eigenvalue {low[y]:.6g}",
            )
        return _report(
            "cp", False, tol.psd,
            witness={"domain_block": y, "min_eigenvalue": float(low[y])},
            detail=f"Choi matrix of domain block {y} has eigenvalue {low[y]:.6g}",
        )

    return f.cached(("cp", tol), compute)


def is_unital(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """F(1) = 1, compared as `elem_equal` does, on coordinates."""

    def compute():
        img = f.matrix @ alg._unit_coords(f.domain)
        if alg._coords_equal(f.codomain, img, alg._unit_coords(f.codomain), tol):
            return _report("unital", True, tol.eq)
        return _report(
            "unital", False, tol.eq, witness={"image_of_unit": alg.unvec(f.codomain, img)},
            detail="F(1) differs from 1",
        )

    return f.cached(("unital", tol), compute)


def is_star_preserving(f: Channel, tol: Tolerance = DEFAULT_TOL) -> PropertyReport:
    """F(B*) = F(B)* for all B, checked on matrix units."""

    def compute():
        img = _grid.images(f.codomain, f.matrix)
        adj = alg.adjoint_index(f.domain)
        bad = _grid.first_failure(
            f.codomain, f.domain.coord_dim, 1,
            lambda r0, r1: ([x[adj[r0:r1]] for x in img], [alg._dagger(x[r0:r1]) for x in img]),
            tol,
        )
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
        bad = _grid.multiplicative_failure(f, tol)
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

    gap maps the coordinates (T, d) of T random domain elements to those
    (T, c) of codomain elements that must be positive.  A trial fails when
    its element is not self-adjoint (reasons[0]) or has a negative
    eigenvalue (reasons[1]), as `is_self_adjoint_elem` and `min_eig` decide.
    A batch holds _grid._CHUNK // max(d, c) trials; a batch whose skew is
    within tol.herm * max(1, max|entry|) and whose positivity
    `alg._psd_pass` proves at that scale passes, any other is decided
    spectrally, and the first batch with a failure reports its first failing
    trial.  A batch with a non-finite element raises ValueError.
    """
    rng = np.random.default_rng(seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dom, cod = f.domain, f.codomain
    step = max(1, _grid._CHUNK // max(dom.coord_dim, cod.coord_dim))
    for t0 in range(0, trials, step):
        x = alg._random_coords(dom, rng, (min(step, trials - t0),))
        out = gap(x)
        alg._finite(out)
        xs = alg._stacks(cod, out)
        skew, hs = alg._max_abs([y - alg._dagger(y) for y in xs]), alg._hermitian(xs)
        floor = np.maximum(1.0, alg._lower(xs))
        if (skew <= tol.herm * floor).all() and alg._psd_pass(hs, floor, tol):
            continue
        scale = np.maximum(1.0, alg._op_norm(xs))
        not_sa = skew > tol.herm * scale
        low = alg._lowest(hs)
        fail = not_sa | (low < -tol.psd * scale)
        if fail.any():
            t = int(fail.argmax())
            bad = ({"reason": reasons[0]} if not_sa[t]
                   else {"reason": reasons[1], "min_eigenvalue": float(low[t])})
            return _report(
                prop, False, tol.psd,
                witness={"trial": t0 + t, "input": alg.unvec(dom, x[t]), **bad},
                detail=f"violation found at trial {t0 + t}",
            )
    return _report(prop, True, tol.psd, detail=f"{trials} trials", sampled=True)


def _apply_batch(f: Channel, x: np.ndarray) -> np.ndarray:
    """F on coordinates (T, d): one matrix-vector product per row, as `apply` computes."""
    return np.matmul(f.matrix, x[..., None])[..., 0]


def _gram(s: AlgebraShape, x: np.ndarray) -> np.ndarray:
    """Coordinates of B*B for the elements B with coordinates x."""
    return alg._mul_coords(s, alg._adjoint_coords(s, x), x)


def is_positive_sampled(
    f: Channel, trials: int = 64, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Sampled check that F maps positive elements to positive elements."""
    return _sampled_check(
        f, "positive", trials, seed, tol, lambda x: _apply_batch(f, _gram(f.domain, x)),
        ("image of a positive element is not self-adjoint", "negative eigenvalue"))


def is_schwarz_sampled(
    f: Channel, trials: int = 64, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Sampled Kadison-Schwarz check F(B*B) >= ||F(1)|| F(B)* F(B)."""
    unit_norm = alg.norm(apply(f, alg.unit(f.domain)))

    def gap(x):
        fb = _apply_batch(f, x)
        return _apply_batch(f, _gram(f.domain, x)) - unit_norm * _gram(f.codomain, fb)

    return _sampled_check(f, "schwarz", trials, seed, tol, gap,
                          ("Schwarz gap is not self-adjoint", "Schwarz inequality violated"))


def s_positivity_equation(
    f: Channel, g: Channel, tol: Tolerance = DEFAULT_TOL
) -> PropertyReport:
    """Check F(G(C) B) = F(G(C)) F(B) on all basis pairs.

    This is the equational consequence that holds for Schwarz-positive unital
    F, G whenever the composite F o G is deterministic.
    """
    if g.codomain != f.domain:
        raise ShapeMismatch("channels are not composable")
    d = f.domain.coord_dim
    img = _grid.images(f.codomain, f.matrix)
    outer = _grid.images(f.codomain, f.matrix @ g.matrix)

    def operands(r0, r1):
        rows = np.repeat(g.matrix[:, r0:r1], d, axis=1)
        inner = _grid.times_unit(f.domain, rows, np.tile(np.arange(d), r1 - r0))  # G(E_c) E_b
        lhs = _grid.images(f.codomain, f.matrix @ inner)
        return lhs, [_grid.products(x[r0:r1], y) for x, y in zip(outer, img)]

    bad = _grid.first_failure(f.codomain, g.domain.coord_dim, d, operands, tol)
    if bad is not None:
        ci, bi = divmod(bad, d)
        return _report(
            "s-positivity-equation", False, tol.eq,
            witness={"outer_input": _grid.unit(g.domain, ci),
                     "inner_input": _grid.unit(f.domain, bi),
                     "outer_index": ci, "inner_index": bi},
            detail="F(G(C) B) != F(G(C)) F(B)",
        )
    return _report("s-positivity-equation", True, tol.eq)
