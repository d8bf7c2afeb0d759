"""Randomized invariant suites for every module, with seeded generators.

Each suite draws its own instances from a seeded RNG, checks the invariants
that should hold on them, and reports one CheckResult per invariant: its
verdict, with a detail string where the check measures a worst deviation or
names the step that failed.  The CLI `props` command and the acceptance
tests both run these.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as alg
from . import finstoch as fs
from ._grid import equal_failure, multiplicative_failure, star_failure
from .algebra import AlgebraShape, AlgElement, _gram
from .bayes import (_candidate, _pairing, _preservation, bayes_candidate, bayes_problem,
                    verify_bayes, verify_disintegration)
from .channel import (
    Channel,
    _ad_matrix,
    _apply_batch,
    _cp_verdicts,
    _hs_adjoints,
    _inverses,
    _kraus_matrix,
    _owned,
    _s_positivity_failures,
    _tensor_matrix,
    compose,
    conjugation_by,
    invert,
    is_deterministic,
    is_schwarz_sampled,
    is_star_preserving,
    is_unital,
    hs_adjoint,
    identity_channel,
    mult_map,
    s_positivity_equation,
    tensor,
    transpose_channel,
)
from .corpus import (CheckResult, _build_mu_norm, _check, _compression_matrices, _padded,
                     _same_map, _vanishes, doubling_pair, padded_inclusion)
from .linalg import herm_eig, op_norm, pinv_psd
from .state import (State, _from_densities, ae_deterministic, ae_equal, ae_unital,
                    pullback_state, state_from_density)
from .tolerances import DEFAULT_TOL

__all__ = [
    "SuiteReport",
    "run_suite",
    "run_all",
    "suite_names",
    "disintegration_instance",
    "random_unitary",
    "random_cpu_channel",
    "random_rank_deficient_state",
]


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"suite": self.name, "checks": [c.to_dict() for c in self.checks]}


def _gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A standard complex Gaussian array: its real parts drawn, then its imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    return _unitaries(_gaussian(rng, (n, n)))


def _unitaries(gin: np.ndarray) -> np.ndarray:
    """The unitaries of `random_unitary` from its draws gin (..., n, n), one stacked QR:
    Q with each column times the phase of R's diagonal entry."""
    q, r = np.linalg.qr(gin)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _isometry_draw(n_dom: int, n_cod: int) -> tuple[int, int]:
    """The shape of the draw of `random_cpu_channel` with its default Kraus count."""
    return max(2, -(-n_cod // n_dom) + 1) * n_dom, n_cod


def random_cpu_channel(n_dom: int, n_cod: int, rng: np.random.Generator) -> Channel:
    """Random CPU map M_n_dom ~> M_n_cod from a stacked-isometry Kraus family."""
    return _owned(AlgebraShape((n_dom,)), AlgebraShape((n_cod,)),
                  _cpu_matrices(_gaussian(rng, _isometry_draw(n_dom, n_cod)), n_dom))


def _cpu_matrices(gin: np.ndarray, n_dom: int) -> np.ndarray:
    """The matrices of `random_cpu_channel` from its draws gin (..., r n_dom, n_cod), one
    stacked QR: the Kraus operators are the r blocks of n_dom rows of each isometry."""
    iso = np.linalg.qr(gin)[0]
    return _kraus_matrix(iso.reshape(iso.shape[:-2] + (-1, n_dom, iso.shape[-1])))


def _random_star_preserving(s: AlgebraShape, t: AlgebraShape, rng) -> Channel:
    """The star-preserving part b |-> (F(b) + F(b*)*) / 2 of a random map F."""
    return _owned(s, t, _star_preserving_parts(s, t, _gaussian(rng, (t.coord_dim, s.coord_dim))))


def _star_preserving_parts(s: AlgebraShape, t: AlgebraShape, raw: np.ndarray) -> np.ndarray:
    """The matrices of the star-preserving parts of the maps s ~> t with matrices raw
    (..., t.coord_dim, s.coord_dim).

    Column a of a part is (F(E_a) + F(E_a*)*) / 2, read off the matrix of F at
    the adjoint indices of s and t.
    """
    mirror = raw[..., alg.adjoint_index(t)[:, None], alg.adjoint_index(s)].conj()
    return 0.5 * (raw + mirror)


def _random_projection(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """Projection onto a random nonzero subspace of every block."""
    proj_blocks = []
    for n in s.blocks:
        keep = int(rng.integers(1, n + 1))
        u = random_unitary(n, rng) if n > 1 else np.ones((1, 1), dtype=complex)
        proj_blocks.append(_leading_projections(u[None], np.array([keep]))[0])
    return AlgElement(s, tuple(proj_blocks))


def _leading_projections(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The projections onto the first keep[i] columns of the unitaries u[i] (T, n, n):
    C C* for those columns C, one product per unitary, stacked per column count."""
    out = np.empty_like(u)
    for k in np.unique(keep):
        rows = keep == k
        cols = u[rows, :, :k]
        out[rows] = cols @ alg._dagger(cols)
    return out


def random_rank_deficient_state(
    s: AlgebraShape, rng: np.random.Generator, full: bool = False
) -> State:
    """Random density, optionally compressed onto a random proper subspace."""
    rho = alg.random_density(s, rng)
    if full:
        return state_from_density(rho)
    proj = _random_projection(s, rng)
    return state_from_density(alg._adopt(s, _compressed(s, alg.vec(rho), alg.vec(proj))[0]))


def _compressed(s: AlgebraShape, rho: np.ndarray, proj: np.ndarray):
    """(density, weight) for the coordinates (..., coord_dim) of densities rho and
    projections Q: the compression Q rho Q divided by its trace, or rho where
    that trace is at most tol.eq, as the compression of a unit-trace density
    then carries no weight; and whether it carried weight."""
    c = alg._mul_coords(s, alg._mul_coords(s, proj, rho), proj)
    tr = alg._trace_coords(s, c).real
    weight = tr > DEFAULT_TOL.eq
    scaled = c * (1.0 / np.where(weight, tr, 1.0))[..., None]
    return np.where(weight[..., None], scaled, rho), weight


# ---------------------------------------------------------------------------
# disintegration instance families (also used by the acceptance suite)
# ---------------------------------------------------------------------------


def disintegration_instance(
    kind: str, rng: np.random.Generator, max_dim: int = 6
) -> tuple[Channel, State, Channel]:
    """A CPU channel F, a prior on its codomain, and a CPU disintegration G.

    Families: "unitary" (conjugation by a random unitary and its inverse),
    "padded-block" (block inclusion with the state supported on the embedded
    block), "classical" (embedded deterministic function with its classical
    Bayes inverse).
    """
    if kind == "unitary":
        n = int(rng.integers(2, max_dim + 1))
        u = random_unitary(n, rng)
        s = AlgebraShape((n,))
        f = conjugation_by(AlgElement(s, (u,)))
        g = conjugation_by(AlgElement(s, (u.conj().T,)))
        omega = random_rank_deficient_state(s, rng, full=bool(rng.integers(0, 2)))
        return f, omega, g
    if kind == "padded-block":
        n = int(rng.integers(2, max_dim))
        k = int(rng.integers(1, max_dim + 1))
        dom, cod = AlgebraShape((n,)), AlgebraShape((n, k))
        inclusion = Channel(dom, cod, np.eye(cod.coord_dim, n * n))   # B |-> (B, 0)
        f, g = _padded(inclusion), hs_adjoint(inclusion)
        rho_n = alg.random_density(dom, rng).blocks[0]
        density = AlgElement(cod, (rho_n, np.zeros((k, k), dtype=complex)))
        return f, state_from_density(density), g
    if kind == "classical":
        nx = int(rng.integers(2, max_dim + 1))
        ny = int(rng.integers(2, max_dim + 1))
        func = [int(rng.integers(0, ny)) for _ in range(nx)]
        kern = fs.deterministic_kernel(lambda x: func[x], nx, ny)
        weights = rng.integers(0, 9, size=nx)
        if not weights.any():
            weights[0] = 1
        p = fs.ProbVector._normalized(weights)
        g_kernel = fs.bayes_inverse(kern, p)
        return fs.embed(kern), fs.embed_prob(p), fs.embed(g_kernel)
    raise ValueError(f"unknown instance family {kind!r}")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def moore_penrose_deviation(a: np.ndarray, pinv: np.ndarray) -> float:
    """Worst Moore-Penrose residual of a candidate pseudo-inverse of a.

    A A+ A - A and A+ A A+ - A+ are divided by their backward-error scales
    ||A||^2 ||A+|| and ||A+||^2 ||A||: the rounding error of the products
    grows with the condition number, so a residual relative to ||A|| or
    ||A+|| alone grows with it too on a correct pseudo-inverse.
    """
    a_norm, p_norm = op_norm(a), op_norm(pinv)
    return max(
        op_norm(a @ pinv @ a - a) / (a_norm ** 2 * p_norm),
        op_norm(pinv @ a @ pinv - pinv) / (p_norm ** 2 * a_norm),
    )


def suite_matrix_kernel(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    tol = DEFAULT_TOL
    worst_resid, worst_unitary, worst_pinv, worst_submult = 0.0, 0.0, 0.0, 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (m + m.conj().T)
        w, u = herm_eig(h)
        resid = op_norm(h - (u * w) @ u.conj().T) / tol.scale(op_norm(h))
        worst_resid = max(worst_resid, resid)
        worst_unitary = max(worst_unitary, op_norm(u.conj().T @ u - np.eye(n)))
        psd = m.conj().T @ m
        worst_pinv = max(worst_pinv, moore_penrose_deviation(psd, pinv_psd(psd)))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        bound = op_norm(m) * op_norm(b)
        worst_submult = max(worst_submult, (op_norm(m @ b) - bound) / tol.scale(bound))
    # each worst value is already divided by its scale: max(1, ||H||) for the residual,
    # ||1|| = 1 for unitarity, the backward-error scales of `moore_penrose_deviation`, and
    # max(1, ||M|| ||B||) for the excess of ||M B||
    worst = (worst_resid, worst_unitary, worst_pinv, worst_submult)
    laws = (("eigendecomposition reconstructs Hermitian inputs", "worst residual"),
            ("eigenvector matrices are unitary", "worst deviation"),
            ("pseudo-inverse satisfies the Moore-Penrose identities", "worst deviation"),
            ("operator norm is submultiplicative", "worst relative excess"))
    checks = [_check(desc, ok, f"{what} {w:.3g}")
              for (desc, what), w, ok in zip(laws, worst, _vanishes(worst))]
    return SuiteReport("matrix-kernel", tuple(checks))


_ALGEBRA_SHAPES = (AlgebraShape((2,)), AlgebraShape((1, 2)), AlgebraShape((2, 3)),
                   AlgebraShape((1, 1, 1)))


def _unit_laws() -> bool:
    """1 E = E 1 = E for every matrix unit E of every shape of the algebra suite."""
    for s in _ALGEBRA_SHAPES:
        one, units = alg.vec(alg.unit(s)), np.eye(s.coord_dim, dtype=complex)
        if not (alg._coords_equal(s, alg._mul_coords(s, one, units), units, DEFAULT_TOL)
                and alg._coords_equal(s, alg._mul_coords(s, units, one), units, DEFAULT_TOL)):
            return False
    return True


def _algebra_laws(rng: np.random.Generator, trials: int) -> tuple[bool, bool, bool]:
    """Associativity, the involution reversing products and the multiplicativity
    of the tensor product, each on `trials` random triples (a, b, c) of one drawn
    shape and pairs (a2, b2) of another.

    Every trial draws its shapes and elements in turn, as one trial after another
    would; the laws are then decided once per shape, and per shape pair, on the
    stacked coordinates of all trials that drew it.
    """
    n = len(_ALGEBRA_SHAPES)
    first, second = np.empty(trials, dtype=int), np.empty(trials, dtype=int)
    abc, ab2 = [], []
    for t in range(trials):
        first[t] = rng.integers(0, n)
        abc.append(alg._random_coords(_ALGEBRA_SHAPES[first[t]], rng, (3,)))
        second[t] = rng.integers(0, n)
        ab2.append(alg._random_coords(_ALGEBRA_SHAPES[second[t]], rng, (2,)))

    def stacked(draws, rows, k, s):   # the k operands of the given trials, each (rows, d)
        return np.array([draws[t] for t in rows], dtype=complex).reshape(
            rows.size, k, s.coord_dim).swapaxes(0, 1)

    eq, mul, adj, tensor, tol = (alg._coords_equal, alg._mul_coords, alg._adjoint_coords,
                                 alg._tensor_coords, DEFAULT_TOL)
    assoc_ok, star_ok, tensor_ok = True, True, True
    for i, s in enumerate(_ALGEBRA_SHAPES):
        rows = np.flatnonzero(first == i)
        a, b, c = stacked(abc, rows, 3, s)
        ab = mul(s, a, b)
        assoc_ok = assoc_ok and eq(s, mul(s, ab, c), mul(s, a, mul(s, b, c)), tol)
        star_ok = star_ok and eq(s, adj(s, ab), mul(s, adj(s, b), adj(s, a)), tol)
        for j, s2 in enumerate(_ALGEBRA_SHAPES):
            pick = second[rows] == j
            a2, b2 = stacked(ab2, rows[pick], 2, s2)
            ts = alg.tensor_shape(s, s2)
            tensor_ok = tensor_ok and eq(
                ts, mul(ts, tensor(s, s2, a[pick], a2), tensor(s, s2, b[pick], b2)),
                tensor(s, s2, ab[pick], mul(s2, a2, b2)), tol)
    return assoc_ok, star_ok, tensor_ok


def suite_algebra(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    checks = [_check("unit laws hold exactly on matrix units", _unit_laws())]
    assoc_ok, star_ok, tensor_ok = _algebra_laws(rng, trials)
    checks.append(_check("multiplication is associative on random elements", assoc_ok))
    checks.append(_check("involution reverses products", star_ok))
    checks.append(_check("tensor of elements is multiplicative", tensor_ok))

    a = alg.random_element(AlgebraShape((2, 3)), rng)
    checks.append(_check("involution is involutive",
                         alg.elem_equal(alg.adjoint(alg.adjoint(a)), a)))

    bad = [c.desc for c in _build_mu_norm() if not c.passed]
    checks.append(_check("multiplication map reaches norm n on the unit-norm witness",
                         not bad, "; ".join(bad)))
    return SuiteReport("algebra", tuple(checks))


def suite_channel(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    adj_ok, contra_ok = _adjoint_laws(rng, max(4, trials // 8))
    checks = [
        _check("Hilbert-Schmidt adjoint is involutive and dual to the pairing", adj_ok),
        _check("adjoint reverses composition", contra_ok),
        _check("CP is closed under composition and tensor",
               _cp_closure(rng, max(4, trials // 16))),
        _check("one multiplicative input extends to all mixed products",
               *_multiplicative_domain(rng, max(4, trials // 8))),
        _check("invertible conjugations are deterministic",
               _invertible_conjugations(rng, max(4, trials // 16))),
    ]

    t = transpose_channel(AlgebraShape((3,)))
    consistent = (
        _same_map(invert(t), t)
        and not is_deterministic(t).passed
        and not is_schwarz_sampled(t, trials=trials, seed=seed).passed
    )
    checks.append(_check(
        "transpose is invertible yet not deterministic, consistent with failing Schwarz",
        consistent))

    t2 = transpose_channel(AlgebraShape((2,)))
    spos_ok = (_compressions_pass(rng, max(3, trials // 16))
               and not s_positivity_equation(t2, t2).passed)
    checks.append(_check(
        "S-positivity equation holds for CPU compressions and fails for the transpose",
        spos_ok))
    return SuiteReport("channel", tuple(checks))


# Each part of the channel suite below draws its trials in turn, as one trial after
# another would, and then decides each law once, on the stacked trials.  A part that
# finds a failure has drawn every trial, where a loop would have stopped at it.

def _cpu_pairs(rng: np.random.Generator, trials: int, extra=lambda: ()) -> tuple[np.ndarray, ...]:
    """The matrices (T, 9, 4) of `trials` random CPU maps F: M_2 ~> M_3 and (T, 4, 9) of
    G: M_3 ~> M_2, each trial drawing F, G and then extra(), and the stacked draws of
    extra, one array per value it returns."""
    draws = [(_gaussian(rng, _isometry_draw(2, 3)), _gaussian(rng, _isometry_draw(3, 2)),
              *extra()) for _ in range(trials)]
    f, g, *rest = (np.array(x) for x in zip(*draws))
    return (_cpu_matrices(f, 2), _cpu_matrices(g, 3), *rest)


def _adjoint_laws(rng: np.random.Generator, trials: int) -> tuple[bool, bool]:
    """(the Hilbert-Schmidt adjoint is involutive and dual to the trace pairing, it
    reverses composition) on `trials` random CPU maps F: M_2 ~> M_3 and G: M_3 ~> M_2,
    with a random self-adjoint a in M_3 and b in M_2 per trial for the pairing.

    Both maps are compared as `_same_map` compares them, by `equal_failure`.  The two
    sides of the pairing tr(a* F(b)) = tr(F*(a)* b) are <vec a, M vec b> for the
    channel matrix M, at most |vec a| |M|_F |vec b|: the bound of the gap, at 1 or more.
    """
    m2, m3, tol = AlgebraShape((2,)), AlgebraShape((3,)), DEFAULT_TOL
    f, g, a, b = _cpu_pairs(rng, trials, lambda: (alg._random_coords(m3, rng),
                                                  alg._random_coords(m2, rng)))
    a = 0.5 * (a + alg._adjoint_coords(m3, a))
    f_star, g_star = _hs_adjoints(f), _hs_adjoints(g)
    adj_ok = equal_failure(m3, _hs_adjoints(f_star), f, tol) == [None] * trials
    contra_ok = equal_failure(m3, _hs_adjoints(f @ g), g_star @ f_star, tol) == [None] * trials
    mul, adj, trace = alg._mul_coords, alg._adjoint_coords, alg._trace_coords
    lhs = trace(m3, mul(m3, adj(m3, a), _apply_batch(f, b)))
    rhs = trace(m2, mul(m2, adj(m2, _apply_batch(f_star, a)), b))
    scale = (np.linalg.norm(a, axis=-1) * np.linalg.norm(f, axis=(-2, -1))
             * np.linalg.norm(b, axis=-1))
    pairing = alg.failing_entries(alg._SCALARS, lhs[:, None], rhs[:, None], tol,
                                  unit=np.maximum(1.0, scale))
    return adj_ok and not pairing.any(), contra_ok


def _cp_closure(rng: np.random.Generator, trials: int) -> bool:
    """Whether F o G and F (x) G are CP for `trials` random CPU maps F: M_2 ~> M_3 and
    G: M_3 ~> M_2, by `_cp_verdicts` on the stacked composites and tensor products."""
    m2, m3 = AlgebraShape((2,)), AlgebraShape((3,))
    f, g = _cpu_pairs(rng, trials)
    m6 = alg.tensor_shape(m2, m3)
    for dom, cod, mat in ((m3, m3, f @ g), (m6, m6, _tensor_matrix((m3, m2), (m2, m3), f, g))):
        not_sa, negative, _, _ = _cp_verdicts(dom, cod, mat, DEFAULT_TOL)
        if (not_sa | negative).any():
            return False
    return True


def _multiplicative_domain(rng: np.random.Generator, trials: int) -> tuple[bool, str]:
    """(passed, detail) on `trials` random isometries V: C^2 -> C^5 and F: X |-> V* X V:
    whether b = V c V* + Q d Q, Q = 1 - V V*, for random c and d, satisfies
    F(b* b) = F(b)* F(b), and then F(b* x) = F(b)* F(x) and F(x* b) = F(x)* F(b) for
    a random x.  Each trial draws V, c, d and x; every law of every trial is one
    entry of one `failing_entries` call, the rule of `elem_equal`, and the detail
    names the law a loop would have stopped at.
    """
    n, m = 2, 5
    small, big = AlgebraShape((n,)), AlgebraShape((m,))
    draws = [(_gaussian(rng, (m, n)), _gaussian(rng, (n, n)), _gaussian(rng, (m, m)),
              alg._random_coords(big, rng)) for _ in range(trials)]
    gin, c, d, x = (np.array(z) for z in zip(*draws))
    v = np.linalg.qr(gin)[0]
    vh = alg._dagger(v)
    comp = np.eye(m) - v @ vh
    f = _ad_matrix(vh)   # X |-> V* X V
    b = (v @ c @ vh + comp @ d @ comp).reshape(trials, m * m)
    fb, fx = _apply_batch(f, b), _apply_batch(f, x)
    mul, adj = alg._mul_coords, alg._adjoint_coords
    lhs = [_apply_batch(f, _gram(big, b)), _apply_batch(f, mul(big, adj(big, b), x)),
           _apply_batch(f, mul(big, adj(big, x), b))]
    rhs = [_gram(small, fb), mul(small, adj(small, fb), fx), mul(small, adj(small, fx), fb)]
    fail = alg.failing_entries(small, np.stack(lhs, axis=1), np.stack(rhs, axis=1), DEFAULT_TOL)
    bad = np.flatnonzero(fail.any(axis=1))
    if not bad.size:
        return True, ""
    return False, ("constructed element left the multiplicative domain" if fail[bad[0], 0]
                   else "two-sided conclusion fails")


def _deterministic(s: AlgebraShape, mats: np.ndarray) -> bool:
    """Whether the maps s ~> s with matrices mats (T, d, d) are all deterministic, as
    `is_deterministic` decides each: the star test, then `multiplicative_failure`."""
    maps = [_owned(s, s, m) for m in mats]
    return (all(star_failure(f, DEFAULT_TOL) is None for f in maps)
            and multiplicative_failure(maps, DEFAULT_TOL) == [None] * len(maps))


def _invertible_conjugations(rng: np.random.Generator, trials: int) -> bool:
    """Whether F^-1 o F is the identity and F is deterministic for the conjugations
    F: A |-> u A u* by `trials` random unitaries u of sizes 2 to 4.  Each trial draws
    its size and its u; the maps of one size are one stack."""
    draws = []
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        draws.append((n, _gaussian(rng, (n, n))))
    for n in sorted({n for n, _ in draws}):
        s = AlgebraShape((n,))
        f = _ad_matrix(_unitaries(np.array([gin for k, gin in draws if k == n])))
        if not (equal_failure(s, _inverses(f) @ f, np.eye(n * n)[None], DEFAULT_TOL)
                == [None] * len(f) and _deterministic(s, f)):
            return False
    return True


def _compressions_pass(rng: np.random.Generator, trials: int) -> bool:
    """Whether the composite of every `compression_pair(2, 5, rng)` (down, up) of
    `trials` is deterministic and the pair satisfies the S-positivity equation, as
    `s_positivity_equation(down, up)` decides it.  Each trial draws its isometry."""
    small, big = AlgebraShape((2,)), AlgebraShape((5,))
    v = np.linalg.qr(np.array([_gaussian(rng, (5, 2)) for _ in range(trials)]))[0]
    down, up = _compression_matrices(v)
    return (_deterministic(small, down @ up)
            and _s_positivity_failures((small, big, small), down, up, DEFAULT_TOL)
            == [None] * trials)


_STATE_SHAPES = (AlgebraShape((3,)), AlgebraShape((2, 2)), AlgebraShape((1, 3)))


def _by_shape(drawn: list[tuple]):
    """(shape, stacked fields) for every shape of _STATE_SHAPES that some trial
    drew, from trials (shape index, field, ...)."""
    for i, s in enumerate(_STATE_SHAPES):
        rows = [t[1:] for t in drawn if t[0] == i]
        if rows:
            yield s, [np.array(x) for x in zip(*rows)]


def _minimal_supports(rng: np.random.Generator, trials: int) -> bool:
    """Whether the support P of every compressed random density is dominated by
    the compressing projection Q (Q P = P) and its state omega is blind to the
    complement: omega((1 - P) a) = 0 at the floor max(1, ||a||) for a random a.

    Every trial draws a shape, a density, a projection and, when the
    compression carries weight, the element a, as one trial after another
    would; the states, their supports and both checks are then decided per
    shape on the stacked trials.
    """
    tol, drawn = DEFAULT_TOL, []
    for _ in range(trials):
        i = int(rng.integers(0, len(_STATE_SHAPES)))
        s = _STATE_SHAPES[i]
        rho = alg.vec(alg.random_density(s, rng))
        proj = alg.vec(_random_projection(s, rng))
        density, weight = _compressed(s, rho, proj)
        if weight:   # a compression with no weight is skipped and draws no element
            drawn.append((i, proj, density, alg._random_coords(s, rng)))
    ok = True
    for s, (proj, density, a) in _by_shape(drawn):
        p = np.array([alg.vec(omega.support) for omega in _from_densities(s, density)])
        x = alg._mul_coords(s, alg._unit_coords(s) - p, a)
        # |omega(X)| <= ||X|| <= ||a||
        blind = alg._trace_coords(s, alg._mul_coords(s, density, x))
        ok = ok and alg._coords_equal(s, alg._mul_coords(s, proj, p), p, tol) and bool(
            _vanishes(blind, np.maximum(1.0, alg._op_norm(alg._stacks(s, a)))).all())
    return ok


def _nullspace_trials(rng: np.random.Generator, trials: int) -> bool:
    """Whether a = m (1 - P), for the support P of a random state omega and a
    random m, has omega(a* a) = 0 under the equality rule at the floor
    max(1, ||a||^2) and lies in the right nullspace, as `NullspaceTest` decides
    it: a P = 0 under the rule with the support.

    Every trial draws a shape, a density and m in turn; the states, their
    supports and the checks are then decided per shape on the stacked trials.
    """
    tol, drawn = DEFAULT_TOL, []
    for _ in range(trials):
        i = int(rng.integers(0, len(_STATE_SHAPES)))
        s = _STATE_SHAPES[i]
        drawn.append((i, alg.vec(alg.random_density(s, rng)), alg._random_coords(s, rng)))
    ok = True
    for s, (density, m) in _by_shape(drawn):
        p = np.array([alg.vec(omega.support) for omega in _from_densities(s, density)])
        a = alg._mul_coords(s, m, alg._unit_coords(s) - p)
        norm = alg._op_norm(alg._stacks(s, a))
        val = alg._trace_coords(s, alg._mul_coords(s, density, _gram(s, a)))
        null = alg.failing_entries(s, a[:, None], np.zeros(s.coord_dim), tol, p, "right")
        ok = ok and bool(_vanishes(val, np.maximum(1.0, norm ** 2)).all()) and not null.any()
    return ok


def _ae_trials(rng: np.random.Generator, trials: int) -> np.ndarray:
    """(ae_equal left, ae_equal right, ae_deterministic left, ae_deterministic
    right) of every trial, one row each: a random star-preserving F: M_2 ~> M_3,
    a rank-deficient state omega, and G = F changed only on the complement of
    its support (a coin flip) or another random map.

    Every trial draws F, the density, the projection, the coin and then the
    change or G, as one trial after another would.  The star-preserving parts,
    the densities, the projections (from one stacked QR), the states (from one
    stacked eigh) and the changed maps are then built on the stacks of all
    trials, and the four verdicts of all trials come from the stacked cores of
    `ae_equal` and `ae_deterministic`, one call per check and side.
    """
    s, t = AlgebraShape((2,)), AlgebraShape((3,))
    n, shape = t.blocks[0], (t.coord_dim, s.coord_dim)
    draws = [(_gaussian(rng, shape), alg._random_coords(t, rng), int(rng.integers(1, n + 1)),
              _gaussian(rng, (n, n)), bool(rng.integers(0, 2)), _gaussian(rng, shape))
             for _ in range(trials)]
    raw_f, rho, keep, gin, coins, raw_g = (np.array(x) for x in zip(*draws))
    fm, gm = _star_preserving_parts(s, t, raw_f), _star_preserving_parts(s, t, raw_g)
    proj = _leading_projections(_unitaries(gin), keep).reshape(trials, -1)
    omegas = _from_densities(t, _compressed(t, alg._densities(t, rho), proj)[0])
    supports = [omega.support for omega in omegas]
    # change F only on the support complement C, where the coin says so: F + C G(.) C, so
    # the verdicts flip to pass
    comp = alg._unit_coords(t) - np.array([alg.vec(p) for p in supports])[coins]
    gm[coins] = fm[coins] + _ad_matrix(comp.reshape(-1, n, n)) @ gm[coins]
    fs = [_owned(s, t, m) for m in fm]
    sides = ("left", "right")
    bad = ([equal_failure(t, fm, gm, DEFAULT_TOL, supports, side) for side in sides]
           + [multiplicative_failure(fs, DEFAULT_TOL, True, supports, side) for side in sides])
    return np.array([[b is None for b in trial] for trial in zip(*bad)])


def suite_state(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    checks = [
        _check("support is dominated by any projection carrying the state",
               _minimal_supports(rng, max(4, trials // 8))),
        _check("right-multiplying into the support complement lands in the nullspace",
               _nullspace_trials(rng, max(4, trials // 8))),
    ]
    verdicts = _ae_trials(rng, max(8, trials // 4))
    checks.append(_check("left and right verdicts agree for star-preserving channels",
                         bool((verdicts[:, 0] == verdicts[:, 1]).all()
                              and (verdicts[:, 2] == verdicts[:, 3]).all())))

    f_pad = padded_inclusion(2, 3)
    sigma = alg.random_density(AlgebraShape((2,)), rng).blocks[0]
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = sigma
    omega_pad = state_from_density(AlgElement(AlgebraShape((3,)), (rho,)))
    weak_ok = (_weakly_multiplicative(f_pad, omega_pad.support, rng, 128)
               and ae_deterministic(f_pad, omega_pad, "right").passed)
    checks.append(_check(
        "single-variable multiplicativity on the support upgrades to two variables",
        weak_ok))

    f_d, g_d = doubling_pair(0.5)
    omega_d = state_from_density(
        AlgElement(AlgebraShape((2,)), (np.diag([1.0, 0.0]).astype(complex),)))
    mu = mult_map(AlgebraShape((2,)))
    doubling_fails = (
        ae_equal(f_d, g_d, omega_d, "right").passed
        and not ae_equal(compose(mu, tensor(f_d, f_d)), compose(mu, tensor(g_d, g_d)),
                         omega_d, "right").passed
    )
    checks.append(_check("doubling breaks a.e. equality on the corner state", doubling_fails))
    return SuiteReport("state-ae", tuple(checks))


def _weakly_multiplicative(f: Channel, p: AlgElement, rng: np.random.Generator,
                           trials: int) -> bool:
    """Whether F(b* b) P = F(b)* F(b) P on `trials` random elements b, drawn one after
    another and decided as one stack."""
    s, t = f.domain, f.codomain
    x = alg._random_coords(s, rng, (trials,))
    fx, p = _apply_batch(f.matrix, x), alg.vec(p)
    return alg._coords_equal(t, alg._mul_coords(t, _apply_batch(f.matrix, _gram(s, x)), p),
                             alg._mul_coords(t, _gram(t, fx), p), DEFAULT_TOL)


def _drop_smallest_eigenvalue(omega: State) -> State:
    """The prior compressed onto the span of all but its smallest eigenvector.

    Used on single-block priors of dimension >= 2, so the result is
    certainly rank-deficient yet nonzero.
    """
    w, u = np.linalg.eigh(omega.density.blocks[0])
    keep = u[:, 1:]
    rho = keep @ np.diag(w[1:]) @ keep.conj().T
    return state_from_density(AlgElement(omega.shape, (rho / np.trace(rho).real,)))


def suite_bayes(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    preserve_ok, unique_ok, disint_ok, relexp_ok = _bayes_laws(rng, max(6, trials // 8))
    checks = [
        _check("Bayes candidates of CPU channels pass the left condition and preserve states",
               preserve_ok),
        _check("two completions of the Bayes candidate are left a.e. equal", unique_ok),
        _check("Bayes maps of a.e. deterministic channels disintegrate them", disint_ok),
        _check("relative conditional expectation holds on disintegration instances", relexp_ok),
        _check("left Bayes maps report one-sided: left a.e. equal yet right-separated, "
               "a.e. unital without unitality", _one_sided(rng, max(6, trials // 8)))]
    comp_ok = True
    for _ in range(max(3, trials // 16)):
        # chain: M_3 ~H~> M_2 ~F~> M_2 with a faithful prior upstream
        f, omega, _ = disintegration_instance("unitary", rng, max_dim=3)
        h = random_cpu_channel(3, f.domain.blocks[0], rng)
        prob_f = bayes_problem(f, omega)
        prob_h = bayes_problem(h, prob_f.pullback)
        joint = compose(bayes_candidate(prob_h).candidate, bayes_candidate(prob_f).candidate)
        comp_ok = comp_ok and verify_bayes(compose(f, h), omega, prob_h.pullback, joint,
                                           "left").passed
    checks.append(_check("Bayes candidates compose along composable problems", comp_ok))
    symm_ok = True
    for _ in range(max(3, trials // 16)):
        f, omega, g = disintegration_instance("unitary", rng, max_dim=4)
        xi = pullback_state(omega, f)
        if is_star_preserving(g).passed and verify_bayes(f, omega, xi, g, "left").passed:
            symm_ok = symm_ok and verify_bayes(g, xi, omega, f, "left").passed
    checks.append(_check("star-preserving Bayesian inverses invert symmetrically", symm_ok))
    checks.append(_check("one vanishing Schwarz gap extends to mixed products under the state",
                         _schwarz_gaps(rng, max(3, trials // 16))))
    return SuiteReport("bayes", tuple(checks))


def _bayes_laws(rng: np.random.Generator, trials: int) -> tuple[bool, bool, bool, bool]:
    """(state preservation, a.e. uniqueness, disintegration, relative conditional
    expectation) on `trials` disintegration instances (F, omega, G) of the three
    families in turn; each law of a trial is one `failing_entries` call over all units
    (`bayes._preservation`) or over four random b drawn at once."""
    tol, kinds = DEFAULT_TOL, ("unitary", "padded-block", "classical")
    preserve_ok, unique_ok, disint_ok, relexp_ok = True, True, True, True
    for i in range(trials):
        f, omega, g = disintegration_instance(kinds[i % 3], rng, max_dim=4)
        prob = bayes_problem(f, omega)
        xi = prob.pullback
        result = bayes_candidate(prob)
        if not result.bayes_ok:
            preserve_ok = False
            continue
        dom, cod, sigma = f.domain, f.codomain, alg.vec(xi.density)
        # candidates of unital channels preserve states: xi(G(E)) = omega(E)
        preserve_ok = preserve_ok and not _preservation(
            dom, cod, result.candidate.matrix[None], alg.vec(omega.density)[None],
            sigma[None], tol)[2].any()
        # a.e. uniqueness: a second completion gives a left a.e. equal candidate
        other = bayes_candidate(prob, completion=omega)
        unique_ok = unique_ok and ae_equal(result.candidate, other.candidate, xi, "left").passed
        # a.e. deterministic + right Bayes map => right disintegration; the
        # left-only candidate of a deficient prior is only a left section
        if ae_deterministic(f, omega, "right").passed:
            section = (verify_disintegration(f, omega, result.candidate)
                       if result.bayes_right.passed else
                       ae_equal(compose(result.candidate, f), identity_channel(f.domain), xi,
                                "left"))
            disint_ok = disint_ok and section.passed
        # relative conditional expectation: xi(b* b) against xi(G(F(b))* G(F(b))),
        b = alg._random_coords(dom, rng, (4,))   # xi(G(F(b)* F(b))) and xi(G(F(b* b)))
        fb, bb = _apply_batch(f.matrix, b), _gram(dom, b)
        gs = [_apply_batch(g.matrix, x) for x in (fb, _gram(cod, fb), _apply_batch(f.matrix, bb))]
        sides = np.stack([bb, _gram(dom, gs[0]), gs[1], gs[2]]) @ _pairing(dom, sigma)
        relexp_ok = relexp_ok and not alg.failing_entries(
            alg._SCALARS, sides[1:, :, None], sides[:1, :, None], tol).any()
    return preserve_ok, unique_ok, disint_ok, relexp_ok


def _one_sided(rng: np.random.Generator, rounds: int) -> bool:
    """Whether left Bayes maps report one-sided on `rounds` unitary instances, some
    with a deficient pullback; the shifted candidate is two column products."""
    ok, saw_deficient = True, False
    for i in range(rounds):
        f, omega, _ = disintegration_instance("unitary", rng, max_dim=4)
        if i == rounds - 1 and not saw_deficient:
            omega = _drop_smallest_eigenvalue(omega)  # every draw so far was faithful
        prob = bayes_problem(f, omega)
        xi = prob.pullback
        p_xi = xi.support
        comp = alg.unit(xi.shape) - p_xi
        if alg.norm(comp) <= 0.5:
            continue  # faithful draw; nothing one-sided to see
        saw_deficient = True
        base = bayes_candidate(prob).candidate
        # adding (1 - P) X(.) P keeps the left Bayes condition but moves the
        # candidate off its right a.e. class
        bump = _random_star_preserving(f.codomain, f.domain, rng)
        shift = alg._mul_columns(f.domain, alg.vec(p_xi), alg._mul_columns(
            f.domain, alg.vec(comp), bump.matrix, True), False)
        other = _owned(f.codomain, f.domain, base.matrix + shift)
        ok = ok and verify_bayes(f, omega, xi, other, "left").passed
        ok = ok and ae_equal(base, other, xi, "left").passed
        ok = ok and not ae_equal(base, other, xi, "right").passed
        # a completion-free candidate is a.e. unital without being unital
        bare_chan = _candidate(prob, np.zeros(f.codomain.coord_dim))
        ok = ok and verify_bayes(f, omega, xi, bare_chan, "left").passed
        ok = ok and ae_unital(bare_chan, xi, "left").passed
        ok = ok and not is_unital(bare_chan).passed
    return ok and saw_deficient


def _schwarz_gaps(rng: np.random.Generator, trials: int) -> bool:
    """Whether xi(G(a* x)) = xi(G(a)* G(x)) for the padded inclusion G: M_2 -> M_3, a
    state xi on its M_2 corner, x = a (the vanishing gap) and four random x (the mixed
    products), on `trials` trials drawn in turn and decided as one stack.  |xi(X)| <=
    ||X||, and the CPU map G is contractive: the floor is max(1, ||a|| ||x||)."""
    m2, m3 = AlgebraShape((2,)), AlgebraShape((3,))
    g = padded_inclusion(2, 3).matrix
    draws = [(alg._random_coords(m2, rng), alg._random_coords(m2, rng, (5,)))
             for _ in range(trials)]
    sigma, x = (np.array(z) for z in zip(*draws))   # (T, 4) and (T, 5, 4): a, then each d
    rho = np.zeros((trials, m3.coord_dim), dtype=complex)
    rho[:, [0, 1, 3, 4]] = alg._densities(m2, sigma)   # E_ij of M_2 at E_ij of M_3
    norms = alg._op_norm(alg._stacks(m2, x))
    gx = _apply_batch(g, x)
    lhs = _apply_batch(g, alg._mul_coords(m2, alg._adjoint_coords(m2, x[:, :1]), x))
    rhs = alg._mul_coords(m3, alg._adjoint_coords(m3, gx[:, :1]), gx)
    pair = _pairing(m3, rho)[:, :, None]
    return not alg.failing_entries(alg._SCALARS, lhs @ pair, rhs @ pair, DEFAULT_TOL,
                                   unit=np.maximum(1.0, norms[:, :1] * norms)).any()


def _rational_weights(rng: np.random.Generator, n: int, zero_last: bool = False) -> np.ndarray:
    """n integer weights drawn in 0..6, the last forced to 0 when zero_last, the first
    to 1 when all are 0."""
    weights = rng.integers(0, 7, size=n)
    if zero_last:
        weights[-1] = 0
    if not weights.any():
        weights[0] = 1
    return weights


def _random_rational_prob(rng: np.random.Generator, n: int) -> fs.ProbVector:
    return fs.ProbVector._normalized(_rational_weights(rng, n))


def _random_rational_kernel(rng: np.random.Generator, ny: int, nx: int,
                            zero_row: bool = False) -> fs.StochasticMatrix:
    """An exact ny x nx kernel, one column of weights drawn after another and divided
    by its sum; with zero_row, its last row is 0."""
    cols = [_rational_weights(rng, ny, zero_row) for _ in range(nx)]
    return fs.StochasticMatrix._normalized(np.stack(cols, axis=1))


def suite_finstoch(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    checks = []

    diagram_ok, preserve_ok = True, True
    for _ in range(max(8, trials // 4)):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        f = _random_rational_kernel(rng, ny, nx)
        p = _random_rational_prob(rng, nx)
        g = fs.bayes_inverse(f, p)
        q = fs.push(f, p)
        # g_xy q_y = f_yx p_x on all of X x Y: where q_y = 0, every f_yx p_x is 0 too
        diagram_ok = diagram_ok and fs._bayes_diagram(f, p, g, q)
        preserve_ok = preserve_ok and fs._equal(fs.push(g, q), p)
    checks.append(_check("Bayes diagram holds exactly in rational arithmetic", diagram_ok))
    checks.append(_check("Bayes inverse pushes the output measure back to the input",
                         preserve_ok))

    functor_ok = True
    for _ in range(max(4, trials // 16)):
        f = _random_rational_kernel(rng, 3, 4)
        g = _random_rational_kernel(rng, 2, 3)
        lhs = fs.embed(fs.compose(g, f))
        rhs = compose(fs.embed(f), fs.embed(g))
        functor_ok = functor_ok and _same_map(lhs, rhs)
    checks.append(_check("embedding reverses composition (contravariant functor)", functor_ok))

    # dropping normalization on null columns keeps a.e. unitality
    f = _random_rational_kernel(rng, 4, 3, zero_row=True)
    p = _random_rational_prob(rng, 3)
    q = fs.push(f, p)
    g = fs.bayes_inverse(f, p)
    entries = g.entries.copy()
    entries[:, q.nullset()] = Fraction(0)
    if q.nullset():
        ragged = fs.StochasticMatrix(entries, True)
        chan = fs.embed(ragged)
        rep = ae_unital(chan, fs.embed_prob(q), "right")
        ok = rep.passed and not is_unital(chan).passed
        checks.append(_check("denormalized null columns stay a.e. unital", ok))
    else:
        checks.append(_check("denormalized null columns stay a.e. unital", True,
                             "no null column drawn; vacuous"))

    cross_ok = True
    for _ in range(max(4, trials // 16)):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        f = _random_rational_kernel(rng, ny, nx)
        p = _random_rational_prob(rng, nx)
        chan = fs.embed(f)
        omega = fs.embed_prob(p)
        prob = bayes_problem(chan, omega)
        result = bayes_candidate(prob)
        classical = fs.embed(fs.bayes_inverse(f, p))
        cross_ok = cross_ok and ae_equal(result.candidate, classical, prob.pullback, "right").passed
    checks.append(_check("quantum Bayes candidate matches the classical inverse on the support",
                         cross_ok))
    return SuiteReport("finstoch", tuple(checks))


_SUITES = {
    "matrix-kernel": suite_matrix_kernel,
    "algebra": suite_algebra,
    "channel": suite_channel,
    "state-ae": suite_state,
    "bayes": suite_bayes,
    "finstoch": suite_finstoch,
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str, seed: int = 0, trials: int = 64) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(_SUITES)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _SUITES[name](seed, trials)


def run_all(seed: int = 0, trials: int = 64) -> list[SuiteReport]:
    return [run_suite(name, seed, trials) for name in _SUITES]
