"""Randomized invariant suites for every module, with seeded generators.

Each suite draws its own instances from a seeded RNG, checks the invariants
that should hold on them, and reports one CheckResult per invariant with
the first witness found on failure.  The CLI `props` command and the
acceptance tests both run these.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as alg
from . import finstoch as fs
from .algebra import AlgebraShape, AlgElement
from .bayes import bayes_candidate, bayes_problem, verify_bayes, verify_disintegration
from .channel import (
    Channel,
    apply,
    channel_from_action,
    compose,
    conjugation_by,
    invert,
    is_cp,
    is_deterministic,
    is_schwarz_sampled,
    is_star_preserving,
    kraus_channel,
    hs_adjoint,
    mult_map,
    s_positivity_equation,
    tensor,
    transpose_channel,
)
from .corpus import CheckResult, _a_n, _check, compression_pair, doubling_pair, padded_inclusion
from .linalg import herm_eig, op_norm, pinv_psd
from .state import State, ae_deterministic, ae_equal, ae_unital, pullback_state, state_from_density

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


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    gin = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(gin)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_cpu_channel(n_dom: int, n_cod: int, rng: np.random.Generator,
                       n_kraus: int | None = None) -> Channel:
    """Random CPU map M_n_dom ~> M_n_cod from a stacked-isometry Kraus family."""
    if n_kraus is None:
        n_kraus = max(2, -(-n_cod // n_dom) + 1)
    gin = rng.standard_normal((n_kraus * n_dom, n_cod)) + 1j * rng.standard_normal(
        (n_kraus * n_dom, n_cod)
    )
    iso, _ = np.linalg.qr(gin)
    ops = [iso[i * n_dom : (i + 1) * n_dom, :] for i in range(n_kraus)]
    return kraus_channel(AlgebraShape((n_dom,)), AlgebraShape((n_cod,)), ops)


def _random_star_preserving(s: AlgebraShape, t: AlgebraShape, rng) -> Channel:
    raw = rng.standard_normal((t.coord_dim, s.coord_dim)) + 1j * rng.standard_normal(
        (t.coord_dim, s.coord_dim)
    )
    f = Channel(s, t, raw)

    def sym(b: AlgElement) -> AlgElement:
        return 0.5 * (apply(f, b) + alg.adjoint(apply(f, alg.adjoint(b))))

    return channel_from_action(s, t, sym)


def _random_projection(s: AlgebraShape, rng: np.random.Generator) -> AlgElement:
    """Projection onto a random nonzero subspace of every block."""
    proj_blocks = []
    for n in s.blocks:
        keep = int(rng.integers(1, n + 1))
        u = random_unitary(n, rng) if n > 1 else np.ones((1, 1), dtype=complex)
        cols = u[:, :keep]
        proj_blocks.append(cols @ cols.conj().T)
    return AlgElement(s, tuple(proj_blocks))


def random_rank_deficient_state(
    s: AlgebraShape, rng: np.random.Generator, full: bool = False
) -> State:
    """Random density, optionally compressed onto a random proper subspace."""
    rho = alg.random_density(s, rng)
    if full:
        return state_from_density(rho)
    proj = _random_projection(s, rng)
    compressed = alg.mul(alg.mul(proj, rho), proj)
    tr = alg.trace(compressed).real
    if tr <= 1e-9:
        return state_from_density(rho)
    return state_from_density(compressed * (1.0 / tr))


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
        dom = AlgebraShape((n,))
        cod = AlgebraShape((n, k))

        def f_act(b: AlgElement) -> AlgElement:
            avg = np.trace(b.blocks[0]) / n
            return AlgElement(cod, (b.block(0), avg * np.eye(k, dtype=complex)))

        def g_act(a: AlgElement) -> AlgElement:
            return AlgElement(dom, (a.block(0),))

        f = channel_from_action(dom, cod, f_act)
        g = channel_from_action(cod, dom, g_act)
        rho_n = alg.random_density(dom, rng).blocks[0]
        density = AlgElement(cod, (rho_n, np.zeros((k, k), dtype=complex)))
        return f, state_from_density(density), g
    if kind == "classical":
        nx = int(rng.integers(2, max_dim + 1))
        ny = int(rng.integers(2, max_dim + 1))
        func = [int(rng.integers(0, ny)) for _ in range(nx)]
        kern = fs.deterministic_kernel(lambda x: func[x], nx, ny)
        weights = [Fraction(int(w), 1) for w in rng.integers(0, 9, size=nx)]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        p = fs.prob_vector([w / total for w in weights])
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
    checks = []
    worst_resid, worst_unitary, worst_pinv, worst_submult = 0.0, 0.0, 0.0, 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (m + m.conj().T)
        w, u = herm_eig(h)
        resid = op_norm(h - (u * w) @ u.conj().T) / max(1.0, op_norm(h))
        worst_resid = max(worst_resid, resid)
        worst_unitary = max(worst_unitary, op_norm(u.conj().T @ u - np.eye(n)))
        psd = m.conj().T @ m
        worst_pinv = max(worst_pinv, moore_penrose_deviation(psd, pinv_psd(psd)))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst_submult = max(worst_submult, op_norm(m @ b) - op_norm(m) * op_norm(b))
    checks.append(_check("eigendecomposition reconstructs Hermitian inputs",
                         worst_resid <= 1e-11, f"worst residual {worst_resid:.3g}"))
    checks.append(_check("eigenvector matrices are unitary",
                         worst_unitary <= 1e-11, f"worst deviation {worst_unitary:.3g}"))
    checks.append(_check("pseudo-inverse satisfies the Moore-Penrose identities",
                         worst_pinv <= 1e-10, f"worst deviation {worst_pinv:.3g}"))
    checks.append(_check("operator norm is submultiplicative",
                         worst_submult <= 1e-9, f"worst excess {worst_submult:.3g}"))
    return SuiteReport("matrix-kernel", tuple(checks))


def suite_algebra(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    checks = []
    shapes = [AlgebraShape((2,)), AlgebraShape((1, 2)), AlgebraShape((2, 3)),
              AlgebraShape((1, 1, 1))]

    unit_ok = True
    for s in shapes:
        one = alg.unit(s)
        for e in alg.matrix_units(s):
            unit_ok = unit_ok and alg.elem_equal(alg.mul(one, e), e)
            unit_ok = unit_ok and alg.elem_equal(alg.mul(e, one), e)
    checks.append(_check("unit laws hold exactly on matrix units", unit_ok))

    worst_assoc, worst_star, worst_tensor = 0.0, 0.0, 0.0
    for _ in range(trials):
        s = shapes[int(rng.integers(0, len(shapes)))]
        a, b, c = (alg.random_element(s, rng) for _ in range(3))
        assoc = alg.mul(alg.mul(a, b), c) - alg.mul(a, alg.mul(b, c))
        worst_assoc = max(worst_assoc, alg.norm(assoc))
        star = alg.adjoint(alg.mul(a, b)) - alg.mul(alg.adjoint(b), alg.adjoint(a))
        worst_star = max(worst_star, alg.norm(star))
        s2 = shapes[int(rng.integers(0, len(shapes)))]
        a2, b2 = alg.random_element(s2, rng), alg.random_element(s2, rng)
        lhs = alg.mul(alg.tensor_elem(a, a2), alg.tensor_elem(b, b2))
        rhs = alg.tensor_elem(alg.mul(a, b), alg.mul(a2, b2))
        worst_tensor = max(worst_tensor, alg.norm(lhs - rhs) / max(1.0, alg.norm(rhs)))
    checks.append(_check("multiplication is associative on random elements",
                         worst_assoc <= 1e-9 * 100, f"worst {worst_assoc:.3g}"))
    checks.append(_check("involution reverses products", worst_star <= 1e-9 * 100,
                         f"worst {worst_star:.3g}"))
    checks.append(_check("tensor of elements is multiplicative",
                         worst_tensor <= 1e-9, f"worst {worst_tensor:.3g}"))

    a = alg.random_element(AlgebraShape((2, 3)), rng)
    checks.append(_check("involution is involutive",
                         alg.elem_equal(alg.adjoint(alg.adjoint(a)), a)))

    mu_ok = True
    detail = ""
    for n in range(2, 9):
        total = _a_n(n)
        image = apply(mult_map(AlgebraShape((n,))), total)
        if abs(alg.norm(image) - n) > 1e-9 or abs(alg.norm(total) - 1) > 1e-10:
            mu_ok, detail = False, f"failed at n={n}"
            break
    checks.append(_check("multiplication map reaches norm n on the unit-norm witness",
                         mu_ok, detail))
    return SuiteReport("algebra", tuple(checks))


def suite_channel(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    checks = []

    worst_adj, worst_contra = 0.0, 0.0
    for _ in range(max(4, trials // 8)):
        f = random_cpu_channel(2, 3, rng)
        g = random_cpu_channel(3, 2, rng)
        worst_adj = max(worst_adj, np.max(np.abs(hs_adjoint(hs_adjoint(f)).matrix - f.matrix)))
        lhs = hs_adjoint(compose(f, g))
        rhs = compose(hs_adjoint(g), hs_adjoint(f))
        worst_contra = max(worst_contra, np.max(np.abs(lhs.matrix - rhs.matrix)))
        a = alg.random_self_adjoint(f.codomain, rng)
        b = alg.random_element(f.domain, rng)
        pairing_gap = abs(
            alg.trace(alg.mul(alg.adjoint(a), apply(f, b)))
            - alg.trace(alg.mul(alg.adjoint(apply(hs_adjoint(f), a)), b))
        )
        worst_adj = max(worst_adj, pairing_gap)
    checks.append(_check("Hilbert-Schmidt adjoint is involutive and dual to the pairing",
                         worst_adj <= 1e-9, f"worst {worst_adj:.3g}"))
    checks.append(_check("adjoint reverses composition", worst_contra <= 1e-9,
                         f"worst {worst_contra:.3g}"))

    cp_ok = True
    for _ in range(max(4, trials // 16)):
        f = random_cpu_channel(2, 3, rng)
        g = random_cpu_channel(3, 2, rng)
        cp_ok = cp_ok and is_cp(compose(f, g)).passed and is_cp(tensor(f, g)).passed
    checks.append(_check("CP is closed under composition and tensor", cp_ok))

    mult_ok = True
    mult_detail = ""
    for _ in range(max(4, trials // 8)):
        n, m = 2, 5
        gin = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        v, _ = np.linalg.qr(gin)
        # element of the multiplicative domain: compression plus a complement part
        c_small = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d_big = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        proj = v @ v.conj().T
        comp = np.eye(m) - proj

        def down_act(x, v=v, n=n):
            return AlgElement(AlgebraShape((n,)), (v.conj().T @ x.blocks[0] @ v,))

        f = channel_from_action(AlgebraShape((m,)), AlgebraShape((n,)), down_act)
        b_elem = AlgElement(AlgebraShape((m,)),
                            (v @ c_small @ v.conj().T + comp @ d_big @ comp,))
        hypothesis = alg.norm(
            apply(f, alg.mul(alg.adjoint(b_elem), b_elem))
            - alg.mul(alg.adjoint(apply(f, b_elem)), apply(f, b_elem))
        )
        if hypothesis > 1e-9 * 100:
            mult_ok, mult_detail = False, "constructed element left the multiplicative domain"
            break
        c_probe = alg.random_element(AlgebraShape((m,)), rng)
        gap1 = alg.norm(apply(f, alg.mul(alg.adjoint(b_elem), c_probe))
                        - alg.mul(alg.adjoint(apply(f, b_elem)), apply(f, c_probe)))
        gap2 = alg.norm(apply(f, alg.mul(alg.adjoint(c_probe), b_elem))
                        - alg.mul(alg.adjoint(apply(f, c_probe)), apply(f, b_elem)))
        if max(gap1, gap2) > 1e-8 * max(1.0, alg.norm(c_probe) * alg.norm(b_elem) ** 2):
            mult_ok, mult_detail = False, f"two-sided conclusion fails by {max(gap1, gap2):.3g}"
            break
    checks.append(_check(
        "one multiplicative input extends to all mixed products",
        mult_ok, mult_detail))

    inv_ok = True
    for _ in range(max(4, trials // 16)):
        n = int(rng.integers(2, 5))
        u = random_unitary(n, rng)
        f = conjugation_by(AlgElement(AlgebraShape((n,)), (u,)))
        g = invert(f)
        ident = compose(g, f)
        inv_ok = inv_ok and np.max(np.abs(ident.matrix - np.eye(n * n))) <= 1e-9
        inv_ok = inv_ok and is_deterministic(f).passed
    checks.append(_check("invertible conjugations are deterministic", inv_ok))

    t = transpose_channel(AlgebraShape((3,)))
    t_inv = invert(t)
    consistent = (
        np.max(np.abs(t_inv.matrix - t.matrix)) <= 1e-12
        and not is_deterministic(t).passed
        and not is_schwarz_sampled(t, trials=trials, seed=seed).passed
    )
    checks.append(_check(
        "transpose is invertible yet not deterministic, consistent with failing Schwarz",
        consistent))

    spos_ok = True
    for _ in range(max(3, trials // 16)):
        down, up = compression_pair(2, 5, rng)
        spos_ok = spos_ok and is_deterministic(compose(down, up)).passed
        spos_ok = spos_ok and s_positivity_equation(down, up).passed
    t2 = transpose_channel(AlgebraShape((2,)))
    spos_ok = spos_ok and not s_positivity_equation(t2, t2).passed
    checks.append(_check(
        "S-positivity equation holds for CPU compressions and fails for the transpose",
        spos_ok))
    return SuiteReport("channel", tuple(checks))


def suite_state(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    checks = []
    shapes = [AlgebraShape((3,)), AlgebraShape((2, 2)), AlgebraShape((1, 3))]

    minimal_ok = True
    for _ in range(max(4, trials // 8)):
        s = shapes[int(rng.integers(0, len(shapes)))]
        # rank-deficient density: compress a random one by a random projection
        rho = alg.random_density(s, rng)
        proj = _random_projection(s, rng)
        compressed = alg.mul(alg.mul(proj, rho), proj)
        tr = alg.trace(compressed).real
        if tr <= 1e-12:
            continue
        omega = state_from_density(compressed * (1.0 / tr))
        p = omega.support
        # the compressing projection dominates: Q P = P
        minimal_ok = minimal_ok and alg.elem_equal(alg.mul(proj, p), p)
        # and omega is blind to the complement
        comp = alg.unit(s) - p
        a = alg.random_element(s, rng)
        minimal_ok = minimal_ok and abs(omega.expect(alg.mul(comp, a))) <= 1e-9 * alg.norm(a)
    checks.append(_check("support is dominated by any projection carrying the state",
                         minimal_ok))

    null_ok = True
    for _ in range(max(4, trials // 8)):
        s = shapes[int(rng.integers(0, len(shapes)))]
        omega = state_from_density(alg.random_density(s, rng))
        p = omega.support
        comp = alg.unit(s) - p
        m = alg.random_element(s, rng)
        a = alg.mul(m, comp)
        val = omega.expect(alg.mul(alg.adjoint(a), a))
        null_ok = null_ok and abs(val) <= 1e-9 * max(1.0, alg.norm(a)) ** 2
        null_ok = null_ok and alg.norm(alg.mul(a, p)) <= 1e-9 * max(1.0, alg.norm(a))
    checks.append(_check("right-multiplying into the support complement lands in the nullspace",
                         null_ok))

    sym_ok = True
    for _ in range(max(8, trials // 4)):
        s, t = AlgebraShape((2,)), AlgebraShape((3,))
        f = _random_star_preserving(s, t, rng)
        omega = random_rank_deficient_state(t, rng)
        if int(rng.integers(0, 2)):
            # perturb only on the support complement so the verdicts flip to pass
            comp = alg.unit(t) - omega.support
            bump = _random_star_preserving(s, t, rng)

            def masked(b, f=f, bump=bump, comp=comp):
                return apply(f, b) + alg.mul(alg.mul(comp, apply(bump, b)), comp)

            g = channel_from_action(s, t, masked)
        else:
            g = _random_star_preserving(s, t, rng)
        left = ae_equal(f, g, omega, "left").passed
        right = ae_equal(f, g, omega, "right").passed
        sym_ok = sym_ok and (left == right)
        det_l = ae_deterministic(f, omega, "left").passed
        det_r = ae_deterministic(f, omega, "right").passed
        sym_ok = sym_ok and (det_l == det_r)
    checks.append(_check("left and right verdicts agree for star-preserving channels", sym_ok))

    weak_ok = True
    f_pad = padded_inclusion(2, 3)
    sigma = alg.random_density(AlgebraShape((2,)), rng).blocks[0]
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = sigma
    omega_pad = state_from_density(AlgElement(AlgebraShape((3,)), (rho,)))
    p = omega_pad.support
    for _ in range(128):
        b = alg.random_element(AlgebraShape((2,)), rng)
        gap = alg.mul(
            apply(f_pad, alg.mul(alg.adjoint(b), b))
            - alg.mul(alg.adjoint(apply(f_pad, b)), apply(f_pad, b)),
            p,
        )
        if alg.norm(gap) > 1e-9 * max(1.0, alg.norm(b)) ** 2:
            weak_ok = False
            break
    weak_ok = weak_ok and ae_deterministic(f_pad, omega_pad, "right").passed
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
    checks = []
    kinds = ("unitary", "padded-block", "classical")

    preserve_ok, unique_ok, disint_ok, relexp_ok = True, True, True, True
    for i in range(max(6, trials // 8)):
        f, omega, g = disintegration_instance(kinds[i % 3], rng, max_dim=4)
        prob = bayes_problem(f, omega)
        xi = prob.pullback
        result = bayes_candidate(prob)
        if not result.bayes_ok:
            preserve_ok = False
            continue
        # candidates of unital channels preserve states
        for e in alg.matrix_units(f.codomain):
            lhs = xi.expect(apply(result.candidate, e))
            rhs = omega.expect(e)
            preserve_ok = preserve_ok and abs(lhs - rhs) <= 1e-9
        # a.e. uniqueness: a second completion gives a left a.e. equal candidate
        other = bayes_candidate(prob, completion=omega)
        p_xi = xi.support
        for e in alg.matrix_units(f.codomain):
            gap = alg.mul(p_xi, apply(result.candidate, e) - apply(other.candidate, e))
            unique_ok = unique_ok and alg.norm(gap) <= 1e-9
        # a.e. deterministic + right Bayes map => right disintegration; the
        # left-only candidate of a deficient prior is only a left section
        if result.bayes_right.passed and ae_deterministic(f, omega, "right").passed:
            disint_ok = disint_ok and verify_disintegration(f, omega, result.candidate).passed
        elif ae_deterministic(f, omega, "right").passed:
            p_xi = xi.support
            for e in alg.matrix_units(f.domain):
                gap = alg.mul(p_xi, apply(result.candidate, apply(f, e)) - e)
                disint_ok = disint_ok and alg.norm(gap) <= 1e-8
        # relative conditional expectation on the disintegration instance
        for _ in range(4):
            b = alg.random_element(f.domain, rng)
            bb = alg.mul(alg.adjoint(b), b)
            gfb = apply(g, apply(f, b))
            vals = (
                xi.expect(bb),
                xi.expect(alg.mul(alg.adjoint(gfb), gfb)),
                xi.expect(apply(g, alg.mul(alg.adjoint(apply(f, b)), apply(f, b)))),
                xi.expect(apply(g, apply(f, bb))),
            )
            scale = max(1.0, abs(vals[0]))
            relexp_ok = relexp_ok and max(abs(v - vals[0]) for v in vals) <= 1e-8 * scale
    checks.append(_check("Bayes candidates of CPU channels pass the left condition "
                         "and preserve states", preserve_ok))
    checks.append(_check("two completions of the Bayes candidate are left a.e. equal",
                         unique_ok))
    checks.append(_check("Bayes maps of a.e. deterministic channels disintegrate them",
                         disint_ok))
    checks.append(_check("relative conditional expectation holds on disintegration instances",
                         relexp_ok))

    onesided_ok = True
    saw_deficient = False
    rounds = max(6, trials // 8)
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

        def shifted(a, base=base, bump=bump, comp=comp, p=p_xi):
            return apply(base, a) + alg.mul(alg.mul(comp, apply(bump, a)), p)

        other = channel_from_action(f.codomain, f.domain, shifted)
        onesided_ok = onesided_ok and verify_bayes(f, omega, xi, other, "left").passed
        left_eq = True
        right_eq = True
        for e in alg.matrix_units(f.codomain):
            diff = apply(base, e) - apply(other, e)
            left_eq = left_eq and alg.norm(alg.mul(p_xi, diff)) <= 1e-9
            right_eq = right_eq and alg.norm(alg.mul(diff, p_xi)) <= 1e-9
        onesided_ok = onesided_ok and left_eq and not right_eq
        # a completion-free candidate is a.e. unital without being unital
        sigma_pinv = AlgElement(
            xi.shape, tuple(pinv_psd(b) for b in xi.density.blocks))
        fstar = hs_adjoint(f)
        rho = omega.density

        def bare(a, sp=sigma_pinv, fstar=fstar, rho=rho):
            return alg.mul(sp, apply(fstar, alg.mul(rho, a)))

        bare_chan = channel_from_action(f.codomain, f.domain, bare)
        onesided_ok = onesided_ok and verify_bayes(f, omega, xi, bare_chan, "left").passed
        onesided_ok = onesided_ok and ae_unital(bare_chan, xi, "left").passed
        onesided_ok = onesided_ok and not alg.elem_equal(
            apply(bare_chan, alg.unit(f.codomain)), alg.unit(f.domain))
    checks.append(_check("left Bayes maps report one-sided: left a.e. equal yet "
                         "right-separated, a.e. unital without unitality",
                         onesided_ok and saw_deficient))

    comp_ok = True
    for _ in range(max(3, trials // 16)):
        # chain: M_3 ~H~> M_2 ~F~> M_2 with a faithful prior upstream
        f, omega, _ = disintegration_instance("unitary", rng, max_dim=3)
        n = f.domain.blocks[0]
        h = random_cpu_channel(3, n, rng)
        prob_f = bayes_problem(f, omega)
        xi = prob_f.pullback
        prob_h = bayes_problem(h, xi)
        zeta = prob_h.pullback
        cand_f = bayes_candidate(prob_f).candidate
        cand_h = bayes_candidate(prob_h).candidate
        composite = compose(f, h)
        joint = compose(cand_h, cand_f)
        comp_ok = comp_ok and verify_bayes(composite, omega, zeta, joint, "left").passed
    checks.append(_check("Bayes candidates compose along composable problems", comp_ok))

    symm_ok = True
    for _ in range(max(3, trials // 16)):
        f, omega, g = disintegration_instance("unitary", rng, max_dim=4)
        xi = pullback_state(omega, f)
        if is_star_preserving(g).passed and verify_bayes(f, omega, xi, g, "left").passed:
            symm_ok = symm_ok and verify_bayes(g, xi, omega, f, "left").passed
    checks.append(_check("star-preserving Bayesian inverses invert symmetrically", symm_ok))

    relmult_ok = True
    for _ in range(max(3, trials // 16)):
        g_pad = padded_inclusion(2, 3)
        sigma = alg.random_density(AlgebraShape((2,)), rng).blocks[0]
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = sigma
        xi_state = state_from_density(AlgElement(AlgebraShape((3,)), (rho,)))
        a = alg.random_element(AlgebraShape((2,)), rng)
        hyp = abs(xi_state.expect(apply(g_pad, alg.mul(alg.adjoint(a), a))
                                  - alg.mul(alg.adjoint(apply(g_pad, a)), apply(g_pad, a))))
        relmult_ok = relmult_ok and hyp <= 1e-9 * max(1.0, alg.norm(a)) ** 2
        for _ in range(4):
            d = alg.random_element(AlgebraShape((2,)), rng)
            gap = abs(xi_state.expect(apply(g_pad, alg.mul(alg.adjoint(a), d))
                                      - alg.mul(alg.adjoint(apply(g_pad, a)), apply(g_pad, d))))
            scale = max(1.0, alg.norm(a) * alg.norm(d))
            relmult_ok = relmult_ok and gap <= 1e-8 * scale
    checks.append(_check("one vanishing Schwarz gap extends to mixed products under the state",
                         relmult_ok))
    return SuiteReport("bayes", tuple(checks))


def suite_finstoch(seed: int = 0, trials: int = 64) -> SuiteReport:
    rng = np.random.default_rng(seed)
    checks = []

    def random_rational_prob(n):
        weights = [Fraction(int(w), 1) for w in rng.integers(0, 7, size=n)]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        return fs.prob_vector([w / total for w in weights])

    def random_rational_kernel(ny, nx, zero_row=False):
        cols = []
        for _ in range(nx):
            weights = [Fraction(int(w), 1) for w in rng.integers(0, 7, size=ny)]
            if zero_row:
                weights[-1] = Fraction(0)
            if sum(weights) == 0:
                weights[0] = Fraction(1)
            total = sum(weights)
            cols.append([w / total for w in weights])
        return fs.stochastic([[cols[x][y] for x in range(nx)] for y in range(ny)])

    diagram_ok, preserve_ok = True, True
    for _ in range(max(8, trials // 4)):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        f = random_rational_kernel(ny, nx)
        p = random_rational_prob(nx)
        g = fs.bayes_inverse(f, p)
        q = fs.push(f, p)
        for x in range(nx):
            for y in range(ny):
                diagram_ok = diagram_ok and (
                    g.entries[x, y] * q.entries[y] == f.entries[y, x] * p.entries[x]
                    or q.entries[y] == 0
                )
        back = fs.push(g, q)
        preserve_ok = preserve_ok and all(back.entries[x] == p.entries[x] for x in range(nx))
    checks.append(_check("Bayes diagram holds exactly in rational arithmetic", diagram_ok))
    checks.append(_check("Bayes inverse pushes the output measure back to the input",
                         preserve_ok))

    functor_ok = True
    for _ in range(max(4, trials // 16)):
        f = random_rational_kernel(3, 4)
        g = random_rational_kernel(2, 3)
        lhs = fs.embed(fs.compose(g, f))
        rhs = compose(fs.embed(f), fs.embed(g))
        functor_ok = functor_ok and np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-12
    checks.append(_check("embedding reverses composition (contravariant functor)", functor_ok))

    # dropping normalization on null columns keeps a.e. unitality
    f = random_rational_kernel(4, 3, zero_row=True)
    p = random_rational_prob(3)
    q = fs.push(f, p)
    g = fs.bayes_inverse(f, p)
    entries = g.entries.copy()
    for y in q.nullset():
        for x in range(g.n_rows):
            entries[x, y] = Fraction(0)
    if q.nullset():
        ragged = fs.StochasticMatrix(entries, True)
        chan = fs.embed(ragged)
        rep = ae_unital(chan, fs.embed_prob(q), "right")
        ok = rep.passed and not alg.elem_equal(
            apply(chan, alg.unit(chan.domain)), alg.unit(chan.codomain))
        checks.append(_check("denormalized null columns stay a.e. unital", ok))
    else:
        checks.append(_check("denormalized null columns stay a.e. unital", True,
                             "no null column drawn; vacuous"))

    cross_ok = True
    for _ in range(max(4, trials // 16)):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        f = random_rational_kernel(ny, nx)
        p = random_rational_prob(nx)
        chan = fs.embed(f)
        omega = fs.embed_prob(p)
        prob = bayes_problem(chan, omega)
        result = bayes_candidate(prob)
        classical = fs.embed(fs.bayes_inverse(f, p))
        p_xi = prob.pullback.support
        for e in alg.matrix_units(chan.codomain):
            gap = alg.mul(apply(result.candidate, e) - apply(classical, e), p_xi)
            cross_ok = cross_ok and alg.norm(gap) <= 1e-9
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
    return _SUITES[name](seed, trials)


def run_all(seed: int = 0, trials: int = 64) -> list[SuiteReport]:
    return [run_suite(name, seed, trials) for name in _SUITES]
