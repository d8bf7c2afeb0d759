"""Executable corpus: every worked example, code, and counterexample as a
named fixture with expected verdicts.

Each fixture builds its instance from scratch, runs its expectation list,
and returns a report; running a fixture twice yields identical reports.
Expected *failures* are part of the expectations: a fixture passes when the
checks that must fail do fail, with a concrete witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import algebra as alg
from . import finstoch as fs
from .algebra import AlgebraShape, AlgElement
from .bayes import bayes_problem, verify_bayes, verify_disintegration
from .channel import (
    Channel,
    ad_channel,
    apply,
    channel_from_action,
    choi,
    compose,
    identity_channel,
    is_cp,
    is_deterministic,
    is_positive_sampled,
    is_schwarz_sampled,
    is_star_preserving,
    is_unital,
    kraus_channel,
    mult_map,
    s_positivity_equation,
    tensor,
    transpose_channel,
)
from .errors import UnknownFixture
from .linalg import herm_eig
from .state import State, ae_deterministic, ae_equal, pullback_state, state_from_density

__all__ = [
    "CheckResult",
    "FixtureReport",
    "Fixture",
    "hamming74",
    "knill_laflamme",
    "counterexample",
    "registry_names",
    "all_fixtures",
]


@dataclass(frozen=True)
class CheckResult:
    desc: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"desc": self.desc, "pass": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class FixtureReport:
    name: str
    location: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "location": self.location,
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class Fixture:
    name: str
    location: str
    builder: Callable[[], list[CheckResult]]

    def run(self) -> FixtureReport:
        return FixtureReport(self.name, self.location, tuple(self.builder()))


def _check(desc: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(desc, bool(ok), detail)


# ---------------------------------------------------------------------------
# Hamming (7,4)
# ---------------------------------------------------------------------------

_Q = np.array([[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], dtype=int)
_H = np.concatenate([np.eye(3, dtype=int), _Q], axis=1)
_M = np.concatenate([_Q, np.eye(4, dtype=int)], axis=0)


def _bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=int)


def _index(bits: np.ndarray) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def hamming_encode(x: int) -> int:
    return _index(_M @ _bits(x, 4) % 2)


def hamming_decode(y: int) -> int:
    """Syndrome decoding: correct at most one flipped bit, then project."""
    yv = _bits(y, 7)
    syndrome = _H @ yv % 2
    if syndrome.any():
        for i in range(7):
            if np.array_equal(syndrome, _H[:, i]):
                yv = yv.copy()
                yv[i] ^= 1
                break
    return _index(yv[3:])


def _hamming_error_kernel(eps: Fraction) -> fs.StochasticMatrix:
    """Single-error channel: stay put with 1 - 7 eps, flip one bit with eps each."""
    rows = [[Fraction(0)] * 16 for _ in range(128)]
    for x in range(16):
        y0 = hamming_encode(x)
        rows[y0][x] = 1 - 7 * eps
        for i in range(7):
            rows[y0 ^ (1 << i)][x] = eps
    return fs.stochastic(rows)


def _rank_mod2(m: np.ndarray) -> int:
    a = m.copy() % 2
    rank, col = 0, 0
    rows, cols = a.shape
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r, col]), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] + a[rank]) % 2
        rank += 1
    return rank


def _build_hamming() -> list[CheckResult]:
    checks = []
    checks.append(_check("H M = 0 over Z2", not (_H @ _M % 2).any()))
    checks.append(
        _check(
            "exact sequence ranks (rank M = 4, rank H = 3)",
            _rank_mod2(_M) == 4 and _rank_mod2(_H) == 3,
        )
    )
    clean = all(hamming_decode(hamming_encode(x)) == x for x in range(16))
    checks.append(_check("decoder inverts the encoder on all 16 messages", clean))
    single = all(
        hamming_decode(hamming_encode(x) ^ (1 << i)) == x
        for x in range(16)
        for i in range(7)
    )
    checks.append(_check("decoder corrects all 112 single-bit errors", single))

    eps = Fraction(1, 100)
    f = _hamming_error_kernel(eps)
    g = fs.deterministic_kernel(hamming_decode, 128, 16)
    round_trip = fs.compose(g, f)
    is_id = all(
        round_trip.entries[x2, x] == (1 if x2 == x else 0)
        for x in range(16)
        for x2 in range(16)
    )
    checks.append(_check("recovery after error is the identity kernel, exactly", is_id))

    # error disintegrates recovery: verify on the embedded channels
    p = fs.prob_vector([Fraction(1, 16)] * 16)
    q = fs.push(f, p)
    rec_chan = fs.embed(g)
    err_chan = fs.embed(f)
    omega_q = fs.embed_prob(q)
    rep = verify_disintegration(rec_chan, omega_q, err_chan)
    checks.append(_check("embedded error channel disintegrates the recovery", rep.passed, rep.detail))

    # the classical Bayes triple for the error kernel, embedded
    bayes_chan = fs.embed(fs.bayes_inverse(f, p))
    omega_p = fs.embed_prob(p)
    xi_q = pullback_state(omega_p, err_chan)
    bayes_rep = verify_bayes(err_chan, omega_p, xi_q, bayes_chan, "left")
    checks.append(_check("embedded classical Bayes inverse passes the Bayes condition",
                         bayes_rep.passed, bayes_rep.detail))
    return checks


def hamming74() -> Fixture:
    return Fixture("hamming-7-4", "binary (7,4) block code with syndrome decoding", _build_hamming)


# ---------------------------------------------------------------------------
# Knill-Laflamme three-qubit code
# ---------------------------------------------------------------------------


def _kl_operators(gamma: float):
    decay = np.exp(-gamma)
    a_plus = np.sqrt((1 + decay) / 2)
    a_minus = np.sqrt((1 - decay) / 2)
    big_gamma = 0.25 * (2 - np.exp(-3 * gamma) + 3 * decay)
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    lam_p = a_plus * eye
    lam_m = a_minus * sz
    errs = [
        kron3(lam_p, lam_p, lam_p),
        kron3(lam_m, lam_p, lam_p),
        kron3(lam_p, lam_m, lam_p),
        kron3(lam_p, lam_p, lam_m),
    ]
    errs = [e / np.sqrt(big_gamma) for e in errs]
    plus = np.array([1.0, 1.0], dtype=complex)
    minus = np.array([1.0, -1.0], dtype=complex)
    logical0 = np.kron(np.kron(plus, plus), plus) / 2**1.5
    logical1 = np.kron(np.kron(minus, minus), minus) / 2**1.5
    v = np.stack([logical0, logical1], axis=1)
    p_code = np.outer(logical0, logical0.conj()) + np.outer(logical1, logical1.conj())
    recs = [
        p_code @ kron3(eye, eye, eye),
        p_code @ kron3(sz, eye, eye),
        p_code @ kron3(eye, sz, eye),
        p_code @ kron3(eye, eye, sz),
    ]
    return errs, recs, v


def kl_channels(gamma: float) -> tuple[Channel, Channel, Channel, Channel]:
    """Error map E, recovery R (both on M_8), and the composites F, G.

    Operator order is fixed by the requirement F o G = id on M_2: the
    composite G = R o Ad_V ascends to the big algebra, F = Ad_V+ o E comes
    back down.
    """
    return _kl_maps(*_kl_operators(gamma))


def _kl_maps(errs, recs, v) -> tuple[Channel, Channel, Channel, Channel]:
    """`kl_channels` from the operators `_kl_operators` returns."""
    m8 = AlgebraShape((8,))
    m2 = AlgebraShape((2,))
    chan_e = kraus_channel(m8, m8, errs)
    chan_r = kraus_channel(m8, m8, recs)
    up = ad_channel(v)  # A |-> V A V+  : M_2 -> M_8
    down = ad_channel(v.conj().T)  # B |-> V+ B V : M_8 -> M_2
    g = compose(chan_r, up)
    f = compose(down, chan_e)
    assert g.domain == m2 and g.codomain == m8
    assert f.domain == m8 and f.codomain == m2
    return chan_e, chan_r, f, g


def _build_kl_single(gamma: float, n_states: int = 8, seed: int = 0) -> list[CheckResult]:
    errs, recs, v = _kl_operators(gamma)
    _, _, f, g = _kl_maps(errs, recs, v)
    checks = []
    rec_sum = sum(r.conj().T @ r for r in recs)
    checks.append(
        _check(
            f"sum R_i* R_i = 1 (gamma={gamma})",
            np.max(np.abs(rec_sum - np.eye(8))) <= 1e-10,
        )
    )
    err_sum = sum(e.conj().T @ e for e in errs)
    checks.append(
        _check(
            f"error channel is unital (gamma={gamma})",
            np.max(np.abs(err_sum - np.eye(8))) <= 1e-10,
        )
    )
    round_trip = compose(f, g)
    dev = np.max(np.abs(round_trip.matrix - np.eye(4)))
    checks.append(_check(f"F o G = id on M_2 (gamma={gamma})", dev <= 1e-9, f"deviation {dev:.3g}"))
    checks.append(_check(f"recovery is deterministic (gamma={gamma})", is_deterministic(g).passed))
    checks.append(_check(f"error map is CP (gamma={gamma})", is_cp(f).passed))
    checks.append(_check(f"recovery map is CP (gamma={gamma})", is_cp(g).passed))

    rng = np.random.default_rng(seed)
    all_good = True
    for _ in range(n_states):
        omega = state_from_density(alg.random_density(AlgebraShape((2,)), rng))
        # the triple is (recovery, omega o F, omega): the error map plays the
        # disintegration and the transported state lives on the big algebra
        transported = pullback_state(omega, f)
        rep = verify_disintegration(g, transported, f)
        all_good = all_good and rep.passed
    checks.append(
        _check(
            f"error disintegrates recovery for {n_states} sampled states (gamma={gamma})",
            all_good,
        )
    )
    return checks


def knill_laflamme(gamma: float = 0.5) -> Fixture:
    return Fixture(
        "knill-laflamme",
        "three-qubit phase code with recovery, parameterized by damping",
        lambda: _build_kl_single(gamma),
    )


def _build_kl_all() -> list[CheckResult]:
    out = []
    for gamma in (0.0, 0.25, 0.5, 1.0):
        out.extend(_build_kl_single(gamma))
    return out


# ---------------------------------------------------------------------------
# Counterexample registry
# ---------------------------------------------------------------------------


def _single(shape_dims: tuple[int, ...], mats) -> AlgElement:
    return AlgElement(AlgebraShape(shape_dims), tuple(np.asarray(m, dtype=complex) for m in mats))


def _build_transpose_spos() -> list[CheckResult]:
    m2 = AlgebraShape((2,))
    t = transpose_channel(m2)
    checks = []
    checks.append(
        _check("transpose squared is the identity",
               np.max(np.abs(compose(t, t).matrix - np.eye(4))) <= 1e-12)
    )
    rep = s_positivity_equation(t, t)
    checks.append(_check("S-positivity equation fails for F = G = transpose", not rep.passed,
                         rep.detail))
    checks.append(_check("failure carries a witness pair", rep.witness is not None))
    # explicit witness: C = B = E12 gives B^T C vs C B^T
    e12 = _single((2,), [np.array([[0, 1], [0, 0]])])
    lhs = apply(t, alg.mul(apply(t, e12), e12))
    rhs = alg.mul(apply(t, apply(t, e12)), apply(t, e12))
    checks.append(_check("witness (E12, E12) separates the two sides",
                         not alg.elem_equal(lhs, rhs)))
    return checks


def _a_n(n: int) -> AlgElement:
    """sum_i E_1i (x) E_i1 inside the tensor square of M_n."""
    a = np.zeros((n * n, n * n), dtype=complex)
    a[np.arange(n), n * np.arange(n)] = 1.0   # E_1i (x) E_i1 is the unit at (i, i n)
    return AlgElement(AlgebraShape((n * n,)), (a,))


def _build_mu_norm() -> list[CheckResult]:
    checks = []
    for n in range(2, 9):
        a = _a_n(n)
        mu = mult_map(AlgebraShape((n,)))
        norm_a = alg.norm(a)
        image = apply(mu, a)
        norm_mu_a = alg.norm(image)
        checks.append(_check(f"||A({n})|| = 1", abs(norm_a - 1.0) <= 1e-10,
                             f"got {norm_a!r}"))
        checks.append(_check(f"||mu_{n}(A({n}))|| = {n}", abs(norm_mu_a - n) <= 1e-9,
                             f"got {norm_mu_a!r}"))
        if n == 3:
            expected = 3.0 * alg.matrix_units(AlgebraShape((3,)))[0]
            checks.append(_check("mu_3(A(3)) = 3 E_11", alg.elem_equal(image, expected)))
    return checks


def _build_no_broadcast() -> list[CheckResult]:
    mu = mult_map(AlgebraShape((2,)))
    checks = []
    checks.append(_check("multiplication map is unital", is_unital(mu).passed))
    cp = is_cp(mu)
    min_eig = min(herm_eig(0.5 * (c + c.conj().T))[0][-1] for c in choi(mu))
    checks.append(_check("multiplication on M_2 is not CP", not cp.passed))
    checks.append(_check("Choi minimum eigenvalue < -0.1", min_eig < -0.1, f"got {min_eig:.4f}"))
    pos = is_positive_sampled(mu, trials=64, seed=0)
    checks.append(_check("positivity sampling finds a violation", not pos.passed,
                         pos.detail))
    checks.append(_check("positivity failure carries a witness", pos.witness is not None))
    # commutative multiplications stay CP
    for k in range(1, 5):
        mu_c = mult_map(AlgebraShape((1,) * k))
        checks.append(_check(f"multiplication on C^{k} is CP", is_cp(mu_c).passed))
    return checks


def _build_left_right_ae() -> list[CheckResult]:
    m2 = AlgebraShape((2,))
    ident = identity_channel(m2)

    def truncate(a: AlgElement) -> AlgElement:
        b = a.blocks[0].copy()
        b[1, 0] = 0.0
        return AlgElement(m2, (b,))

    trunc = channel_from_action(m2, m2, truncate)
    omega = state_from_density(_single((2,), [np.diag([1.0, 0.0])]))
    left = ae_equal(trunc, ident, omega, "left")
    right = ae_equal(trunc, ident, omega, "right")
    checks = [
        _check("upper-triangular truncation is left a.e. equal to the identity", left.passed),
        _check("right a.e. equality fails", not right.passed),
        _check("right failure carries a witness", right.witness is not None),
        _check("truncation is not star-preserving", not is_star_preserving(trunc).passed),
    ]
    return checks


def doubling_pair(lam: float) -> tuple[Channel, Channel]:
    m2 = AlgebraShape((2,))

    def f_act(x: AlgElement) -> AlgElement:
        (a, b), (c, d) = x.block(0)
        return _single((2,), [np.array([[a, lam * b], [lam * c, (1 - lam) * a + lam * d]])])

    def g_act(x: AlgElement) -> AlgElement:
        (a, b), (c, d) = x.block(0)
        return _single((2,), [np.array([[a, lam * b], [lam * c, d]])])

    return channel_from_action(m2, m2, f_act), channel_from_action(m2, m2, g_act)


def _build_doubling_ae() -> list[CheckResult]:
    lam = 0.5
    f, g = doubling_pair(lam)
    m2 = AlgebraShape((2,))
    omega = state_from_density(_single((2,), [np.diag([1.0, 0.0])]))
    checks = []
    checks.append(_check("both channels are CPU",
                         is_cp(f).passed and is_cp(g).passed
                         and is_unital(f).passed and is_unital(g).passed))
    for side in ("left", "right"):
        checks.append(_check(f"F and G are {side} a.e. equal",
                             ae_equal(f, g, omega, side).passed))
    mu = mult_map(m2)
    doubled_f = compose(mu, tensor(f, f))
    doubled_g = compose(mu, tensor(g, g))
    doubled = ae_equal(doubled_f, doubled_g, omega, "right")
    checks.append(_check("doubled channels are NOT a.e. equal", not doubled.passed,
                         doubled.detail))
    checks.append(_check("doubled failure carries a witness", doubled.witness is not None))
    # displayed difference: at a=1, c=1, d=0 the square gap is lam(1-lam) = 1/4
    m = _single((2,), [np.array([[1.0, 0.0], [1.0, 0.0]])])
    fm, gm = apply(f, m), apply(g, m)
    gap = alg.mul(alg.mul(fm, fm) - alg.mul(gm, gm), omega.support)
    expected = _single((2,), [np.array([[0.0, 0.0], [0.25, 0.0]])])
    checks.append(_check("square gap on the support is 1/4 in the corner entry",
                         alg.elem_equal(gap, expected)))
    return checks


def padded_inclusion(n: int, m: int) -> Channel:
    """M_n -> M_m embedding B |-> diag(B, tr(B)/n 1) on the leftover corner."""
    dom, cod = AlgebraShape((n,)), AlgebraShape((m,))

    def act(b: AlgElement) -> AlgElement:
        out = np.zeros((m, m), dtype=complex)
        out[:n, :n] = b.blocks[0]
        avg = np.trace(b.blocks[0]) / n
        for k in range(n, m):
            out[k, k] = avg
        return AlgElement(cod, (out,))

    return channel_from_action(dom, cod, act)


def _build_pad_ae_det() -> list[CheckResult]:
    n, m = 2, 3
    f = padded_inclusion(n, m)
    sigma = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    rho = np.zeros((m, m), dtype=complex)
    rho[:n, :n] = sigma
    omega = state_from_density(_single((m,), [rho]))
    checks = [
        _check("no unital embedding of M_2 in M_3 exists (dimension obstruction)", m % n != 0),
        _check("padded inclusion is CPU",
               is_cp(f).passed and is_unital(f).passed and is_star_preserving(f).passed),
        _check("padded inclusion is a.e. deterministic for a corner-supported state",
               ae_deterministic(f, omega, "right").passed),
        _check("padded inclusion is NOT deterministic", not is_deterministic(f).passed),
        _check("determinism failure carries a witness",
               is_deterministic(f).witness is not None),
    ]
    return checks


def unreasonable_pair() -> tuple[Channel, Channel]:
    """Unital star-preserving F with off-block leakage, and the diagonal G."""
    m2, m4 = AlgebraShape((2,)), AlgebraShape((4,))

    def f_act(x: AlgElement) -> AlgElement:
        (b11, b12), (b21, b22) = x.block(0)
        return _single((4,), [np.array([
            [b11, b12, 0, 0],
            [b21, b22, b21, b21],
            [0, b12, b11, b12],
            [0, b12, b21, b22],
        ])])

    def g_act(x: AlgElement) -> AlgElement:
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = x.blocks[0]
        out[2:, 2:] = x.blocks[0]
        return AlgElement(m4, (out,))

    return channel_from_action(m2, m4, f_act), channel_from_action(m2, m4, g_act)


def _build_not_det_reasonable() -> list[CheckResult]:
    f, g = unreasonable_pair()
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    omega = state_from_density(_single((4,), [rho]))
    support = omega.support
    e11 = np.zeros((4, 4), dtype=complex)
    e11[0, 0] = 1.0
    checks = [
        _check("support of the corner state is E_11",
               alg.elem_equal(support, _single((4,), [e11]))),
        _check("F and G are unital and star-preserving",
               is_unital(f).passed and is_star_preserving(f).passed
               and is_unital(g).passed and is_star_preserving(g).passed),
        _check("G (block diagonal doubling) is deterministic", is_deterministic(g).passed),
        _check("F is a.e. equal to the deterministic G (both sides)",
               ae_equal(f, g, omega, "left").passed and ae_equal(f, g, omega, "right").passed),
        _check("F is NOT right a.e. deterministic",
               not ae_deterministic(f, omega, "right").passed),
        _check("a.e. determinism failure carries a witness",
               ae_deterministic(f, omega, "right").witness is not None),
    ]
    return checks


def _build_transpose_bayes() -> list[CheckResult]:
    m2 = AlgebraShape((2,))
    t = transpose_channel(m2)
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    omega = state_from_density(_single((2,), [rho]))
    prob = bayes_problem(t, omega)
    xi = prob.pullback
    checks = []
    checks.append(_check("pullback density is the transpose of the prior density",
                         alg.elem_equal(xi.density, _single((2,), [rho.T]))))
    disint = verify_disintegration(t, omega, t)
    checks.append(_check("transpose disintegrates itself", disint.passed))
    bayes = verify_bayes(t, omega, xi, t, "left")
    checks.append(_check("the Bayes condition fails for the transpose inverse",
                         not bayes.passed, bayes.detail))
    checks.append(_check("Bayes failure carries a witness", bayes.witness is not None))
    e12 = _single((2,), [np.array([[0, 1], [0, 0]])])
    lhs = xi.expect(alg.mul(apply(t, e12), e12))
    rhs = omega.expect(alg.mul(e12, apply(t, e12)))
    checks.append(_check("witness (E12, E12) separates the two sides",
                         abs(lhs - rhs) > 0.1, f"|{lhs:.3f} - {rhs:.3f}|"))
    checks.append(_check("transpose is not Schwarz positive",
                         not is_schwarz_sampled(t, trials=64, seed=0).passed))
    checks.append(_check("transpose is not CP (so no consequence chain applies)",
                         not is_cp(t).passed))
    return checks


def strict_positivity_triple() -> tuple[Channel, Channel, State]:
    """Doubling embedding M_2 -> M_4, corner compression M_4 -> M_3, corner state."""
    m2, m3, m4 = AlgebraShape((2,)), AlgebraShape((3,)), AlgebraShape((4,))

    def f_act(b: AlgElement) -> AlgElement:
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = b.blocks[0]
        out[2:, 2:] = b.blocks[0]
        return AlgElement(m4, (out,))

    def g_act(a: AlgElement) -> AlgElement:
        return AlgElement(m3, (a.block(0)[:3, :3],))

    f = channel_from_action(m2, m4, f_act)
    g = channel_from_action(m4, m3, g_act)
    xi = state_from_density(_single((3,), [np.diag([0.5, 0.5, 0.0]).astype(complex)]))
    return f, g, xi


def _build_strict_pos() -> list[CheckResult]:
    f, g, xi = strict_positivity_triple()
    p = xi.support
    checks = []
    checks.append(_check("F and G are CPU",
                         is_cp(f).passed and is_unital(f).passed
                         and is_cp(g).passed and is_unital(g).passed))
    checks.append(_check("the doubling embedding is a homomorphism",
                         is_deterministic(f).passed))
    checks.append(_check("G o F is a.e. deterministic for the corner state",
                         ae_deterministic(compose(g, f), xi, "right").passed))
    # strict positivity: P G(A F(B)) = P G(A) G(F(B)) should FAIL,
    # while the mirrored P G(F(B) A) = P G(F(B)) G(A) holds here.
    worst_direct, worst_mirror = 0.0, 0.0
    direct_witness = None
    for a_unit in alg.matrix_units(f.codomain):
        ga = apply(g, a_unit)
        for b_unit in alg.matrix_units(f.domain):
            fb = apply(f, b_unit)
            gfb = apply(g, fb)
            direct = alg.norm(alg.mul(p, apply(g, alg.mul(a_unit, fb)) - alg.mul(ga, gfb)))
            mirror = alg.norm(alg.mul(p, apply(g, alg.mul(fb, a_unit)) - alg.mul(gfb, ga)))
            if direct > worst_direct:
                worst_direct, direct_witness = direct, (a_unit, b_unit)
            worst_mirror = max(worst_mirror, mirror)
    checks.append(_check("strict-positivity equation fails", worst_direct > 0.1,
                         f"max violation {worst_direct:.3f}"))
    checks.append(_check("violation carries a witness pair", direct_witness is not None))
    checks.append(_check("mirrored equation holds in this example", worst_mirror <= 1e-12,
                         f"max deviation {worst_mirror:.3g}"))
    return checks


def _build_pu_not_causal() -> list[CheckResult]:
    m2, m3 = AlgebraShape((2,)), AlgebraShape((3,))
    proj = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex)
    proj_perp = np.eye(2) - proj
    lam = 0.2

    def h_act(b: AlgElement) -> AlgElement:
        x = b.blocks[0]
        return _single((2,), [x[0, 0] * proj_perp + 0.5 * (x[1, 1] + x[2, 2]) * proj])

    def k_act(b: AlgElement) -> AlgElement:
        x = b.blocks[0]
        return _single((2,), [x[0, 0] * proj_perp + (lam * x[1, 1] + (1 - lam) * x[2, 2]) * proj])

    h = channel_from_action(m3, m2, h_act)
    k = channel_from_action(m3, m2, k_act)
    g = transpose_channel(m2)

    def f_scalar(a: AlgElement) -> complex:
        return complex(np.trace(proj @ a.blocks[0]))

    checks = []
    checks.append(_check("H and K are CPU",
                         is_cp(h).passed and is_unital(h).passed
                         and is_cp(k).passed and is_unital(k).passed))
    worst_hyp, worst_conc = 0.0, 0.0
    conc_witness = None
    for b_unit in alg.matrix_units(m3):
        hb, kb = apply(h, b_unit), apply(k, b_unit)
        for a_unit in alg.matrix_units(m2):
            lhs = f_scalar(apply(g, alg.mul(a_unit, hb)))
            rhs = f_scalar(apply(g, alg.mul(a_unit, kb)))
            worst_hyp = max(worst_hyp, abs(lhs - rhs))
            for c_unit in alg.matrix_units(m2):
                lhs2 = f_scalar(alg.mul(c_unit, apply(g, alg.mul(a_unit, hb))))
                rhs2 = f_scalar(alg.mul(c_unit, apply(g, alg.mul(a_unit, kb))))
                if abs(lhs2 - rhs2) > worst_conc:
                    worst_conc = abs(lhs2 - rhs2)
                    conc_witness = (c_unit, a_unit, b_unit)
    checks.append(_check("causality hypothesis holds: F G (A H(B)) = F G (A K(B))",
                         worst_hyp <= 1e-12, f"max deviation {worst_hyp:.3g}"))
    checks.append(_check("causality conclusion fails once C is inserted",
                         worst_conc > 1e-3, f"max violation {worst_conc:.4f}"))
    checks.append(_check("conclusion failure carries a witness triple",
                         conc_witness is not None))
    return checks


def epr_conditional() -> tuple[Channel, float]:
    """Least-squares solve of the joint-state equation for the EPR density.

    Returns the unique solving channel and the residual of the linear system.
    """
    m2 = AlgebraShape((2,))
    rho = 0.5 * np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
    )
    units = [e.blocks[0] for e in alg.matrix_units(m2)]
    # unknowns: 16 entries of the channel matrix; equations indexed by (A, B) pairs
    rows, rhs = [], []
    for a_mat in units:
        for bi, b_mat in enumerate(units):
            row = np.zeros(16, dtype=complex)
            # omega_A(A F(B)) = 0.5 tr(A F(B)); F(B) = unvec(col_bi of matrix)
            for out_idx in range(4):
                i, j = divmod(out_idx, 2)
                basis_out = np.zeros((2, 2), dtype=complex)
                basis_out[i, j] = 1.0
                row[out_idx * 4 + bi] = 0.5 * np.trace(a_mat @ basis_out)
            rows.append(row)
            rhs.append(np.trace(rho @ np.kron(a_mat, b_mat)))
    coeff = np.stack(rows)
    sol, _, rank, _ = np.linalg.lstsq(coeff, np.array(rhs), rcond=None)
    residual = float(np.linalg.norm(coeff @ sol - np.array(rhs)))
    chan = Channel(m2, m2, sol.reshape(4, 4))
    return chan, residual


def _build_epr() -> list[CheckResult]:
    chan, residual = epr_conditional()
    checks = []
    checks.append(_check("joint-state equation solved with tiny residual",
                         residual <= 1e-10, f"residual {residual:.3g}"))
    expected = channel_from_action(
        AlgebraShape((2,)), AlgebraShape((2,)),
        lambda a: _single((2,), [np.array(
            [[a.blocks[0][1, 1], -a.blocks[0][0, 1]],
             [-a.blocks[0][1, 0], a.blocks[0][0, 0]]])]),
    )
    checks.append(_check("solution is the spin-flip conjugated transpose",
                         np.max(np.abs(chan.matrix - expected.matrix)) <= 1e-9))
    checks.append(_check("conditional is unital", is_unital(chan).passed))
    checks.append(_check("conditional passes positivity sampling (256 trials)",
                         is_positive_sampled(chan, trials=256, seed=0).passed))
    cp = is_cp(chan)
    checks.append(_check("conditional is not CP", not cp.passed))
    checks.append(_check("CP failure carries a witness", cp.witness is not None))
    eigvals = herm_eig(choi(chan)[0])[0]
    neg = np.isclose(eigvals, -1.0, atol=1e-9).sum()
    pos = np.isclose(eigvals, 1.0, atol=1e-9).sum()
    checks.append(_check("Choi eigenvalues are -1 and +1 (multiplicities 1 and 3)",
                         neg == 1 and pos == 3,
                         f"spectrum {np.round(eigvals, 6).tolist()}"))
    return checks


def compression_pair(n: int, m: int, rng: np.random.Generator) -> tuple[Channel, Channel]:
    """CPU pair with deterministic composite, from a random isometry compression.

    Returns (down, up) with down o up the identity; neither map alone is a
    homomorphism, so the pair exercises equational consequences of
    Schwarz positivity nontrivially.
    """
    gin = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    v, _ = np.linalg.qr(gin)
    proj = v @ v.conj().T
    dom_small, dom_big = AlgebraShape((n,)), AlgebraShape((m,))

    def up_act(c: AlgElement) -> AlgElement:
        avg = np.trace(c.blocks[0]) / n
        return AlgElement(dom_big, (v @ c.blocks[0] @ v.conj().T + avg * (np.eye(m) - proj),))

    def down_act(b: AlgElement) -> AlgElement:
        return AlgElement(dom_small, (v.conj().T @ b.blocks[0] @ v,))

    up = channel_from_action(dom_small, dom_big, up_act)
    down = channel_from_action(dom_big, dom_small, down_act)
    return down, up


_REGISTRY: dict[str, Fixture] = {}


def _register(name: str, location: str, builder: Callable[[], list[CheckResult]]):
    _REGISTRY[name] = Fixture(name, location, builder)


_register("hamming-7-4", "binary (7,4) block code with syndrome decoding", _build_hamming)
_register("knill-laflamme", "three-qubit phase code with recovery, four damping strengths",
          _build_kl_all)
_register("transpose-spos", "transpose map breaks the S-positivity equation",
          _build_transpose_spos)
_register("mu-norm", "norm growth of the multiplication map on M_n", _build_mu_norm)
_register("no-broadcast", "noncommutative multiplication is neither CP nor positive",
          _build_no_broadcast)
_register("left-right-ae", "one-sided truncation separates left and right a.e. equality",
          _build_left_right_ae)
_register("doubling-ae", "a.e. equality is not preserved by doubling", _build_doubling_ae)
_register("pad-ae-det", "padded inclusion is a.e. deterministic but not deterministic",
          _build_pad_ae_det)
_register("not-det-reasonable",
          "a.e. equal to a deterministic map without being a.e. deterministic",
          _build_not_det_reasonable)
_register("transpose-bayes", "a disintegration that is not a Bayes map", _build_transpose_bayes)
_register("strict-pos", "CPU maps fail strict positivity but satisfy its mirror",
          _build_strict_pos)
_register("pu-not-causal", "positive unital maps break causality", _build_pu_not_causal)
_register("epr", "maximally entangled joint state has no CPU conditional", _build_epr)


def counterexample(name: str) -> Fixture:
    if name not in _REGISTRY:
        raise UnknownFixture(f"no fixture named {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


def all_fixtures() -> list[Fixture]:
    return [_REGISTRY[name] for name in registry_names()]
