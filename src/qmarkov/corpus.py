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

from . import _grid
from . import algebra as alg
from . import finstoch as fs
from .algebra import AlgebraShape, AlgElement
from .bayes import _disintegrations, bayes_problem, verify_bayes, verify_disintegration
from .channel import (
    Channel,
    PropertyReport,
    _ad_matrix,
    _kron,
    _owned,
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
from .state import (State, _from_densities, _pullback, _supports, ae_deterministic, ae_equal,
                    pullback_state, state_from_density)
from .tolerances import DEFAULT_TOL

__all__ = [
    "CheckResult",
    "FixtureReport",
    "Fixture",
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


def _same_map(f: Channel, g: Channel) -> bool:
    """F(E_a) = G(E_a) on every matrix unit, decided by the unit grid of `ae_equal`
    with no support: max|F(E_a) - G(E_a)| <= tol.eq * max(1, ||F(E_a)||, ||G(E_a)||)."""
    return _grid.equal_failure(f.codomain, f.matrix[None], g.matrix[None], DEFAULT_TOL) == [None]


# ---------------------------------------------------------------------------
# Hamming (7,4)
# ---------------------------------------------------------------------------

_Q = np.array([[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], dtype=int)
_H = np.concatenate([np.eye(3, dtype=int), _Q], axis=1)
_M = np.concatenate([_Q, np.eye(4, dtype=int)], axis=0)


def _masks(rows: np.ndarray) -> tuple[int, ...]:
    """Each 0/1 row as an int, its first entry the most significant bit."""
    return tuple(int("".join(map(str, row)), 2) for row in rows)


# A word is an int whose most significant bit is the first entry of its bit
# vector, so entry i of a codeword is bit 6 - i.  Entry r of a Z2 matrix times
# a word is the parity of (row mask r & word).
_PARITY = _masks(_Q)
_CHECKS = _masks(_H)
# syndrome -> the bit to flip: the syndrome of a flip at entry i is column i of H
_FLIP = {s: 1 << (6 - i) for i, s in enumerate(_masks(_H.T))}


def _parity(mask: int, word: int) -> int:
    return bin(mask & word).count("1") & 1


def hamming_encode(x: int) -> int:
    """The codeword M x over Z2: three check bits, then the four message bits."""
    x &= 0b1111
    return sum(_parity(q, x) << (6 - r) for r, q in enumerate(_PARITY)) | x


def hamming_decode(y: int) -> int:
    """Syndrome decoding: correct at most one flipped bit, then project."""
    syndrome = sum(_parity(h, y) << (2 - r) for r, h in enumerate(_CHECKS))
    return (y ^ _FLIP.get(syndrome, 0)) & 0b1111


def _hamming_error_kernel(eps: Fraction) -> fs.StochasticMatrix:
    """Single-error channel: stay put with 1 - 7 eps, flip one bit with eps each.
    With eps = n / d (at most 1/7), each column holds the weights d - 7 n and n."""
    n, d = eps.as_integer_ratio()
    x = np.arange(16)
    y0 = np.array([hamming_encode(v) for v in range(16)])
    weights = np.zeros((128, 16), dtype=np.int64)
    weights[y0 ^ (1 << np.arange(7))[:, None], x] = n
    weights[y0, x] = d - 7 * n
    return fs.StochasticMatrix._normalized(weights)


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
    # equal on every point of a faithful prior: equal entries
    p = fs.prob_vector([Fraction(1, 16)] * 16)
    ident = fs.deterministic_kernel(lambda x: x, 16, 16)
    is_id = fs.ae_equal(fs.compose(g, f), ident, p).passed
    checks.append(_check("recovery after error is the identity kernel, exactly", is_id))

    # error disintegrates recovery: verify on the embedded channels
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


# ---------------------------------------------------------------------------
# Knill-Laflamme three-qubit code
# ---------------------------------------------------------------------------


def _kron3(a, b, c):
    return _kron(_kron(a, b), c)


def _kl_errors(gamma: float) -> list[np.ndarray]:
    """The Kraus operators of the error map at damping strength gamma."""
    decay = np.exp(-gamma)
    a_plus = np.sqrt((1 + decay) / 2)
    a_minus = np.sqrt((1 - decay) / 2)
    big_gamma = 0.25 * (2 - np.exp(-3 * gamma) + 3 * decay)
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    lam_p = a_plus * eye
    lam_m = a_minus * sz
    errs = [
        _kron3(lam_p, lam_p, lam_p),
        _kron3(lam_m, lam_p, lam_p),
        _kron3(lam_p, lam_m, lam_p),
        _kron3(lam_p, lam_p, lam_m),
    ]
    return [e / np.sqrt(big_gamma) for e in errs]


def _kl_code() -> tuple[list[np.ndarray], np.ndarray]:
    """The recovery Kraus operators and the code isometry v: the same at every strength."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex)
    minus = np.array([1.0, -1.0], dtype=complex)
    logical0 = _kron3(plus, plus, plus) / 2**1.5
    logical1 = _kron3(minus, minus, minus) / 2**1.5
    v = np.stack([logical0, logical1], axis=1)
    p_code = np.outer(logical0, logical0.conj()) + np.outer(logical1, logical1.conj())
    recs = [
        p_code @ _kron3(eye, eye, eye),
        p_code @ _kron3(sz, eye, eye),
        p_code @ _kron3(eye, sz, eye),
        p_code @ _kron3(eye, eye, sz),
    ]
    return recs, v


def _kl_recovery() -> tuple[Channel, Channel, Channel]:
    """The recovery R on M_8, Ad_V+ : M_8 ~> M_2 and G = R o Ad_V, which no strength changes."""
    recs, v = _kl_code()
    m8 = AlgebraShape((8,))
    chan_r = kraus_channel(m8, m8, recs)
    up = ad_channel(v)  # A |-> V A V+  : M_2 -> M_8
    down = ad_channel(v.conj().T)  # B |-> V+ B V : M_8 -> M_2
    return chan_r, down, compose(chan_r, up)


def kl_channels(gamma: float) -> tuple[Channel, Channel, Channel, Channel]:
    """Error map E, recovery R (both on M_8), and the composites F, G.

    Operator order is fixed by the requirement F o G = id on M_2: the
    composite G = R o Ad_V ascends to the big algebra, F = Ad_V+ o E comes
    back down.
    """
    return _kl_channels(gamma, _kl_recovery())


def _kl_channels(gamma: float, recovery) -> tuple[Channel, Channel, Channel, Channel]:
    """`kl_channels(gamma)` on the `_kl_recovery()` given, so that a sweep over
    strengths builds it once."""
    chan_r, down, g = recovery
    m8, m2 = AlgebraShape((8,)), AlgebraShape((2,))
    chan_e = kraus_channel(m8, m8, _kl_errors(gamma))
    f = compose(down, chan_e)
    assert g.domain == m2 and g.codomain == m8
    assert f.domain == m8 and f.codomain == m2
    return chan_e, chan_r, f, g


def _build_kl(gammas, n_states: int = 8, seed: int = 0) -> list[CheckResult]:
    """The checks of the code at every damping strength of gammas, in order: six of
    its channels, then whether the error map disintegrates the recovery for the
    n_states states of `_kl_reports`."""
    checks, pairs, recovery = [], [], _kl_recovery()
    for gamma in gammas:
        chan_e, chan_r, f, g = _kl_channels(gamma, recovery)
        checks.append([
            # the Heisenberg Kraus channel sends 1 to sum K_i* K_i
            _check(f"sum R_i* R_i = 1 (gamma={gamma})", is_unital(chan_r).passed),
            _check(f"error channel is unital (gamma={gamma})", is_unital(chan_e).passed),
            _check(f"F o G = id on M_2 (gamma={gamma})",
                   _same_map(compose(f, g), identity_channel(f.codomain))),
            _check(f"recovery is deterministic (gamma={gamma})", is_deterministic(g).passed),
            _check(f"error map is CP (gamma={gamma})", is_cp(f).passed),
            _check(f"recovery map is CP (gamma={gamma})", is_cp(g).passed),
        ])
        pairs.append((f, g))
    out = []
    for gamma, six, reports in zip(gammas, checks, _kl_reports(pairs, n_states, seed)):
        out += six + [_check(
            f"error disintegrates recovery for {n_states} sampled states (gamma={gamma})",
            all(r.passed for r in reports))]
    return out


def _kl_reports(pairs, n_states: int, seed: int) -> list[list[PropertyReport]]:
    """Per pair (F, G) of an error map F: M_8 ~> M_2 and a recovery G: M_2 ~> M_8, the
    report of verify_disintegration(G, omega o F, F) for n_states states omega of M_2.

    The states are drawn once, as n_states successive `alg.random_density` calls
    from the seed draw them, and every pair uses them.  In each triple the error
    map plays the disintegration, and the transported state omega o F lives on
    the big algebra.  All pullbacks and disintegrations are decided as one stack,
    pair by pair, and every row as its own call decides it.
    """
    m2, m8 = AlgebraShape((2,)), AlgebraShape((8,))
    z = alg._random_coords(m2, np.random.default_rng(seed), (n_states,))
    rho = alg._densities(m2, z)
    _from_densities(m2, rho)   # each is a state, as state_from_density decides it
    f_all = np.repeat(np.array([f.matrix for f, _ in pairs]), n_states, axis=0)
    g_all = np.repeat(np.array([g.matrix for _, g in pairs]), n_states, axis=0)
    transported, _ = _pullback(m8, np.tile(rho, (len(pairs), 1)), f_all)
    sigma, stacks = _pullback(m2, transported, g_all)
    reports = _disintegrations(m2, m8, g_all, f_all, transported, sigma, _supports(m2, stacks),
                               DEFAULT_TOL)
    return [reports[i * n_states:(i + 1) * n_states] for i in range(len(pairs))]


def knill_laflamme(gamma: float = 0.5) -> Fixture:
    return Fixture(
        "knill-laflamme",
        "three-qubit phase code with recovery, parameterized by damping",
        lambda: _build_kl((gamma,)),
    )


# ---------------------------------------------------------------------------
# Counterexample registry
# ---------------------------------------------------------------------------


def _single(shape_dims: tuple[int, ...], mats) -> AlgElement:
    return AlgElement(AlgebraShape(shape_dims), tuple(np.asarray(m, dtype=complex) for m in mats))


def _build_transpose_spos() -> list[CheckResult]:
    m2 = AlgebraShape((2,))
    t = transpose_channel(m2)
    checks = []
    checks.append(_check("transpose squared is the identity",
                         _same_map(compose(t, t), identity_channel(m2))))
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
    tol, checks = DEFAULT_TOL, []
    for n in range(2, 9):
        a = _a_n(n)
        mu = mult_map(AlgebraShape((n,)))
        norm_a = alg.norm(a)
        image = apply(mu, a)
        norm_mu_a = alg.norm(image)
        checks.append(_check(f"||A({n})|| = 1", abs(norm_a - 1.0) <= tol.eq, f"got {norm_a!r}"))
        checks.append(_check(f"||mu_{n}(A({n}))|| = {n}",
                             abs(norm_mu_a - n) <= tol.eq * tol.scale(n), f"got {norm_mu_a!r}"))
        if n == 3:
            expected = 3.0 * alg.matrix_units(AlgebraShape((3,)))[0]
            checks.append(_check("mu_3(A(3)) = 3 E_11", alg.elem_equal(image, expected)))
    return checks


def _build_no_broadcast() -> list[CheckResult]:
    mu = mult_map(AlgebraShape((2,)))
    checks = []
    checks.append(_check("multiplication map is unital", is_unital(mu).passed))
    cp = is_cp(mu)
    min_eig = cp.witness["min_eigenvalue"]
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


def _padded(j: Channel) -> Channel:
    """B |-> J(B) + tr(B)/n (1 - J(1)) for a map J out of M_n (`_padded_matrix`)."""
    return _owned(j.domain, j.codomain, _padded_matrix(j.domain, j.codomain, j.matrix))


def _padded_matrix(dom: AlgebraShape, cod: AlgebraShape, m: np.ndarray) -> np.ndarray:
    """The matrix of B |-> J(B) + tr(B)/n (1 - J(1)) for maps J: M_n ~> cod with matrices
    m (..., c, n^2): m plus vec(1 - J(1)) vec(1_n / n)^T, so the leftover part of the
    unit carries the average."""
    one = alg._unit_coords(dom)
    rest = alg._unit_coords(cod) - m @ one
    return m + rest[..., None] * (one / dom.blocks[0])


def padded_inclusion(n: int, m: int) -> Channel:
    """M_n -> M_m embedding B |-> diag(B, tr(B)/n 1) on the leftover corner."""
    return _padded(ad_channel(np.eye(m, n)))


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


def _doubling() -> Channel:
    """The doubling embedding B |-> diag(B, B) of M_2 in M_4."""
    return kraus_channel(AlgebraShape((2,)), AlgebraShape((4,)), [np.eye(2, 4), np.eye(2, 4, 2)])


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

    return channel_from_action(m2, m4, f_act), _doubling()


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
    xi = state_from_density(_single((3,), [np.diag([0.5, 0.5, 0.0]).astype(complex)]))
    return _doubling(), ad_channel(np.eye(3, 4)), xi


def _strict_positivity_violations(f: Channel, g: Channel, p: AlgElement):
    """(max, first maximizing (a, b), max of the mirror) of the deviations
    ||P (G(E_a F(E_b)) - G(E_a) G(F(E_b)))|| and ||P (G(F(E_b) E_a) - G(F(E_b)) G(E_a))||
    over the units E_a of F's codomain and E_b of its domain; the pair is
    None when every deviation is 0.

    Both grids, (a, b) row-major, are one stack of products, one product
    with G's matrix, one with P and one batched operator norm.
    """
    big, small = f.codomain, g.codomain
    units = np.eye(big.coord_dim, dtype=complex)[:, None]   # E_a, against every b
    fb, ga = f.matrix.T[None], g.matrix.T[:, None]
    gfb = (g.matrix @ f.matrix).T[None]
    inner = np.stack([alg._mul_coords(big, units, fb), alg._mul_coords(big, fb, units)])
    outer = np.stack([alg._mul_coords(small, ga, gfb), alg._mul_coords(small, gfb, ga)])
    gap = alg._mul_coords(small, alg.vec(p), inner @ g.matrix.T - outer)
    direct, mirror = alg._op_norm(alg._stacks(small, gap))
    worst = direct.max()
    witness = divmod(int(direct.argmax()), direct.shape[1]) if worst > 0 else None
    return worst, witness, mirror.max()


def _build_strict_pos() -> list[CheckResult]:
    f, g, xi = strict_positivity_triple()
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
    worst_direct, direct_witness, worst_mirror = _strict_positivity_violations(f, g, xi.support)
    checks.append(_check("strict-positivity equation fails", worst_direct > 0.1,
                         f"max violation {worst_direct:.3f}"))
    checks.append(_check("violation carries a witness pair", direct_witness is not None))
    # units and their images under the CPU maps F and G have norm at most 1: the scale is 1
    checks.append(_check("mirrored equation holds in this example",
                         worst_mirror <= DEFAULT_TOL.eq, f"max deviation {worst_mirror:.3g}"))
    return checks


_CAUSAL_PROJ = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex)


def _causality_pair() -> tuple[Channel, Channel]:
    """PU maps H, K: M_3 -> M_2 that agree against every F G (A .) but not once C is inserted."""
    m2, m3 = AlgebraShape((2,)), AlgebraShape((3,))
    proj, proj_perp = _CAUSAL_PROJ, np.eye(2) - _CAUSAL_PROJ
    lam = 0.2

    def h_act(b: AlgElement) -> AlgElement:
        x = b.blocks[0]
        return _single((2,), [x[0, 0] * proj_perp + 0.5 * (x[1, 1] + x[2, 2]) * proj])

    def k_act(b: AlgElement) -> AlgElement:
        x = b.blocks[0]
        return _single((2,), [x[0, 0] * proj_perp + (lam * x[1, 1] + (1 - lam) * x[2, 2]) * proj])

    return channel_from_action(m3, m2, h_act), channel_from_action(m3, m2, k_act)


def _causality_violations(h: Channel, k: Channel, g: Channel, proj: np.ndarray):
    """(max of the hypothesis, max of the conclusion, its first maximizing (c, a, b)) of
    |tr(P G(E_a H(E_b))) - tr(P G(E_a K(E_b)))| on the (b, a) grid and
    |tr(P E_c G(E_a H(E_b))) - tr(P E_c G(E_a K(E_b)))| on the (b, a, c) grid,
    over the units E_b of H's domain and E_a, E_c of its codomain, one
    matrix block; the triple is None when every conclusion deviation is 0.

    Both grids are stacks of unit products with one product with G's matrix,
    and tr(P X) is one contraction of the coordinates of X.
    """
    s = g.domain
    units = np.eye(s.coord_dim, dtype=complex)
    images = np.stack([h.matrix.T, k.matrix.T])[:, :, None]                 # (2, b, 1, d)
    hyp = alg._mul_coords(s, units, images) @ g.matrix.T                     # (2, b, a, d)
    conc = alg._mul_coords(s, units, hyp[..., None, :])                      # (2, b, a, c, d)
    trace = proj.T.reshape(-1)       # tr(P X) = sum_ij P_ij X_ji
    worst_hyp = np.abs(np.subtract(*(hyp @ trace))).max()
    dev = np.abs(np.subtract(*(conc @ trace)))
    worst = dev.max()
    if not worst > 0:
        return worst_hyp, worst, None
    b, a, c = np.unravel_index(int(dev.argmax()), dev.shape)
    return worst_hyp, worst, (int(c), int(a), int(b))


def _build_pu_not_causal() -> list[CheckResult]:
    h, k = _causality_pair()
    g = transpose_channel(AlgebraShape((2,)))
    checks = []
    checks.append(_check("H and K are CPU",
                         is_cp(h).passed and is_unital(h).passed
                         and is_cp(k).passed and is_unital(k).passed))
    worst_hyp, worst_conc, conc_witness = _causality_violations(h, k, g, _CAUSAL_PROJ)
    # |tr(P X)| <= ||X||, and units and their images under the PU maps H, K and the
    # transpose have norm at most 1: the hypothesis is decided at scale 1
    checks.append(_check("causality hypothesis holds: F G (A H(B)) = F G (A K(B))",
                         worst_hyp <= DEFAULT_TOL.eq, f"max deviation {worst_hyp:.3g}"))
    checks.append(_check("causality conclusion fails once C is inserted",
                         worst_conc > 0.001, f"max violation {worst_conc:.4f}"))
    checks.append(_check("conclusion failure carries a witness triple",
                         conc_witness is not None))
    return checks


def epr_conditional() -> tuple[Channel, float]:
    """Least-squares solve of the joint-state equation for the EPR density.

    Returns the unique solving channel and the residual of the linear system.
    """
    coeff, rhs = _epr_system()
    sol = np.linalg.lstsq(coeff, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(coeff @ sol - rhs))
    m2 = AlgebraShape((2,))
    return Channel(m2, m2, sol.reshape(4, 4)), residual


def _epr_system() -> tuple[np.ndarray, np.ndarray]:
    """The joint-state equation omega_A(A F(B)) = tr(rho (A (x) B)) for the EPR density
    rho, on the unit pairs (A, B) = (E_a, E_b) of M_2, as 16 equations (row 4 a + b) in
    the 16 entries of the channel matrix (unknown 4 c + b is coordinate c of F(E_b)).

    omega_A(E_a E_c) = 0.5 tr(E_a E_c) is 1/2 when E_c = E_a* and 0 otherwise, and
    tr(rho (E_kl (x) E_pq)) is the entry rho[2 l + q, 2 k + p].
    """
    rho = 0.5 * np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
    )
    a, b = np.divmod(np.arange(16), 4)
    coeff = np.zeros((16, 16), dtype=complex)
    coeff[np.arange(16), 4 * alg.adjoint_index(AlgebraShape((2,)))[a] + b] = 0.5
    (k, l), (p, q) = np.divmod(a, 2), np.divmod(b, 2)
    return coeff, rho[2 * l + q, 2 * k + p]


def _build_epr() -> list[CheckResult]:
    chan, residual = epr_conditional()
    tol, checks = DEFAULT_TOL, []
    # the right-hand side, the entries +-1/2 of the EPR density, has norm 1: the scale is 1
    checks.append(_check("joint-state equation solved with tiny residual",
                         residual <= tol.eq, f"residual {residual:.3g}"))
    expected = compose(ad_channel([[0, 1], [-1, 0]]), transpose_channel(AlgebraShape((2,))))
    checks.append(_check("solution is the spin-flip conjugated transpose",
                         _same_map(chan, expected)))
    checks.append(_check("conditional is unital", is_unital(chan).passed))
    checks.append(_check("conditional passes positivity sampling (256 trials)",
                         is_positive_sampled(chan, trials=256, seed=0).passed))
    cp = is_cp(chan)
    checks.append(_check("conditional is not CP", not cp.passed))
    checks.append(_check("CP failure carries a witness", cp.witness is not None))
    eigvals = herm_eig(choi(chan)[0])[0]
    # eigenvalues +-1 of a Choi matrix of norm 1: the scale is 1
    neg = (np.abs(eigvals + 1.0) <= tol.eq).sum()
    pos = (np.abs(eigvals - 1.0) <= tol.eq).sum()
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
    down, up = _compression_matrices(v)
    small, big = AlgebraShape((n,)), AlgebraShape((m,))
    return _owned(big, small, down), _owned(small, big, up)


def _compression_matrices(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of X |-> V* X V and of `_padded` C |-> V C V*, for isometries v
    (..., m, n): the pair of `compression_pair`."""
    m, n = v.shape[-2:]
    return (_ad_matrix(alg._dagger(v)),
            _padded_matrix(AlgebraShape((n,)), AlgebraShape((m,)), _ad_matrix(v)))


_REGISTRY: dict[str, Fixture] = {}


def _register(name: str, location: str, builder: Callable[[], list[CheckResult]]):
    _REGISTRY[name] = Fixture(name, location, builder)


_register("hamming-7-4", "binary (7,4) block code with syndrome decoding", _build_hamming)
_register("knill-laflamme", "three-qubit phase code with recovery, four damping strengths",
          lambda: _build_kl((0.0, 0.25, 0.5, 1.0)))
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
