"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s and in failure
reports), pins its tolerance explicitly, and enforces the stated runtime
budget where one applies.
"""
import time
from fractions import Fraction

import numpy as np

from qmarkov import algebra as alg
from qmarkov import corpus, finstoch as fs, props
from qmarkov.algebra import AlgebraShape
from qmarkov.bayes import bayes_candidate, bayes_problem, modularity_chain
from qmarkov.channel import (
    Channel,
    apply,
    channel_from_action,
    choi,
    compose,
    is_cp,
    is_deterministic,
    is_positive_sampled,
    is_unital,
    mult_map,
)
from qmarkov.corpus import epr_conditional, kl_channels
from qmarkov.linalg import herm_eig
from qmarkov.state import ae_deterministic, ae_equal
from qmarkov.tolerances import DEFAULT_TOL


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {desc}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_hamming():
    start = time.time()
    report = corpus.counterexample("hamming-7-4").run()
    elapsed = time.time() - start
    failures = [c.desc for c in report.checks if not c.passed]
    _verdict(1, "Hamming (7,4): parity checks, 128 corrections, embedded disintegration",
             not failures and elapsed < 1.0,
             f"{elapsed:.2f}s" + (f" failures={failures}" if failures else ""))


def test_criterion_2_knill_laflamme():
    start = time.time()
    ok = True
    details = []
    for gamma in (0.0, 0.25, 0.5, 1.0):
        errs, recs, _ = corpus._kl_operators(gamma)
        rec_sum = sum(r.conj().T @ r for r in recs)
        ok &= np.max(np.abs(rec_sum - np.eye(8))) <= 1e-10
        _, _, f, g = kl_channels(gamma)
        ok &= np.max(np.abs(compose(f, g).matrix - np.eye(4))) <= 1e-9
        ok &= is_deterministic(g).passed
        checks = corpus._build_kl_single(gamma, n_states=8, seed=0)
        bad = [c.desc for c in checks if not c.passed]
        if bad:
            ok = False
            details.append(f"gamma={gamma}: {bad}")
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    _verdict(2, "Knill-Laflamme: recovery unital, F o G = id, determinism, 8 states",
             ok, f"{elapsed:.2f}s " + "; ".join(details))


def test_criterion_3_multiplication_pathologies():
    ok = True
    for n in range(2, 9):
        s = AlgebraShape((n,))
        witness = None
        for i in range(n):
            e1i = alg.unvec(s, np.eye(s.coord_dim)[alg.basis_index(s, 0, 0, i)])
            ei1 = alg.unvec(s, np.eye(s.coord_dim)[alg.basis_index(s, 0, i, 0)])
            term = alg.tensor_elem(e1i, ei1)
            witness = term if witness is None else witness + term
        ok &= abs(alg.norm(witness) - 1.0) <= 1e-10
        ok &= abs(alg.norm(apply(mult_map(s), witness)) - n) <= 1e-9
    mu2 = mult_map(AlgebraShape((2,)))
    cp = is_cp(mu2)
    min_eig = min(herm_eig(0.5 * (c + c.conj().T))[0][-1] for c in choi(mu2))
    ok &= (not cp.passed) and min_eig < -0.1
    _verdict(3, "multiplication map: unit-norm witness reaches norm n; M_2 case not CP",
             ok, f"choi min eig {min_eig:.3f}")


def test_criterion_4_epr_conditional():
    chan, residual = epr_conditional()
    ok = residual <= 1e-10
    ok &= is_unital(chan).passed
    ok &= is_positive_sampled(chan, trials=256, seed=0).passed
    ok &= not is_cp(chan).passed
    eigvals = herm_eig(choi(chan)[0])[0]
    neg = int(np.isclose(eigvals, -1.0, atol=1e-9).sum())
    pos = int(np.isclose(eigvals, 1.0, atol=1e-9).sum())
    ok &= neg == 1 and pos == 3
    _verdict(4, "EPR conditional: unique, unital, positive-sampled, not CP",
             ok, f"residual {residual:.2g}, Choi spectrum -1 x{neg}, +1 x{pos}")


def _random_star_preserving(s, t, rng):
    raw = rng.standard_normal((t.coord_dim, s.coord_dim)) + 1j * rng.standard_normal(
        (t.coord_dim, s.coord_dim))
    f = Channel(s, t, raw)

    def sym(b):
        return 0.5 * (apply(f, b) + alg.adjoint(apply(f, alg.adjoint(b))))

    return channel_from_action(s, t, sym)


def test_criterion_5_ae_toolkit():
    fixtures = ["left-right-ae", "pad-ae-det", "doubling-ae", "not-det-reasonable",
                "strict-pos"]
    ok = True
    bad_fixtures = []
    for name in fixtures:
        rep = corpus.counterexample(name).run()
        if not rep.passed:
            ok = False
            bad_fixtures.append(name)

    rng = np.random.default_rng(0)
    agree = 0
    for k in range(200):
        s, t = AlgebraShape((2,)), AlgebraShape((3,))
        f = _random_star_preserving(s, t, rng)
        omega = props.random_rank_deficient_state(t, rng)
        if k % 2:
            comp = alg.unit(t) - omega.support
            bump = _random_star_preserving(s, t, rng)
            g = channel_from_action(
                s, t,
                lambda b, f=f, bump=bump, comp=comp:
                    apply(f, b) + alg.mul(alg.mul(comp, apply(bump, b)), comp))
        else:
            g = _random_star_preserving(s, t, rng)
        eq_match = (ae_equal(f, g, omega, "left").passed
                    == ae_equal(f, g, omega, "right").passed)
        det_match = (ae_deterministic(f, omega, "left").passed
                     == ae_deterministic(f, omega, "right").passed)
        agree += int(eq_match and det_match)
    ok &= agree == 200
    _verdict(5, "a.e. toolkit: five fixtures match the expected patterns; "
                "left/right verdicts coincide on 200 star-preserving triples",
             ok, f"agreements {agree}/200" + (f" bad={bad_fixtures}" if bad_fixtures else ""))


def test_criterion_6_consequence_chain():
    start = time.time()
    rng = np.random.default_rng(0)
    kinds = ("unitary", "padded-block", "classical")
    violations = []
    for k in range(100):
        f, omega, g = props.disintegration_instance(kinds[k % 3], rng, max_dim=6)
        report = modularity_chain(f, omega, g, DEFAULT_TOL)
        violations.extend(f"instance {k}: {v}" for v in report.violations)
    elapsed = time.time() - start
    ok = not violations and elapsed < 30.0
    _verdict(6, "consequence chain: 100 CPU disintegrations are Bayes maps of a.e. "
                "deterministic channels", ok,
             f"{elapsed:.1f}s" + (f" violations={violations[:3]}" if violations else ""))


def test_criterion_7_classical_quantum_cross_oracle():
    rng = np.random.default_rng(0)
    ok = True
    worst = 0.0
    for _ in range(100):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cols = rng.dirichlet(np.ones(ny), size=nx)  # columns of f
        if rng.integers(0, 2) and ny > 2:
            cols[:, -1] = 0.0  # structurally dead outcome
            cols = cols / cols.sum(axis=1, keepdims=True)
        f = fs.stochastic(cols.T.tolist())
        p_raw = rng.dirichlet(np.ones(nx))
        if rng.integers(0, 2):
            p_raw[int(rng.integers(0, nx))] = 0.0
            p_raw = p_raw / p_raw.sum()
        p = fs.prob_vector(p_raw.tolist())
        chan = fs.embed(f)
        omega = fs.embed_prob(p)
        prob = bayes_problem(chan, omega)
        quantum = bayes_candidate(prob).candidate
        classical = fs.embed(fs.bayes_inverse(f, p))
        p_xi = prob.pullback.support
        for e in alg.matrix_units(chan.codomain):
            gap = alg.mul(apply(quantum, e) - apply(classical, e), p_xi)
            dev = alg.norm(gap)
            worst = max(worst, dev)
            ok &= dev <= 1e-9

    exact_ok = True
    for _ in range(100):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cols = []
        for _ in range(nx):
            w = [Fraction(int(v)) for v in rng.integers(0, 9, size=ny)]
            if sum(w) == 0:
                w[0] = Fraction(1)
            cols.append([v / sum(w) for v in w])
        f = fs.stochastic([[cols[x][y] for x in range(nx)] for y in range(ny)])
        w = [Fraction(int(v)) for v in rng.integers(0, 5, size=nx)]
        if sum(w) == 0:
            w[0] = Fraction(1)
        p = fs.prob_vector([v / sum(w) for v in w])
        g = fs.bayes_inverse(f, p)
        q = fs.push(f, p)
        for x in range(nx):
            for y in range(ny):
                if q.entries[y] != 0:
                    exact_ok &= (g.entries[x, y] * q.entries[y]
                                 == f.entries[y, x] * p.entries[x])
    ok &= exact_ok
    _verdict(7, "cross-oracle: quantum candidate matches the classical inverse on "
                "the support; Bayes diagram exact in rational mode",
             ok, f"worst supported deviation {worst:.2g}")


def test_criterion_8_counterexample_battery():
    names = ["transpose-spos", "mu-norm", "no-broadcast", "left-right-ae",
             "doubling-ae", "pad-ae-det", "not-det-reasonable", "transpose-bayes",
             "strict-pos", "pu-not-causal", "epr"]
    bad = []
    for name in names:
        rep = corpus.counterexample(name).run()
        if not rep.passed:
            bad.extend((name, c.desc) for c in rep.checks if not c.passed)
    _verdict(8, "counterexample battery: every expected failure appears with a "
                "witness and every mirrored variant holds",
             not bad, str(bad[:3]) if bad else "")


def test_criterion_9_property_suites():
    reports = props.run_all(seed=0, trials=64)
    bad = [(rep.name, c.desc, c.detail)
           for rep in reports for c in rep.checks if not c.passed]
    _verdict(9, "randomized property suites at 64 trials, seed 0",
             not bad, str(bad[:3]) if bad else "")
