from fractions import Fraction

import numpy as np
import pytest

from qmarkov import algebra as alg
from qmarkov import finstoch as fs
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.bayes import (
    bayes_candidate,
    bayes_problem,
    commutative_disintegration,
    modularity_chain,
    petz_exists,
    petz_recovery,
    verify_bayes,
    verify_disintegration,
)
from qmarkov.channel import (
    Channel,
    apply,
    channel_from_action,
    conjugation_by,
    identity_channel,
    invert,
    transpose_channel,
)
from qmarkov.corpus import doubling_pair, kl_channels
from qmarkov.errors import (
    NotAeDeterministic,
    NotCommutative,
    PreconditionsUnmet,
    PullbackNotPSD,
    SupportNotFull,
)
from qmarkov.state import pullback_state, state_from_density
from qmarkov.tolerances import DEFAULT_TOL, Tolerance

M2 = AlgebraShape((2,))


def state_of(shape, *mats):
    return state_from_density(
        AlgElement(shape, tuple(np.asarray(m, dtype=complex) for m in mats))
    )


def random_unitary(n, rng):
    gin = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(gin)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_identity_problem_recovers_identity():
    rng = np.random.default_rng(0)
    omega = state_from_density(alg.random_density(M2, rng))
    prob = bayes_problem(identity_channel(M2), omega)
    result = bayes_candidate(prob)
    assert result.bayes_ok and result.cpu_ok
    assert np.allclose(result.candidate.matrix, np.eye(4), atol=1e-9)


def test_candidate_matches_classical_bayes_on_embedded_problems():
    # independent oracle: the pointwise classical rule g_xy = f_yx p_x / q_y
    f = fs.stochastic([[Fraction(1, 2), Fraction(1, 4)],
                       [Fraction(1, 2), Fraction(3, 4)]])
    p = fs.prob_vector([Fraction(1, 3), Fraction(2, 3)])
    q = fs.push(f, p)
    chan = fs.embed(f)
    omega = fs.embed_prob(p)
    prob = bayes_problem(chan, omega)
    result = bayes_candidate(prob)
    assert result.bayes_ok
    for x in range(2):
        for y in range(2):
            expected = float(f.entries[y, x] * p.entries[x] / q.entries[y])
            e_x = alg.matrix_units(chan.codomain)[x]
            got = apply(result.candidate, e_x).blocks[y][0, 0]
            assert abs(got - expected) <= 1e-10


def test_transpose_candidate_left_passes_right_fails():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]])
    omega = state_of(M2, rho)
    prob = bayes_problem(transpose_channel(M2), omega)
    result = bayes_candidate(prob)
    assert result.bayes_left.passed
    assert not result.bayes_right.passed
    assert not result.cpu_ok


def test_candidate_left_condition_on_direct_sum_channels():
    # CPU channel between direct sums with cross-block routing: the candidate
    # must still satisfy the left Bayes condition for any prior
    from qmarkov.channel import is_cp, is_unital

    dom = AlgebraShape((2, 3))
    cod = AlgebraShape((2, 2))
    u = random_unitary(2, np.random.default_rng(3))

    def route(b):
        # first output block mixes a unitary twirl of block 0 with the
        # average of block 1; second block pinches two diagonal slots
        first = 0.6 * (u @ b.blocks[0] @ u.conj().T) \
            + 0.4 * (np.trace(b.blocks[1]) / 3) * np.eye(2)
        second = np.diag([b.blocks[1][0, 0], b.blocks[1][2, 2]]).astype(complex)
        return AlgElement(cod, (first, second))

    f = channel_from_action(dom, cod, route)
    assert is_unital(f).passed
    assert is_cp(f).passed
    for seed in range(4):
        rng = np.random.default_rng(seed)
        rho = alg.random_density(cod, rng)
        if seed % 2:  # kill the second block to force a deficient pullback
            top = rho.blocks[0] / np.trace(rho.blocks[0]).real
            rho = AlgElement(cod, (top, np.zeros((2, 2), dtype=complex)))
        omega = state_from_density(rho)
        prob = bayes_problem(f, omega)
        result = bayes_candidate(prob)
        assert result.bayes_left.passed, (seed, result.notes)
        # and the candidate preserves states
        for e in alg.matrix_units(cod):
            assert abs(prob.pullback.expect(apply(result.candidate, e))
                       - omega.expect(e)) <= 1e-9


def test_verify_bayes_identity_and_witness():
    rng = np.random.default_rng(1)
    omega = state_from_density(alg.random_density(M2, rng))
    ident = identity_channel(M2)
    assert verify_bayes(ident, omega, omega, ident, "left").passed
    assert verify_bayes(ident, omega, omega, ident, "right").passed

    t = transpose_channel(M2)
    omega = state_of(M2, np.array([[0.7, 0.1], [0.1, 0.3]]))
    xi = pullback_state(omega, t)
    rep = verify_bayes(t, omega, xi, t, "left")
    assert not rep.passed and rep.witness is not None


def test_candidate_reports_equal_verify_bayes():
    # bayes_candidate builds the product forms once for both sides; its two
    # reports must be the ones verify_bayes gives on the same candidate.  A
    # tolerance below rounding makes the passing instances fail.
    rng = np.random.default_rng(4)
    channels = [identity_channel(M2), transpose_channel(M2), *kl_channels(0.5)[:2],
                *doubling_pair(0.3),
                fs.embed(fs.stochastic([["1/2", "1/4"], ["1/2", "3/4"]]))]
    seen = set()
    for f in channels:
        prob = bayes_problem(f, state_from_density(alg.random_density(f.codomain, rng)))
        completions = [None, state_from_density(alg.random_density(f.codomain, rng))]
        for tol in (DEFAULT_TOL, Tolerance(eq=1e-17)):
            for completion in completions:
                result = bayes_candidate(prob, tol, completion)
                for side, rep in (("left", result.bayes_left), ("right", result.bayes_right)):
                    direct = verify_bayes(f, prob.prior, prob.pullback, result.candidate,
                                          side, tol)
                    assert (rep.verdict, rep.detail) == (direct.verdict, direct.detail)
                    assert rep.to_dict() == direct.to_dict()
                    seen.add((side, rep.passed))
    assert seen == {("left", True), ("left", False), ("right", True), ("right", False)}


def test_petz_identity():
    rng = np.random.default_rng(2)
    omega = state_from_density(alg.random_density(M2, rng))
    prob = bayes_problem(identity_channel(M2), omega)
    assert petz_exists(prob).passed
    assert np.allclose(petz_recovery(prob).matrix, np.eye(4), atol=1e-9)


def test_petz_recovers_inverse_of_unitary_conjugation():
    rng = np.random.default_rng(3)
    u = random_unitary(3, rng)
    s = AlgebraShape((3,))
    f = conjugation_by(AlgElement(s, (u,)))
    omega = state_from_density(alg.random_density(s, rng))
    prob = bayes_problem(f, omega)
    assert petz_exists(prob).passed
    recovery = petz_recovery(prob)
    # oracle: substituting sigma = U* rho U into the recovery formula
    # collapses it to conjugation by U*
    expected = conjugation_by(AlgElement(s, (u.conj().T,)))
    assert np.allclose(recovery.matrix, expected.matrix, atol=1e-8)
    xi = prob.pullback
    assert verify_bayes(f, omega, xi, recovery, "left").passed
    from qmarkov.channel import is_cp, is_unital
    assert is_cp(recovery).passed and is_unital(recovery).passed


def test_petz_commutation_fails_for_transpose():
    omega = state_of(M2, np.array([[0.7, 0.1], [0.1, 0.3]]))
    prob = bayes_problem(transpose_channel(M2), omega)
    rep = petz_exists(prob)
    assert not rep.passed and rep.witness is not None


def test_petz_requires_full_support():
    omega = state_of(M2, np.diag([1.0, 0.0]))
    prob = bayes_problem(identity_channel(M2), omega)
    with pytest.raises(SupportNotFull):
        petz_exists(prob)


def test_support_and_pseudo_inverse_share_one_rank_decision():
    # the second weight is below tol.rank times the largest eigenvalue, so it
    # is outside the support; the pseudo-inverse must not invert it either
    s = AlgebraShape((1, 1))
    omega = state_of(s, [[1 - 1e-11]], [[1e-11]])
    prob = bayes_problem(identity_channel(s), omega)
    assert np.allclose([b[0, 0] for b in prob.pullback.support.blocks], [1, 0])
    result = bayes_candidate(prob)
    assert result.unital.passed and result.cpu_ok
    one = apply(result.candidate, alg.unit(s))
    assert np.allclose([b[0, 0] for b in one.blocks], [1, 1])
    petz_one = apply(petz_recovery(prob), alg.unit(s))
    assert np.allclose([b[0, 0] for b in petz_one.blocks], [1, 0])


def test_invertible_channel_disintegrates():
    rng = np.random.default_rng(4)
    u = random_unitary(3, rng)
    s = AlgebraShape((3,))
    f = conjugation_by(AlgElement(s, (u,)))
    omega = state_from_density(alg.random_density(s, rng))
    g = invert(f)
    assert verify_disintegration(f, omega, g).passed


def test_disintegration_detects_broken_state_preservation():
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    f = conjugation_by(AlgElement(M2, (u,)))
    omega = state_from_density(alg.random_density(M2, rng))
    g = invert(f)
    bad = channel_from_action(
        M2, M2, lambda a: apply(g, a) + 0.05 * complex(np.trace(a.blocks[0])) * alg.unit(M2)
    )
    rep = verify_disintegration(f, omega, bad)
    assert not rep.passed and "state preservation" in rep.detail


def test_disintegration_section_refuses_an_overflowing_composite():
    """On C^2 with omega = (1, 0), F = G = diag(1, 1e200) pass state preservation off the
    support, and G o F overflows: the a.e. section raises the ValueError a composite
    channel with Inf entries raises."""
    c2 = AlgebraShape((1, 1))
    f = g = Channel(c2, c2, np.diag([1.0, 1e200]))
    omega = state_from_density(alg.unvec(c2, [1.0, 0.0]))
    with pytest.raises(ValueError, match="NaN or Inf"):
        verify_disintegration(f, omega, g)


def test_commutative_disintegration_recovers_classical_formula():
    func = [0, 0, 1]  # surjective map from three points onto two
    kern = fs.deterministic_kernel(lambda x: func[x], 3, 2)
    p = fs.prob_vector([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    chan = fs.embed(kern)
    omega = fs.embed_prob(p)
    g = commutative_disintegration(chan, omega)
    assert verify_disintegration(chan, omega, g).passed
    oracle = fs.bayes_inverse(kern, p)
    for x in range(3):
        e_x = alg.matrix_units(chan.codomain)[x]
        img = apply(g, e_x)
        for y in range(2):
            assert abs(img.blocks[y][0, 0] - float(oracle.entries[x, y])) <= 1e-10


def test_commutative_disintegration_routes_dead_blocks():
    # domain has a mass-zero matrix block; the construction must still verify
    dom = AlgebraShape((1, 2, 1))
    cod = AlgebraShape((1, 1))

    def act(b):
        # supported points read the two scalar blocks; the M_2 block is dead
        return AlgElement(cod, (b.blocks[0].copy(), b.blocks[2].copy()))

    f = channel_from_action(dom, cod, act)
    omega = state_of(cod, [[0.5]], [[0.5]])
    g = commutative_disintegration(f, omega)
    assert verify_disintegration(f, omega, g).passed
    # dead block receives the averaged value
    probe = AlgElement(cod, (np.array([[1.0]]), np.array([[3.0]])))
    img = apply(g, probe)
    assert np.allclose(img.blocks[1], 2.0 * np.eye(2))


def test_commutative_disintegration_error_paths():
    rng = np.random.default_rng(6)
    noncomm = conjugation_by(AlgElement(M2, (random_unitary(2, rng),)))
    omega = state_from_density(alg.random_density(M2, rng))
    with pytest.raises(NotCommutative):
        commutative_disintegration(noncomm, omega)

    # commutative codomain but genuinely random (not a.e. deterministic) kernel
    kern = fs.stochastic([[0.5, 0.25], [0.5, 0.75]])
    p = fs.prob_vector([0.5, 0.5])
    with pytest.raises(NotAeDeterministic):
        commutative_disintegration(fs.embed(kern), fs.embed_prob(p))


def test_commutative_disintegration_refuses_a_map_vanishing_at_a_supported_point():
    # F(b) = (b_0, b_1, 0) is multiplicative everywhere, but omega o F has trace 3/4
    dom, cod = AlgebraShape((1, 1)), AlgebraShape((1, 1, 1))
    f = Channel(dom, cod, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    omega = state_of(cod, [[0.5]], [[0.25]], [[0.25]])
    with pytest.raises(PullbackNotPSD, match="trace"):
        commutative_disintegration(f, omega)


def test_modularity_chain_on_knill_laflamme():
    _, _, f, g = kl_channels(0.5)
    rng = np.random.default_rng(7)
    omega = state_from_density(alg.random_density(M2, rng))
    transported = pullback_state(omega, f)
    report = modularity_chain(g, transported, f)
    assert report.passed
    assert report.bayes.passed and report.ae_det.passed


def test_modularity_chain_on_embedded_classical_function():
    func = [1, 0, 1, 1]
    kern = fs.deterministic_kernel(lambda x: func[x], 4, 2)
    p = fs.prob_vector([Fraction(1, 4)] * 4)
    chan = fs.embed(kern)
    omega = fs.embed_prob(p)
    g = fs.embed(fs.bayes_inverse(kern, p))
    report = modularity_chain(chan, omega, g)
    assert report.passed


def test_modularity_chain_on_embedded_hamming_instance():
    # recovery kernel with the transported state; the error kernel is both the
    # disintegration and, by the chain, a Bayes map
    from qmarkov.corpus import _hamming_error_kernel, hamming_decode

    f = _hamming_error_kernel(Fraction(1, 100))
    g = fs.deterministic_kernel(hamming_decode, 128, 16)
    p = fs.prob_vector([Fraction(1, 16)] * 16)
    q = fs.push(f, p)
    rec_chan, err_chan = fs.embed(g), fs.embed(f)
    report = modularity_chain(rec_chan, fs.embed_prob(q), err_chan)
    assert report.passed


def test_modularity_chain_refuses_non_cpu_instances():
    t = transpose_channel(M2)
    omega = state_of(M2, np.array([[0.7, 0.1], [0.1, 0.3]]))
    # the transpose disintegrates itself but is not CP: the chain refuses it
    assert verify_disintegration(t, omega, t).passed
    with pytest.raises(PreconditionsUnmet):
        modularity_chain(t, omega, t)
