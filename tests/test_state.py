import numpy as np
import pytest

from qmarkov import _grid
from qmarkov import algebra as alg
from qmarkov import state
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import Channel, apply, channel_from_action, identity_channel, transpose_channel
from qmarkov.corpus import padded_inclusion, unreasonable_pair
from qmarkov.errors import NotSelfAdjoint, PullbackNotPSD, ShapeMismatch
from qmarkov.props import random_cpu_channel, random_rank_deficient_state
from qmarkov.state import (
    NullspaceTest,
    ae_deterministic,
    ae_equal,
    ae_unital,
    pullback_state,
    state_from_density,
    support,
)

M2 = AlgebraShape((2,))


def density(shape, *mats):
    return state_from_density(AlgElement(shape, tuple(np.asarray(m, dtype=complex) for m in mats)))


def test_state_validation():
    with pytest.raises(ValueError):
        density(M2, [[1.0, 0.0], [0.0, 1.0]])  # trace 2
    with pytest.raises(ValueError):
        density(M2, [[1.5, 0.0], [0.0, -0.5]])  # indefinite


def test_support_of_diagonal_density():
    s = AlgebraShape((3,))
    omega = density(s, np.diag([0.5, 0.5, 0.0]))
    assert np.allclose(support(omega).blocks[0], np.diag([1.0, 1.0, 0.0]))


def test_support_of_faithful_density_is_unit():
    rng = np.random.default_rng(0)
    s = AlgebraShape((2, 3))
    omega = state_from_density(alg.random_density(s, rng))
    assert alg.elem_equal(support(omega), alg.unit(s))


def test_support_of_corner_density():
    s = AlgebraShape((4,))
    rho = np.zeros((4, 4)); rho[0, 0] = 1.0
    omega = density(s, rho)
    assert np.allclose(support(omega).blocks[0], rho)


def test_support_reproduces_the_state_on_basis():
    rng = np.random.default_rng(1)
    s = AlgebraShape((3, 2))
    # rank-deficient: kill one direction in the first block
    rho = alg.random_density(s, rng)
    mask = AlgElement(s, (np.diag([1.0, 1.0, 0.0]), np.eye(2)))
    rho = alg.mul(alg.mul(mask, rho), mask)
    rho = rho * (1.0 / alg.trace(rho).real)
    omega = state_from_density(rho)
    p = support(omega)
    assert abs(omega.expect(p) - 1.0) <= 1e-10
    assert alg.elem_equal(alg.mul(p, p), p)          # idempotent
    assert alg.elem_equal(alg.adjoint(p), p)         # self-adjoint
    for e in alg.matrix_units(s):
        val = omega.expect(e)
        assert abs(omega.expect(alg.mul(p, e)) - val) <= 1e-10
        assert abs(omega.expect(alg.mul(e, p)) - val) <= 1e-10


def test_spectral_functions_share_the_support():
    from loop_reference import pinv_psd, sqrt_psd
    from qmarkov.props import random_cpu_channel, random_rank_deficient_state

    rng = np.random.default_rng(12)
    for blocks in ((3,), (4,), (1, 2, 3)):
        for full in (True, False):
            omega = random_rank_deficient_state(AlgebraShape(blocks), rng, full=full)
            spec = omega.spectrum
            pinv, root_pinv = spec.inverse_power(1.0), spec.inverse_power(0.5)
            for p, r, rr, s, rho in zip(omega.support.blocks, pinv.blocks, root_pinv.blocks,
                                        spec.sqrt().blocks, omega.density.blocks):
                assert np.allclose(rr @ rr, r, atol=1e-8)
                assert np.allclose(r @ rho, p, atol=1e-8) and np.allclose(rho @ r, p, atol=1e-8)
                assert np.allclose(s, sqrt_psd(rho), atol=1e-12)
            if len(blocks) == 1:   # one block: the global and blockwise cutoffs coincide
                assert np.allclose(pinv.blocks[0], pinv_psd(omega.density.blocks[0]), atol=1e-10)


def test_rank_cutoff_is_relative_to_the_largest_eigenvalue_of_all_blocks():
    s = AlgebraShape((1, 2))
    omega = density(s, [[1 - 2e-11]], np.diag([1e-11, 1e-11]))
    assert np.allclose(omega.support.blocks[1], 0)
    assert np.allclose(omega.spectrum.inverse_power(1.0).blocks[1], 0)


def test_stacked_states_keep_each_rank_cutoff_and_raise_the_first_refusal():
    # 0.7e-10 is above tol.rank times 0.5, the largest eigenvalue of its own density,
    # and below tol.rank times that of the first: only a cutoff per density keeps it
    s = AlgebraShape((1, 2))
    dens = [np.diag([1 - 0.6e-10, 0.6e-10, 0.0]), np.diag([0.5, 0.5 - 0.7e-10, 0.7e-10])]
    v = np.array([alg.vec(AlgElement(s, (d[:1, :1], d[1:, 1:]))) for d in dens])
    stacked = state._from_densities(s, v)
    for omega, row in zip(stacked, v):
        alone = state_from_density(alg.unvec(s, row))
        assert alg.vec(omega.density).tobytes() == alg.vec(alone.density).tobytes()
        assert alg.vec(omega.support).tobytes() == alg.vec(alone.support).tobytes()
    assert [int(alg.trace(o.support).real) for o in stacked] == [1, 3]
    bad = np.array([v[1], 2 * v[0], -v[1]])   # trace 2, then not positive
    with pytest.raises(ValueError, match="density trace"):
        state._from_densities(s, bad)


# the refusals of one density, with their exact messages
_SKEW = np.array([[0.5, 0.1], [0.0, 0.5]])
_INDEFINITE = np.diag([1.5, -0.5])
_TRACE_TWO = np.eye(2)
_REFUSALS = [(_SKEW, NotSelfAdjoint, "element is not self-adjoint within tolerance"),
             (_INDEFINITE, ValueError, "density is not positive semidefinite within tolerance"),
             (_TRACE_TWO, ValueError, "density trace (2+0j) is not 1 within tolerance")]


@pytest.mark.parametrize("rho, error, message", _REFUSALS)
def test_a_refused_density_raises_its_own_message(rho, error, message):
    with pytest.raises(error) as alone:
        density(M2, rho)
    assert str(alone.value) == message
    good = alg.vec(alg.random_density(M2, np.random.default_rng(1)))
    row = alg.vec(AlgElement(M2, (rho.astype(complex),)))
    # the first refused row raises its own error, whatever the rows after it are refused for
    for later, _, _ in _REFUSALS:
        later_row = alg.vec(AlgElement(M2, (later.astype(complex),)))
        with pytest.raises(error) as stacked:
            state._from_densities(M2, np.array([good, row, later_row, good]))
        assert type(stacked.value) is type(alone.value) and str(stacked.value) == message


def test_stacked_spectra_are_those_of_single_builds():
    rng = np.random.default_rng(8)
    for blocks in ((3,), (1, 2, 2), (2, 1, 3)):
        s = AlgebraShape(blocks)
        v = np.array([alg.vec(alg.random_density(s, rng)) for _ in range(3)]
                     + [alg.vec(random_rank_deficient_state(s, rng).density) for _ in range(3)])
        for omega, row in zip(state._from_densities(s, v), v):
            alone = state_from_density(alg.unvec(s, row)).spectrum.stacks
            for got, want in zip(omega.spectrum.stacks, alone):
                assert all(g.tobytes() == w.tobytes() and g.shape == w.shape
                           for g, w in zip(got, want))


def test_nullspace_membership_matches_expectation():
    rng = np.random.default_rng(2)
    s = AlgebraShape((3,))
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    omega = density(s, rho)
    right = NullspaceTest("right", omega)
    left = NullspaceTest("left", omega)
    comp = alg.unit(s) - omega.support
    for _ in range(8):
        m = alg.random_element(s, rng)
        a = alg.mul(m, comp)  # A = M P_perp lies in the right nullspace
        assert right.contains(a)
        assert abs(omega.expect(alg.mul(alg.adjoint(a), a))) <= 1e-12
        b = alg.mul(comp, m)
        assert left.contains(b)
    probe = alg.random_element(s, rng)
    assert not right.contains(probe + alg.unit(s))


def test_pullback_through_identity_and_transpose():
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    omega = density(M2, rho)
    same = pullback_state(omega, identity_channel(M2))
    assert alg.elem_equal(same.density, omega.density)
    flipped = pullback_state(omega, transpose_channel(M2))
    assert np.allclose(flipped.density.blocks[0], rho.T)


def test_pullback_matches_functional_composition():
    # block inclusion M_2 -> M_2 (+) M_2 by doubling, state on the target
    dom = M2
    cod = AlgebraShape((2, 2))
    f = channel_from_action(dom, cod,
                            lambda a: AlgElement(cod, (a.blocks[0], a.blocks[0])))
    rng = np.random.default_rng(3)
    omega = state_from_density(alg.random_density(cod, rng))
    xi = pullback_state(omega, f)
    for e in alg.matrix_units(dom):
        assert abs(xi.expect(e) - omega.expect(apply(f, e))) <= 1e-10


def test_pullback_rejects_non_positive_transport():
    # a raw non-star-preserving channel transports densities out of the cone
    raw = np.eye(4, dtype=complex)
    raw[1, 2] = 5.0  # mixes off-diagonal coordinates asymmetrically
    f = Channel(M2, M2, raw)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]])
    omega = density(M2, rho)
    with pytest.raises(PullbackNotPSD):
        pullback_state(omega, f)


def _pullback_outcome(call):
    """The pulled-back state's coordinates and spectrum, or the PullbackNotPSD message."""
    try:
        xi = call()
    except PullbackNotPSD as exc:
        return str(exc)
    return alg.vec(xi.density).tolist(), [[a.tolist() for a in stack] for stack in
                                          xi.spectrum.stacks]


@pytest.mark.parametrize("scale", [None, 1e200, 1.7e308],
                         ids=["ordinary", "1e200-identity", "1.7e308-ones"])
def test_pullback_state_takes_the_exponent_its_channel_holds(scale, monkeypatch):
    """The state, or the refusal, of the stacked core taking the exponent itself, with no
    `scale_exponent` call of its own."""
    s = AlgebraShape((3,))
    rng = np.random.default_rng(8)
    if scale is None:
        f = random_cpu_channel(3, 3, rng)
    else:
        f = Channel(s, s, scale * (np.eye(9) if scale == 1e200 else np.ones((9, 9))))
    omega = state_from_density(alg.random_density(s, rng))
    want = _pullback_outcome(lambda: state._states(f.domain, *state._pullback(
        f.domain, alg.vec(omega.density)[None], f.matrix))[0])
    calls = []
    exponent = alg.scale_exponent
    monkeypatch.setattr(alg, "scale_exponent", lambda *a: calls.append(a) or exponent(*a))
    assert _pullback_outcome(lambda: pullback_state(omega, f)) == want
    assert not calls


def test_ae_equal_trivial_and_sides():
    t = transpose_channel(M2)
    rng = np.random.default_rng(4)
    omega = state_from_density(alg.random_density(M2, rng))
    assert ae_equal(t, t, omega, "left").passed
    assert ae_equal(t, t, omega, "right").passed
    with pytest.raises(ShapeMismatch):
        ae_equal(t, identity_channel(AlgebraShape((3,))), omega)


def test_ae_equal_truncation_counterexample():
    # one-sided truncation: left a.e. equal to the identity, right fails
    def truncate(a):
        b = a.blocks[0].copy()
        b[1, 0] = 0.0
        return AlgElement(M2, (b,))

    trunc = channel_from_action(M2, M2, truncate)
    omega = density(M2, np.diag([1.0, 0.0]))
    assert ae_equal(trunc, identity_channel(M2), omega, "left").passed
    rep = ae_equal(trunc, identity_channel(M2), omega, "right")
    assert not rep.passed and rep.witness is not None


def test_ae_equal_leakage_example_passes_both_sides():
    f, g = unreasonable_pair()
    rho = np.zeros((4, 4)); rho[0, 0] = 1.0
    omega = density(AlgebraShape((4,)), rho)
    assert ae_equal(f, g, omega, "left").passed
    assert ae_equal(f, g, omega, "right").passed
    assert not ae_deterministic(f, omega, "right").passed
    assert not ae_deterministic(f, omega, "left").passed


@pytest.mark.parametrize("c", [1e308, 1.7e308])
def test_ae_equal_decides_entries_near_the_float_limit(c):
    # F - (-F) overflows unless both maps are compared scaled by a power of two
    f, neg = Channel(M2, M2, c * np.eye(4)), Channel(M2, M2, -c * np.eye(4))
    omega = density(M2, np.diag([1.0, 0.0]))
    ident = identity_channel(M2).matrix
    for side in ("left", "right"):
        assert not ae_equal(f, neg, omega, side).passed
        assert ae_equal(f, f, omega, side).passed
        got = _grid.equal_failure(M2, np.array([f.matrix, f.matrix, ident]),
                                  np.array([neg.matrix, f.matrix, ident]), state.DEFAULT_TOL,
                                  3 * [omega.support], side)
        assert got == [0, None, None]


def test_ae_deterministic_for_homomorphisms_and_padding():
    rng = np.random.default_rng(5)
    cod = AlgebraShape((2, 2))
    hom = channel_from_action(M2, cod, lambda a: AlgElement(cod, (a.blocks[0], a.blocks[0])))
    omega = state_from_density(alg.random_density(cod, rng))
    assert ae_deterministic(hom, omega, "right").passed

    pad = padded_inclusion(2, 3)
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = alg.random_density(M2, rng).blocks[0]
    omega_pad = density(AlgebraShape((3,)), rho)
    assert ae_deterministic(pad, omega_pad, "right").passed
    assert ae_deterministic(pad, omega_pad, "left").passed


def test_ae_deterministic_warns_without_star_preservation():
    def truncate(a):
        b = a.blocks[0].copy()
        b[1, 0] = 0.0
        return AlgElement(M2, (b,))

    trunc = channel_from_action(M2, M2, truncate)
    omega = density(M2, np.diag([1.0, 0.0]))
    with pytest.warns(UserWarning):
        ae_deterministic(trunc, omega, "right")


def test_ae_unital_variants():
    rng = np.random.default_rng(6)
    omega = state_from_density(alg.random_density(M2, rng))
    assert ae_unital(identity_channel(M2), omega, "right").passed

    # trace-average onto the support: a.e. unital although F(1) != 1
    rho = np.diag([1.0, 0.0]).astype(complex)
    omega_corner = density(M2, rho)
    p = omega_corner.support

    def smear(a):
        return complex(np.trace(a.blocks[0]) / 2.0) * p

    f = channel_from_action(M2, M2, smear)
    rep = ae_unital(f, omega_corner, "right")
    assert rep.passed
    assert not alg.elem_equal(apply(f, alg.unit(M2)), alg.unit(M2))

    zero = Channel(M2, M2, np.zeros((4, 4)))
    rep = ae_unital(zero, omega_corner, "right")
    assert not rep.passed and rep.witness is not None


def test_a_state_cannot_go_stale_through_its_density():
    mat = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    rho = AlgElement(M2, (mat,))
    omega = state_from_density(rho)
    support_before = alg.vec(omega.support).copy()
    mat[0, 0] = 0.9
    with pytest.raises(ValueError):
        rho.blocks[0][0, 0] = 0.9
    with pytest.raises(ValueError):
        omega.density.block(0)[0, 0] = 0.9
    assert omega.density.block(0)[0, 0] == 0.7
    assert np.array_equal(alg.vec(omega.support), support_before)
    assert omega == state_from_density(AlgElement(M2, (np.array([[0.7, 0.1], [0.1, 0.3]]),)))
