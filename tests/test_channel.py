import numpy as np
import pytest

from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import (
    Channel,
    ad_channel,
    apply,
    channel_from_action,
    choi,
    compose,
    conjugation_by,
    hs_adjoint,
    identity_channel,
    invert,
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
from qmarkov.errors import DimensionMismatch, ShapeMismatch, Singular
from qmarkov.linalg import herm_eig
from qmarkov.tolerances import Tolerance


M2 = AlgebraShape((2,))


def m2_elem(mat):
    return AlgElement(M2, (np.asarray(mat, dtype=complex),))


def random_isometry(m, n, rng):
    gin = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    v, _ = np.linalg.qr(gin)
    return v


def test_identity_channel_acts_trivially():
    s = AlgebraShape((2, 3))
    rng = np.random.default_rng(0)
    a = alg.random_element(s, rng)
    assert alg.elem_equal(apply(identity_channel(s), a), a)


def test_apply_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        apply(identity_channel(M2), alg.unit(AlgebraShape((3,))))


def test_transpose_squares_to_identity():
    t = transpose_channel(M2)
    assert np.allclose(compose(t, t).matrix, np.eye(4))


def test_conjugation_composes():
    rng = np.random.default_rng(1)
    v = random_isometry(4, 4, rng)
    w = random_isometry(4, 4, rng)
    s = AlgebraShape((4,))
    ad_v = conjugation_by(AlgElement(s, (v,)))
    ad_w = conjugation_by(AlgElement(s, (w,)))
    a = alg.random_element(s, rng)
    # oracle: (V W) A (V W)* expanded directly
    expected = (v @ w) @ a.blocks[0] @ (v @ w).conj().T
    got = apply(compose(ad_v, ad_w), a)
    assert np.allclose(got.blocks[0], expected)


def test_hs_adjoint_identity_and_involution():
    t = transpose_channel(M2)
    assert np.allclose(hs_adjoint(identity_channel(M2)).matrix, np.eye(4))
    assert np.allclose(hs_adjoint(hs_adjoint(t)).matrix, t.matrix)
    # the transpose map is its own adjoint
    assert np.allclose(hs_adjoint(t).matrix, t.matrix)


def test_hs_adjoint_of_conjugation():
    rng = np.random.default_rng(2)
    v = random_isometry(3, 2, rng)  # isometry C^2 -> C^3
    up = ad_channel(v)  # M_2 -> M_3
    down = ad_channel(v.conj().T)  # M_3 -> M_2
    # oracle: tr(B* V A V*) = tr((V* B V)* A) for all A, B
    assert np.allclose(hs_adjoint(up).matrix, down.matrix)


def test_hs_adjoint_pairing_contract():
    rng = np.random.default_rng(3)
    s, t = AlgebraShape((2, 2)), AlgebraShape((3,))
    raw = rng.standard_normal((t.coord_dim, s.coord_dim)) + 1j * rng.standard_normal(
        (t.coord_dim, s.coord_dim))
    f = Channel(s, t, raw)
    fstar = hs_adjoint(f)
    for a in alg.matrix_units(t):
        for b in alg.matrix_units(s):
            lhs = alg.trace(alg.mul(alg.adjoint(a), apply(f, b)))
            rhs = alg.trace(alg.mul(alg.adjoint(apply(fstar, a)), b))
            assert abs(lhs - rhs) <= 1e-10


def test_choi_of_identity_on_m2():
    c = choi(identity_channel(M2))[0]
    # oracle: the Choi matrix is twice a rank-one projection
    assert np.allclose(c @ c, 2 * c)
    assert abs(np.trace(c) - 2.0) <= 1e-12
    w, _ = herm_eig(c)
    assert np.allclose(w, [2.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert is_cp(identity_channel(M2)).passed


def test_choi_of_transpose_is_the_swap():
    t = transpose_channel(M2)
    c = choi(t)[0]
    # oracle: the swap squares to the identity and has trace 2, so its
    # spectrum is -1 with multiplicity 1 and +1 with multiplicity 3
    assert np.allclose(c @ c, np.eye(4))
    assert abs(np.trace(c) - 2.0) <= 1e-12
    w, _ = herm_eig(c)
    assert np.allclose(w, [1.0, 1.0, 1.0, -1.0], atol=1e-12)
    rep = is_cp(t)
    assert not rep.passed and rep.witness is not None


def test_transpose_property_profile():
    t = transpose_channel(M2)
    assert is_unital(t).passed
    assert is_star_preserving(t).passed
    det = is_deterministic(t)
    assert not det.passed and det.witness is not None
    # explicit separating pair: T(E12 E21) = E11 while T(E12) T(E21) = E22
    e12, e21 = m2_elem([[0, 1], [0, 0]]), m2_elem([[0, 0], [1, 0]])
    lhs = apply(t, alg.mul(e12, e21))
    rhs = alg.mul(apply(t, e12), apply(t, e21))
    assert alg.elem_equal(lhs, m2_elem([[1, 0], [0, 0]]))
    assert alg.elem_equal(rhs, m2_elem([[0, 0], [0, 1]]))


def test_conjugation_determinism_depends_on_unitarity():
    rng = np.random.default_rng(4)
    u = random_isometry(3, 3, rng)
    assert is_deterministic(ad_channel(u)).passed and is_unital(ad_channel(u)).passed
    v = random_isometry(4, 2, rng)  # proper isometry: V V* != 1
    # conjugating up stays multiplicative but loses unitality; the compression
    # back down is unital but no longer multiplicative (V V* blocks the insert)
    up, down = ad_channel(v), ad_channel(v.conj().T)
    assert is_deterministic(up).passed and not is_unital(up).passed
    assert is_unital(down).passed and not is_deterministic(down).passed


def test_kraus_identity_and_pinching():
    ident = kraus_channel(M2, M2, [np.eye(2)])
    assert np.allclose(ident.matrix, np.eye(4))
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    # oracle: sum K_i* K_i = 1, so the pinching is unital; CP by construction
    assert np.allclose(e11.conj().T @ e11 + e22.conj().T @ e22, np.eye(2))
    pinch = kraus_channel(M2, M2, [e11, e22])
    assert is_unital(pinch).passed and is_cp(pinch).passed
    a = m2_elem([[1.0, 2.0], [3.0, 4.0]])
    assert alg.elem_equal(apply(pinch, a), m2_elem([[1.0, 0.0], [0.0, 4.0]]))


def test_kraus_dimension_checks():
    with pytest.raises(DimensionMismatch):
        kraus_channel(M2, M2, [np.eye(3)])
    with pytest.raises(DimensionMismatch):
        kraus_channel(AlgebraShape((1, 1)), M2, [np.ones((2, 2))])


def test_sampled_checks_on_identity_and_transpose():
    ident = identity_channel(M2)
    assert is_positive_sampled(ident, trials=8, seed=5).verdict == "sampled-pass"
    assert is_schwarz_sampled(ident, trials=8, seed=5).verdict == "sampled-pass"
    t = transpose_channel(M2)
    assert is_positive_sampled(t, trials=64, seed=0).verdict == "sampled-pass"
    schwarz = is_schwarz_sampled(t, trials=64, seed=0)
    assert schwarz.verdict == "fail" and schwarz.witness is not None


def test_multiplication_map_fails_positivity_sampling():
    mu = mult_map(M2)
    assert is_unital(mu).passed
    rep = is_positive_sampled(mu, trials=64, seed=0)
    assert not rep.passed and rep.witness is not None


def test_cp_closed_under_compose_and_tensor():
    rng = np.random.default_rng(6)
    v = random_isometry(6, 2, rng)
    w = random_isometry(4, 2, rng)
    f = ad_channel(v.conj().T)  # M_6 -> M_2, CP
    g = ad_channel(w)  # M_2 -> M_4, CP
    assert is_cp(compose(g, f)).passed
    assert is_cp(tensor(f, g)).passed


def test_tensor_acts_on_elementary_tensors():
    rng = np.random.default_rng(7)
    t = transpose_channel(M2)
    ident = identity_channel(M2)
    both = tensor(t, ident)
    a, b = alg.random_element(M2, rng), alg.random_element(M2, rng)
    got = apply(both, alg.tensor_elem(a, b))
    expected = alg.tensor_elem(apply(t, a), b)
    assert alg.elem_equal(got, expected)


def test_invert_roundtrip_and_errors():
    rng = np.random.default_rng(8)
    u = random_isometry(3, 3, rng)
    f = ad_channel(u)
    g = invert(f)
    assert np.allclose(compose(g, f).matrix, np.eye(9), atol=1e-10)
    v = random_isometry(3, 2, rng)
    with pytest.raises(Singular):
        invert(ad_channel(v))  # not square
    # rank-deficient square channel
    s = AlgebraShape((2,))
    proj = channel_from_action(s, s, lambda a: m2_elem([[a.blocks[0][0, 0], 0], [0, 0]]))
    with pytest.raises(Singular):
        invert(proj)


def test_s_positivity_equation_transpose_witness():
    t = transpose_channel(M2)
    rep = s_positivity_equation(t, t)
    assert not rep.passed and rep.witness is not None


def test_cached_flags_are_stable():
    t = transpose_channel(M2)
    first = is_cp(t)
    second = is_cp(t)
    assert first is second  # memoized
    assert first.verdict == "fail"


def test_cached_verdicts_are_keyed_on_the_whole_tolerance():
    # F(B) = B/2 + tr(B)/4 on M_2, whose Choi matrix is 1e-6 away from Hermitian
    base = channel_from_action(
        M2, M2, lambda a: 0.5 * a + (0.25 * np.trace(a.blocks[0])) * alg.unit(M2))
    mat = np.array(base.matrix)
    mat[1, 0] += 1e-6
    loose, strict = Tolerance(herm=1e-3), Tolerance(herm=1e-12)
    h = Channel(M2, M2, mat)
    assert is_cp(h, loose).passed
    assert not is_cp(h, strict).passed
    assert not is_cp(Channel(M2, M2, mat), strict).passed


def test_channel_matrix_is_a_read_only_copy():
    source = np.eye(4, dtype=complex)
    h = Channel(M2, M2, source)
    assert is_unital(h).passed
    with pytest.raises(ValueError):
        h.matrix[:] = 0
    source[:] = 0   # the caller's array is not the channel's
    assert np.array_equal(h.matrix, np.eye(4))
    assert is_unital(h).passed


def test_scalar_algebra_channels():
    # the unit inclusion and the normalized trace, both in channel form
    scalar = AlgebraShape((1,))
    incl = channel_from_action(
        scalar, M2, lambda a: complex(a.blocks[0][0, 0]) * alg.unit(M2))
    assert is_cp(incl).passed and is_unital(incl).passed
    assert is_deterministic(incl).passed

    tr_state = channel_from_action(
        M2, scalar,
        lambda a: AlgElement(scalar, (np.array([[np.trace(a.blocks[0]) / 2.0]]),)))
    assert is_cp(tr_state).passed and is_unital(tr_state).passed
    # duality: the adjoint of the inclusion is the unnormalized trace
    assert np.allclose(hs_adjoint(incl).matrix, 2 * tr_state.matrix)
