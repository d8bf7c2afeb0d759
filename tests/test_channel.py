import warnings

import numpy as np
import pytest

from qmarkov import _grid
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import (
    Channel,
    _owned,
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
from qmarkov.errors import ShapeMismatch, Singular
from qmarkov.linalg import herm_eig
from qmarkov.tolerances import DEFAULT_TOL, Tolerance


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


def test_one_kraus_operator_is_its_conjugation():
    # B |-> K* B K is Ad_{K*}: the same formula, so the same bits
    rng = np.random.default_rng(12)
    for n, m in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        k = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        f = kraus_channel(AlgebraShape((n,)), AlgebraShape((m,)), [k])
        assert np.array_equal(f.matrix, ad_channel(k.conj().T).matrix)


@pytest.mark.parametrize("blocks", [(2, 3, 2), (1, 2), (2, 2, 1, 3)])
def test_conjugation_by_is_ad_channel_block_by_block(blocks):
    s = AlgebraShape(blocks)
    e = alg.random_element(s, np.random.default_rng(sum(blocks)))
    want = np.zeros((s.coord_dim, s.coord_dim), dtype=complex)
    for n, off, x in zip(blocks, s.offsets(), e.blocks):
        want[off:off + n * n, off:off + n * n] = ad_channel(x).matrix
    assert np.array_equal(conjugation_by(e).matrix, want)


def test_kraus_dimension_checks():
    with pytest.raises(ShapeMismatch):
        kraus_channel(M2, M2, [np.eye(3)])
    with pytest.raises(ShapeMismatch):
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [AlgebraShape((1, 1)), M2])
def test_is_cp_rejects_non_finite_matrices(shape, bad):
    # rejected when the channel is built, so no check sees the matrix
    mat = np.eye(shape.coord_dim, dtype=complex)
    mat[0, -1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        Channel(shape, shape, mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_finiteness_holds_when_the_sum_of_squares_overflows(scale, bad):
    # at 1e200 the sum of squares is inf, so the entrywise test decides, with no warning
    s = AlgebraShape((12,))
    mat = scale * np.eye(s.coord_dim, dtype=complex)
    assert np.array_equal(Channel(s, s, mat).matrix, mat)
    mat[5, 7] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        Channel(s, s, mat)


def test_channel_matrix_is_a_read_only_copy():
    source = np.eye(4, dtype=complex)
    h = Channel(M2, M2, source)
    assert is_unital(h).passed
    with pytest.raises(ValueError):
        h.matrix[:] = 0
    source[:] = 0   # the caller's array is not the channel's
    assert np.array_equal(h.matrix, np.eye(4))
    assert is_unital(h).passed


def test_built_channels_keep_their_own_matrix_and_still_scan_it():
    rng = np.random.default_rng(4)
    f = Channel(M2, M2, rng.standard_normal((4, 4)))
    e = m2_elem(rng.standard_normal((2, 2)))
    for g in (compose(f, f), tensor(f, f), hs_adjoint(f), invert(f), conjugation_by(e),
              identity_channel(M2)):
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 1.0
    m = np.eye(4, dtype=complex)
    assert _owned(M2, M2, m).matrix is m and not m.flags.writeable
    with pytest.raises(ShapeMismatch):
        _owned(M2, M2, np.eye(3, dtype=complex))
    # a product of finite matrices can overflow
    huge = Channel(M2, M2, 1e200 * np.eye(4))
    with pytest.raises(ValueError, match="NaN or Inf"):
        compose(huge, huge)


def test_positivity_sampling_on_huge_finite_images():
    # the norms of images with entries above about 1e154 used to overflow
    assert is_positive_sampled(Channel(M2, M2, 1e306 * np.eye(4))).passed


def test_exact_checks_on_huge_finite_images():
    # the Frobenius bounds of the pair grid squared entries above about 1e154
    for c in (1e200, 1e306):
        report = is_star_preserving(Channel(M2, M2, 1j * c * np.eye(4)))
        assert report.verdict == "fail" and report.witness["input"] == alg.unvec(M2, np.eye(4)[0])
        assert is_star_preserving(Channel(M2, M2, c * np.eye(4))).passed


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


def test_s_positivity_equation_on_huge_finite_images():
    # the right side is quadratic in F; where a product of the grid overflows, the grid
    # runs again on F and G scaled by powers of two, so no warning escapes
    huge = [Channel(M2, M2, c * np.eye(4)) for c in (1e200, 1e300)]
    t = transpose_channel(M2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for f, g in ((huge[0], identity_channel(M2)), (huge[0], huge[1]), (huge[1], huge[1])):
            rep = s_positivity_equation(f, g)
            assert rep.verdict == "fail"
            assert (rep.witness["outer_index"], rep.witness["inner_index"]) == (0, 0)
        assert s_positivity_equation(identity_channel(M2), huge[1]).passed
        # both sides are linear in G: a huge multiple of G fails where G fails
        want = s_positivity_equation(t, t).witness
        got = s_positivity_equation(t, Channel(M2, M2, 1e300 * t.matrix)).witness
        assert got["outer_index"] == want["outer_index"]
        assert got["inner_index"] == want["inner_index"]
        # A |-> S A S^-1 for S = diag(1e300, 1) is multiplicative, and no product of its
        # images overflows, so the grid runs unscaled: doubling F(E21) fails at
        # F(E12 E21) = E11 != 2 E11, which scaling by 2^-(2e + k) would lose to underflow
        similar = np.diag([1.0, 1e300, 1e-300, 1.0]).astype(complex)
        assert s_positivity_equation(Channel(M2, M2, similar), identity_channel(M2)).passed
        similar[2, 2] *= 2
        rep = s_positivity_equation(Channel(M2, M2, similar), identity_channel(M2))
        assert rep.verdict == "fail"
        assert (rep.witness["outer_index"], rep.witness["inner_index"]) == (1, 2)
    assert not caught


def test_multiplicative_grid_runs_unscaled_unless_a_product_overflows():
    # A |-> S A S^-1 for S = diag(big, 1) with F(E21) doubled fails at the pair (E12, E21),
    # index 6: F(E12 E21) = E11 != 2 E11.  Scaling the grid by 2^-e for entries above 2^500
    # made F(E21) = 2e-300 underflow to 0, and the 1e300 map passed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for big in (1e150, 1e300):
            similar = Channel(M2, M2, np.diag([1.0, big, 2 / big, 1.0]).astype(complex))
            assert _grid.multiplicative_failure([similar], DEFAULT_TOL) == [6]
            assert _grid.multiplicative_failure([similar], DEFAULT_TOL, adjoint=True) == [4]
        # where a product does overflow, the grid runs again scaled
        for c in (1e200, 1e306):
            huge = Channel(M2, M2, c * np.eye(4))
            assert _grid.multiplicative_failure([huge], DEFAULT_TOL) == [0]
    assert not caught


M3 = AlgebraShape((3,))


@pytest.mark.parametrize("c", [6e307, 1e308, 1.7e308, -1.7e308])
def test_unital_and_cp_decide_an_all_equal_map_at_any_finite_scale(c):
    # F = c ones(9, 9): F(1) = 3c ones overflows from 6e307 and C + C* of the Choi matrix
    # c ones(9, 9) from 1e308, so both are decided on F 2^-e, with no numpy warning
    f = Channel(M3, M3, c * np.ones((9, 9)))
    e = int(alg.scale_exponent(f.matrix, 500))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        unital, cp = is_unital(f), is_cp(f)
    assert not caught
    assert unital.verdict == "fail" and unital.witness["scale_exponent"] == -e
    assert np.allclose(alg.vec(unital.witness["image_of_unit"]), 3 * (c * 2.0 ** -e), rtol=1e-15)
    if c > 0:   # a rank-one PSD Choi matrix
        assert cp.passed
    else:       # its one nonzero eigenvalue 9c lies below -1.8e308
        assert cp.verdict == "fail" and cp.witness["min_eigenvalue"] == -np.inf


def test_cp_reports_an_unscaled_eigenvalue_when_its_choi_sum_overflows():
    # M_1 -> M_2 with Choi matrix [[a, b], [b, a]]: C + C* overflows, and the eigenvalue
    # a - b = -5e307 is reported unscaled
    a, b = 1e308, 1.5e308
    f = Channel(AlgebraShape((1,)), M2, np.array([[a], [b], [b], [a]]))
    rep = is_cp(f)
    assert rep.verdict == "fail" and rep.witness["domain_block"] == 0
    assert rep.witness["min_eigenvalue"] == pytest.approx(a - b, rel=1e-12)
    assert is_cp(Channel(AlgebraShape((1,)), M2, np.array([[b], [a], [a], [b]]))).passed


def test_unital_and_cp_run_unscaled_up_to_2_500():
    # entries at most 2^500 overflow no sum: the reports are those of the unscaled checks;
    # above, both run on F 2^-e, as the star pass does, and the eigenvalue is unscaled
    t = transpose_channel(M2).matrix
    f = Channel(M2, M2, 2.0 ** 500 * t)
    unital = is_unital(f)
    assert "scale_exponent" not in unital.witness
    assert np.array_equal(alg.vec(unital.witness["image_of_unit"]),
                          f.matrix @ alg.vec(alg.unit(M2)))
    assert is_cp(f).witness["min_eigenvalue"] == pytest.approx(-2.0 ** 500)
    g = Channel(M2, M2, 1e300 * t)
    e = int(alg.scale_exponent(g.matrix, 500))
    unital = is_unital(g)
    assert e > 0 and unital.witness["scale_exponent"] == -e
    assert np.array_equal(alg.vec(unital.witness["image_of_unit"]),
                          (g.matrix * 2.0 ** -e) @ alg.vec(alg.unit(M2)))
    assert is_cp(g).witness["min_eigenvalue"] == pytest.approx(-1e300)
