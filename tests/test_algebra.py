import numpy as np
import pytest

from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import apply, mult_map
from qmarkov.errors import NotSelfAdjoint, ShapeMismatch


def unit_of(shape, block, i, j):
    e = alg.zero(shape)
    e.blocks[block][i, j] = 1.0
    return e


def test_shape_validation():
    s = AlgebraShape((2, 3))
    assert s.coord_dim == 13
    assert s.total_dim == 5
    with pytest.raises(ValueError):
        AlgebraShape(())
    with pytest.raises(ValueError):
        AlgebraShape((2, 0))


def test_matrix_unit_product():
    m2 = AlgebraShape((2,))
    e11, e12 = unit_of(m2, 0, 0, 0), unit_of(m2, 0, 0, 1)
    assert alg.elem_equal(alg.mul(e11, e12), e12)


def test_unit_laws():
    s = AlgebraShape((2, 3))
    one = alg.unit(s)
    rng = np.random.default_rng(0)
    a = alg.random_element(s, rng)
    assert alg.elem_equal(alg.mul(one, a), a)
    assert alg.elem_equal(alg.mul(a, one), a)


def test_pointwise_product_on_commutative_shape():
    s = AlgebraShape((1, 1))
    a = AlgElement(s, (np.array([[2.0]]), np.array([[3.0]])))
    b = AlgElement(s, (np.array([[5.0]]), np.array([[7.0]])))
    out = alg.mul(a, b)
    assert out.blocks[0][0, 0] == 10.0 and out.blocks[1][0, 0] == 21.0


def test_mul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        alg.mul(alg.unit(AlgebraShape((2,))), alg.unit(AlgebraShape((3,))))


def test_adjoint_swaps_matrix_units():
    m2 = AlgebraShape((2,))
    e12, e21 = unit_of(m2, 0, 0, 1), unit_of(m2, 0, 1, 0)
    assert alg.elem_equal(alg.adjoint(e12), e21)


def test_adjoint_involutive_and_antimultiplicative():
    rng = np.random.default_rng(1)
    s = AlgebraShape((2, 3))
    a, b = alg.random_element(s, rng), alg.random_element(s, rng)
    assert alg.elem_equal(alg.adjoint(alg.adjoint(a)), a)
    assert alg.elem_equal(alg.adjoint(alg.mul(a, b)),
                          alg.mul(alg.adjoint(b), alg.adjoint(a)))


def test_adjoint_conjugates_scalars():
    s = AlgebraShape((2,))
    lam = 1.5 - 0.5j
    scaled = lam * alg.unit(s)
    assert alg.elem_equal(alg.adjoint(scaled), np.conj(lam) * alg.unit(s))


def test_tensor_shapes():
    assert alg.tensor_shape(AlgebraShape((2,)), AlgebraShape((2,))).blocks == (4,)
    assert alg.tensor_shape(AlgebraShape((1, 1)), AlgebraShape((2,))).blocks == (2, 2)


def test_tensor_elem_index_convention():
    # E12 (x) E21 in M2 (x) M2 = M4 puts its single 1 at row (0,1), column (1,0),
    # i.e. zero-based entry (1, 2)
    m2 = AlgebraShape((2,))
    out = alg.tensor_elem(unit_of(m2, 0, 0, 1), unit_of(m2, 0, 1, 0))
    expected = np.zeros((4, 4))
    expected[0 * 2 + 1, 1 * 2 + 0] = 1.0
    assert np.allclose(out.blocks[0], expected)


def test_tensor_elem_multiplicative():
    rng = np.random.default_rng(4)
    s, t = AlgebraShape((2,)), AlgebraShape((1, 2))
    a, a2 = alg.random_element(s, rng), alg.random_element(s, rng)
    b, b2 = alg.random_element(t, rng), alg.random_element(t, rng)
    lhs = alg.mul(alg.tensor_elem(a, b), alg.tensor_elem(a2, b2))
    rhs = alg.tensor_elem(alg.mul(a, a2), alg.mul(b, b2))
    assert alg.elem_equal(lhs, rhs)


def test_positive_elements():
    m2 = AlgebraShape((2,))
    diag = AlgElement(m2, (np.diag([1.0, 0.0]),))
    assert alg.is_positive_elem(diag)
    with pytest.raises(NotSelfAdjoint):
        alg.is_positive_elem(unit_of(m2, 0, 0, 1))
    rng = np.random.default_rng(9)
    for _ in range(8):
        b = alg.random_element(AlgebraShape((2, 3)), rng)
        assert alg.is_positive_elem(alg.mul(alg.adjoint(b), b))
    sym = alg.random_self_adjoint(m2, rng)
    shifted = sym - 10.0 * alg.unit(m2)
    assert not alg.is_positive_elem(shifted)


def test_vec_unvec_roundtrip_and_basis():
    s = AlgebraShape((2, 1, 3))
    rng = np.random.default_rng(7)
    a = alg.random_element(s, rng)
    assert alg.elem_equal(alg.unvec(s, alg.vec(a)), a)
    units = alg.matrix_units(s)
    assert len(units) == s.coord_dim
    # canonical order: vec of the k-th unit is the k-th coordinate vector
    for k, e in enumerate(units):
        v = alg.vec(e)
        assert v[k] == 1.0 and np.count_nonzero(v) == 1


def test_mult_map_absorbs_unit():
    s = AlgebraShape((2, 1))
    mu = mult_map(s)
    one = alg.unit(s)
    rng = np.random.default_rng(8)
    a = alg.random_element(s, rng)
    assert alg.elem_equal(apply(mu, alg.tensor_elem(one, a)), a)
    assert alg.elem_equal(apply(mu, alg.tensor_elem(a, one)), a)


def test_mult_map_norm_witness_small_cases():
    for n in (2, 3):
        s = AlgebraShape((n,))
        witness = None
        for i in range(n):
            e1i = alg.zero(s); e1i.blocks[0][0, i] = 1.0
            ei1 = alg.zero(s); ei1.blocks[0][i, 0] = 1.0
            term = alg.tensor_elem(e1i, ei1)
            witness = term if witness is None else witness + term
        assert abs(alg.norm(witness) - 1.0) <= 1e-12
        image = apply(mult_map(s), witness)
        assert abs(alg.norm(image) - n) <= 1e-12
        expected = alg.zero(s)
        expected.blocks[0][0, 0] = n
        assert alg.elem_equal(image, expected)


def test_random_density_is_a_density():
    rng = np.random.default_rng(12)
    rho = alg.random_density(AlgebraShape((2, 3)), rng)
    assert alg.is_positive_elem(rho)
    assert abs(alg.trace(rho) - 1.0) <= 1e-12
