import numpy as np
import pytest

from qmarkov import algebra as alg
from qmarkov import corpus
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import apply, mult_map
from qmarkov.errors import NotSelfAdjoint, ShapeMismatch
from qmarkov.state import state_from_density


def unit_of(shape, block, i, j):
    return alg.unvec(shape, np.eye(shape.coord_dim)[alg.basis_index(shape, block, i, j)])


def test_shape_validation():
    s = AlgebraShape((2, 3))
    assert s.coord_dim == 13
    assert s.total_dim == 5
    with pytest.raises(ValueError):
        AlgebraShape(())
    with pytest.raises(ValueError):
        AlgebraShape((2, 0))


def test_shape_sizes_are_computed_once_and_stay_out_of_equality():
    s = AlgebraShape((1, 2, 3))
    assert s.offsets() == (0, 1, 5) and s.coord_dim == 14
    assert s.offsets() is s.offsets()
    fresh = AlgebraShape((1, 2, 3))
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert alg.basis_index(s, 2, 1, 2) == alg.basis_index(fresh, 2, 1, 2) == 10
    assert AlgebraShape((4,)).offsets() == (0,)


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
            e1i = alg.unvec(s, np.eye(s.coord_dim)[alg.basis_index(s, 0, 0, i)])
            ei1 = alg.unvec(s, np.eye(s.coord_dim)[alg.basis_index(s, 0, i, 0)])
            term = alg.tensor_elem(e1i, ei1)
            witness = term if witness is None else witness + term
        assert abs(alg.norm(witness) - 1.0) <= 1e-12
        closed = corpus._a_n(n)   # the corpus builds the same witness in closed form
        assert closed.shape == witness.shape
        assert np.array_equal(closed.blocks[0], witness.blocks[0])
        image = apply(mult_map(s), witness)
        assert abs(alg.norm(image) - n) <= 1e-12
        expected = alg.unvec(s, n * np.eye(s.coord_dim)[0])
        assert alg.elem_equal(image, expected)


def test_random_density_is_a_density():
    rng = np.random.default_rng(12)
    rho = alg.random_density(AlgebraShape((2, 3)), rng)
    assert alg.is_positive_elem(rho)
    assert abs(alg.trace(rho) - 1.0) <= 1e-12


def test_elements_are_read_only_copies_of_their_blocks():
    s = AlgebraShape((1, 2))
    mats = [np.array([[1.0]]), np.arange(4.0).reshape(2, 2)]
    a = AlgElement(s, mats)
    mats[1][0, 0] = 9.0
    assert a.block(1)[0, 0] == 0.0 and not np.shares_memory(alg.vec(a), mats[1])
    writes = [
        lambda: a.blocks[1].__setitem__((0, 1), 5.0),
        lambda: a.block(0).__setitem__((0, 0), 5.0),
        lambda: alg.vec(a).__setitem__(0, 5.0),
        lambda: alg.unit(s).blocks[1].__setitem__((0, 1), 5.0),
        lambda: alg.unit(s).block(0).__setitem__((0, 0), 5.0),
    ]
    for write in writes:
        with pytest.raises(ValueError):
            write()
    with pytest.raises(AttributeError):
        a.shape = AlgebraShape((2,))
    assert np.array_equal(alg.vec(a), [1, 0, 1, 2, 3])
    assert np.array_equal(alg.vec(alg.unit(s)), [1, 1, 0, 0, 1])


@pytest.mark.parametrize("s", [AlgebraShape((2,)), AlgebraShape((1, 1)), AlgebraShape((1, 2))],
                         ids=str)
def test_equality_compares_shapes_and_coordinates_exactly(s):
    one = alg.unit(s)
    assert one == alg.unit(s) and not one != alg.unit(s)
    assert one != alg.zero(s)
    nudged = alg.unvec(s, alg.vec(one) + np.eye(1, s.coord_dim)[0] * 2.0 ** -52)
    assert alg.elem_equal(one, nudged) and one != nudged
    assert one != 1 and one != alg.vec(one).tolist()
    with pytest.raises(TypeError):
        hash(one)
    rng = np.random.default_rng(31)
    rho = alg.random_density(s, rng)
    omega = state_from_density(rho)
    assert omega == state_from_density(alg.unvec(s, alg.vec(rho)))
    assert omega != state_from_density(alg.random_density(s, rng))


def test_equal_coordinates_on_different_shapes_are_unequal():
    m2, c4 = AlgebraShape((2,)), AlgebraShape((1, 1, 1, 1))
    assert alg.vec(alg.zero(m2)).shape == alg.vec(alg.zero(c4)).shape
    assert alg.zero(m2) != alg.zero(c4)
