import pickle

import numpy as np
import pytest

from qmarkov import algebra as alg
from qmarkov import corpus
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import Channel, apply, is_unital, mult_map
from qmarkov.errors import NotSelfAdjoint, ShapeMismatch
from qmarkov.state import state_from_density
from qmarkov.tolerances import DEFAULT_TOL


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


def test_equal_shapes_compare_and_hash_equal():
    s, fresh = AlgebraShape((1, 2, 3)), AlgebraShape([1, 2, 3])
    assert s is not fresh and s == fresh and not s != fresh and hash(s) == hash(fresh)
    assert s == s and s != AlgebraShape((1, 2)) and s != AlgebraShape((3, 2, 1))
    assert {s: 1}[fresh] == 1 and alg.adjoint_index(fresh) is alg.adjoint_index(s)
    for other in ((1, 2, 3), [1, 2, 3], s.blocks, "AlgebraShape([1, 2, 3])", None, alg.unit(s)):
        assert s != other and not s == other and other != s
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and hash(copy) == hash(s) and copy.coord_dim == s.coord_dim
    assert repr(copy) == "AlgebraShape([1, 2, 3])"


def test_equal_coordinates_on_different_shapes_are_unequal():
    m2, c4 = AlgebraShape((2,)), AlgebraShape((1, 1, 1, 1))
    assert alg.vec(alg.zero(m2)).shape == alg.vec(alg.zero(c4)).shape
    assert alg.zero(m2) != alg.zero(c4)


def test_norms_of_finite_elements_with_huge_entries_stay_finite():
    # x* x overflows for entries above about 1e154, which the norm must not square
    m2 = AlgebraShape((2,))
    assert alg.norm(alg.unvec(m2, [1e200, 0, 0, 1])) == pytest.approx(1e200, rel=1e-15)
    assert alg.norm(alg.unvec(m2, [0, 3e300j, 4e300, 0])) == pytest.approx(4e300, rel=1e-15)
    # each matrix of a stack is scaled by its own power of two, so a small one keeps its norm
    x = np.array([[[[1e250, 1], [0, 1]]], [[[3, 0], [0, 4]]]], dtype=complex)
    assert alg._op_norm([x]) == pytest.approx([1e250, 4.0], rel=1e-15)
    assert alg.is_positive_elem(alg.unvec(m2, [1e306, 0, 0, 1e306]))


def _frobenius_unscaled(xs):
    frob = [(x.real ** 2 + x.imag ** 2).sum(axis=(-2, -1)).max(axis=-1) for x in xs]
    return np.sqrt(np.maximum.reduce(frob)) * (1 + alg._SLACK)


def test_frobenius_bound_of_huge_entries_stays_finite():
    # the squares of entries above about 1e154 overflow; every element of a
    # batch is scaled by its own power of two, so a small one keeps its bound
    for big in (1e200, 1e250, 1e306):
        scalars = np.array([1.0, 2.0, big / 4], dtype=complex).reshape(3, 1, 1, 1)
        mats = np.array([[[[big, 1], [0, 1]]], [[[3, 0], [0, 4j]]],
                         [[[0, 1j * big], [big / 2, 0]]]])
        want = np.array([big, 5.0, np.hypot(big, big / 2)]) * (1 + alg._SLACK)
        assert np.all(np.isfinite(alg._upper([scalars, mats])))
        assert alg._upper([scalars, mats]) == pytest.approx(want, rel=1e-15)
        assert alg._upper([mats[1:2] * 1e-300, mats[:1]]) == pytest.approx(want[:1], rel=1e-15)


def test_frobenius_bound_below_the_threshold_is_unchanged():
    rng = np.random.default_rng(41)
    for top in (1.0, 1e-200, 1e100, 1e150):
        xs = [top * (rng.standard_normal((5, k, m, m)) + 1j * rng.standard_normal((5, k, m, m)))
              for k, m in ((3, 1), (2, 2), (1, 4))]
        assert np.array_equal(alg._upper(xs), _frobenius_unscaled(xs))
        assert np.array_equal(alg._upper(xs[1:]), _frobenius_unscaled(xs[1:]))


def test_elem_equal_of_huge_entries_does_not_overflow():
    # u - v overflows for entries near 1e308; both sides and the floor 1 are scaled alike
    m2 = AlgebraShape((2,))
    big, neg = alg.unvec(m2, [1e308, 0, 0, 0]), alg.unvec(m2, [-1e308, 0, 0, 0])
    assert not alg.elem_equal(big, neg)
    assert alg.elem_equal(big, big)
    assert not is_unital(Channel(m2, m2, 1e308 * np.eye(4))).passed


@pytest.mark.parametrize("top", [1.0, 1e100, 2.0 ** 500, 1e200, 1e300])
def test_elem_equal_decides_at_the_bound_on_every_scale(top):
    # a deviation just inside and just outside tol.eq * ||a|| at one entry, on either
    # side of the 2^500 threshold of the scaled comparison
    m2 = AlgebraShape((2,))
    a = alg.unvec(m2, [top, 0.5 * top, 0, 0.25 * top])
    bound = DEFAULT_TOL.eq * alg.norm(a)
    for factor, equal in ((0.99, True), (1.01, False)):
        b = alg.unvec(m2, alg.vec(a) + np.array([0, 0, factor * bound, 0]))
        assert alg.elem_equal(a, b) == equal


def _rows_near_the_bound(s, rng):
    """Pairs of coordinate rows on s, each at a deviation just inside or just outside
    tol.eq * max(1, ||u||), on scales below, at and above the 2^500 threshold."""
    us, vs = [], []
    for top in (1e-3, 1.0, 1e100, 2.0 ** 500, 1e200, 1e300):
        for factor in (0.99, 1.01):
            u = alg._random_coords(s, rng)
            u *= top / np.abs(u).max()
            bound = DEFAULT_TOL.eq * max(1.0, alg.norm(alg.unvec(s, u)))
            v = u.copy()
            v[int(rng.integers(0, s.coord_dim))] += factor * bound
            us.append(u)
            vs.append(v)
    return np.array(us), np.array(vs)


@pytest.mark.parametrize("s", [AlgebraShape((2,)), AlgebraShape((1, 2, 3)),
                               AlgebraShape((2, 1, 2))])
def test_batched_coords_equal_decides_each_row_as_elem_equal(s):
    rng = np.random.default_rng(3)
    u, v = _rows_near_the_bound(s, rng)
    rows = [alg.elem_equal(alg.unvec(s, x), alg.unvec(s, y)) for x, y in zip(u, v)]
    assert any(rows) and not all(rows)
    for r in range(len(u)):   # every row alone, as a batch of one
        assert alg._coords_equal(s, u[r:r + 1], v[r:r + 1], DEFAULT_TOL) == rows[r]
        # 1-D: the verdict of elem_equal itself
        assert alg._coords_equal(s, u[r], v[r], DEFAULT_TOL) == rows[r]
    passing = np.flatnonzero(rows)
    # rows above 2^500 beside ordinary ones, each decided on its own scale
    assert alg._coords_equal(s, u[passing], v[passing], DEFAULT_TOL)
    for r in np.flatnonzero(~np.array(rows)):   # one failing row among passing ones
        pick = np.append(passing, r)
        assert not alg._coords_equal(s, u[pick], v[pick], DEFAULT_TOL)
        assert not alg._coords_equal(s, u[pick][None], v[pick][None], DEFAULT_TOL)
    # one element against a batch, broadcast
    assert alg._coords_equal(s, u[passing[0]], u[passing], DEFAULT_TOL) == all(
        alg.elem_equal(alg.unvec(s, u[passing[0]]), alg.unvec(s, x)) for x in u[passing])


def test_batched_coords_equal_of_huge_rows_does_not_overflow():
    # u - v overflows in the rows near 1e308 unless each is scaled, as one vector is
    s = AlgebraShape((2,))
    small = np.array([1.0, 0, 0, 1.0])
    big, neg = np.array([1e308, 0, 0, 0]), np.array([-1e308, 0, 0, 0])
    assert alg._coords_equal(s, np.array([small, big]), np.array([small, big]), DEFAULT_TOL)
    assert not alg._coords_equal(s, np.array([small, big]), np.array([small, neg]), DEFAULT_TOL)
    assert not alg._coords_equal(s, np.array([big, small]), np.array([neg, small]), DEFAULT_TOL)


def test_batched_coords_equal_of_an_empty_batch_passes():
    s = AlgebraShape((1, 2))
    empty = np.zeros((0, s.coord_dim), dtype=complex)
    assert alg._coords_equal(s, empty, empty, DEFAULT_TOL)
    assert alg._coords_equal(s, empty.reshape(0, 3, s.coord_dim),
                             empty.reshape(0, 3, s.coord_dim), DEFAULT_TOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batched_coords_equal_raises_on_a_non_finite_row(bad):
    s = AlgebraShape((2,))
    u = np.zeros((3, s.coord_dim), dtype=complex)
    v = u.copy()
    v[1, 2] = bad
    with pytest.raises(ValueError):
        alg._coords_equal(s, u, v, DEFAULT_TOL)
    with pytest.raises(ValueError):
        alg._coords_equal(s, v, u, DEFAULT_TOL)
