from fractions import Fraction

import numpy as np
import pytest

from qmarkov import corpus
from qmarkov import finstoch as fs
from qmarkov.channel import compose as chan_compose, is_cp, is_unital
from qmarkov.errors import ShapeMismatch


def test_stochastic_validation():
    with pytest.raises(ValueError):
        fs.stochastic([[Fraction(1, 2)], [Fraction(1, 3)]])  # column sums to 5/6
    with pytest.raises(ValueError):
        fs.stochastic([[-0.5], [1.5]])
    f = fs.stochastic([[0.5, 0.25], [0.5, 0.75]])
    assert not f.exact
    g = fs.stochastic([["1/2", "1/4"], ["1/2", "3/4"]])
    assert g.exact and isinstance(g.entries[0, 0], Fraction)


def test_compose_identity_and_dimensions():
    ident = fs.deterministic_kernel(lambda x: x, 3, 3)
    f = fs.stochastic([["1/2", "1/4", "0"], ["1/2", "1/2", "1"], ["0", "1/4", "0"]])
    assert np.array_equal(fs.compose(ident, f).entries, f.entries)
    with pytest.raises(ShapeMismatch):
        fs.compose(f, fs.deterministic_kernel(lambda x: 0, 2, 2))


def test_push_uniform_through_permutation():
    perm = fs.deterministic_kernel(lambda x: (x + 1) % 4, 4, 4)
    p = fs.prob_vector([Fraction(1, 4)] * 4)
    q = fs.push(perm, p)
    assert all(v == Fraction(1, 4) for v in q.entries)


def test_product_entries():
    f = fs.stochastic([["1/3", "1/2"], ["2/3", "1/2"]])
    f2 = fs.stochastic([["1/4", "1"], ["3/4", "0"]])
    prod = fs.product(f, f2)
    # spot check: entry at output (y, y') = (1, 0), input (x, x') = (0, 1)
    y, y2, x, x2 = 1, 0, 0, 1
    assert prod.entries[y * 2 + y2, x * 2 + x2] == f.entries[y, x] * f2.entries[y2, x2]


def test_bayes_inverse_identity():
    ident = fs.deterministic_kernel(lambda x: x, 3, 3)
    p = fs.prob_vector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    g = fs.bayes_inverse(ident, p)
    assert np.array_equal(g.entries, ident.entries)


def test_bayes_inverse_of_discard_returns_the_prior():
    # f: X -> {*} has a single row of ones; the inverse column is p itself
    bang = fs.stochastic([[Fraction(1)] * 3])
    p = fs.prob_vector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    g = fs.bayes_inverse(bang, p)
    assert [g.entries[x, 0] for x in range(3)] == list(p.entries)


def test_bayes_inverse_matches_disintegration_formula():
    func = [0, 1, 1, 2]
    kern = fs.deterministic_kernel(lambda x: func[x], 4, 3)
    p = fs.prob_vector([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1, 8)])
    q = fs.push(kern, p)
    g = fs.bayes_inverse(kern, p)
    for x in range(4):
        for y in range(3):
            expected = p.entries[x] * (1 if func[x] == y else 0) / q.entries[y]
            assert g.entries[x, y] == expected


def test_bayes_diagram_exact_and_state_preserving():
    rng = np.random.default_rng(0)
    for _ in range(16):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
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
                assert g.entries[x, y] * q.entries[y] == f.entries[y, x] * p.entries[x] \
                    or q.entries[y] == 0
        back = fs.push(g, q)
        assert list(back.entries) == list(p.entries)


def test_null_columns_filled_uniformly():
    f = fs.stochastic([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]])
    p = fs.prob_vector([Fraction(1, 2), Fraction(1, 2)])
    g = fs.bayes_inverse(f, p)
    assert g.entries[0, 1] == Fraction(1, 2) and g.entries[1, 1] == Fraction(1, 2)


def test_classical_ae_relations():
    p = fs.prob_vector([Fraction(1, 2), Fraction(1, 2), Fraction(0)])
    f = fs.stochastic([["1", "0", "1/2"], ["0", "1", "1/2"]])
    h = fs.stochastic([["1", "0", "1/4"], ["0", "1", "3/4"]])
    assert fs.ae_equal(f, f, p).passed
    assert fs.ae_equal(f, h, p).passed  # differ only on the nullset
    assert fs.is_ae_deterministic(f, p).passed

    p_full = fs.prob_vector([Fraction(1, 3)] * 3)
    rep = fs.ae_equal(f, h, p_full)
    assert not rep.passed and rep.witness["point"] == 2
    rep = fs.is_ae_deterministic(f, p_full)
    assert not rep.passed and rep.witness["point"] == 2


def test_embed_identity_and_functoriality():
    ident = fs.deterministic_kernel(lambda x: x, 3, 3)
    chan = fs.embed(ident)
    assert np.allclose(chan.matrix, np.eye(3))
    rng = np.random.default_rng(1)
    for _ in range(8):
        f_e = rng.dirichlet(np.ones(3), size=4).T  # 3x4 column-stochastic
        g_e = rng.dirichlet(np.ones(2), size=3).T  # 2x3
        f = fs.stochastic(f_e.tolist())
        g = fs.stochastic(g_e.tolist())
        lhs = fs.embed(fs.compose(g, f))
        rhs = chan_compose(fs.embed(f), fs.embed(g))
        assert np.allclose(lhs.matrix, rhs.matrix)


def _rational_kernel(rng, rows: int, cols: int) -> fs.StochasticMatrix:
    """Columns w / sum(w) of random integer weights up to 2^102, about 40 % of them 0."""
    columns = []
    for _ in range(cols):
        w = [0 if rng.random() < 0.4 else int(rng.integers(1, 2**62)) << 40 | int(
            rng.integers(2**40)) for _ in range(rows)]
        w[0] += 1
        columns.append([Fraction(v, sum(w)) for v in w])
    return fs.stochastic([list(row) for row in zip(*columns)])


def test_embed_converts_exact_entries_as_numpy_does():
    """Only the nonzero Fractions are converted; the floats keep every bit."""
    f = corpus._hamming_error_kernel(Fraction(1, 100))
    kernels = [f, fs.deterministic_kernel(corpus.hamming_decode, 128, 16),
               fs.bayes_inverse(f, fs.prob_vector([Fraction(1, 16)] * 16))]
    rng = np.random.default_rng(8)
    kernels += [_rational_kernel(rng, rows, cols) for rows, cols in ((1, 1), (5, 3), (16, 40))]
    for k in kernels:
        assert k.exact
        want = np.asarray(k.entries, dtype=float).T.astype(complex)
        assert fs.embed(k).matrix.tobytes() == want.tobytes()


def test_embedded_kernels_are_cpu():
    rng = np.random.default_rng(2)
    f = fs.stochastic(rng.dirichlet(np.ones(4), size=3).T.tolist())
    chan = fs.embed(f)
    assert is_unital(chan).passed
    assert is_cp(chan).passed


def test_embed_prob_density():
    p = fs.prob_vector([Fraction(1, 4), Fraction(3, 4)])
    st = fs.embed_prob(p)
    assert st.shape.blocks == (1, 1)
    assert abs(st.density.blocks[0][0, 0] - 0.25) <= 1e-12
    assert abs(st.density.blocks[1][0, 0] - 0.75) <= 1e-12


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), np.float64("inf")])
def test_non_finite_entries_are_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        fs.stochastic([[bad], [0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        fs.stochastic([["1/2", bad], ["1/2", 0.5]])
    with pytest.raises(ValueError, match="non-finite"):
        fs.prob_vector([bad, 0.0])


def test_column_sum_overflow_is_rejected():
    # finite entries whose sum overflows to inf used to pass |total - 1| <= tol * |total|
    with pytest.raises(ValueError, match="column 0 sums to inf"):
        fs.stochastic([[1e308], [1e308]])
    with pytest.raises(ValueError, match="sum to inf"):
        fs.prob_vector([1e308, 1e308])


@pytest.mark.parametrize("make, entries, message", [
    # exact entries are decided on their integer numerators, and the sum reported
    # is one Fraction in lowest terms
    (fs.stochastic, [["1/2", "-1/3"], ["1/2", "4/3"]], "negative probability in column 1"),
    (fs.stochastic, [["1/2", "1/3"], ["1/2", "1/3"]], "column 1 sums to 2/3, expected 1"),
    (fs.stochastic, [[1, 0], [1, 1]], "column 0 sums to 2, expected 1"),
    (fs.stochastic, [["2/6", 0], ["1/3", 1], ["1/6", 0]], "column 0 sums to 5/6, expected 1"),
    (fs.stochastic, [[Fraction(3, 4), 0], [Fraction(1, 2), 1]],
     "column 0 sums to 5/4, expected 1"),
    (fs.prob_vector, ["1/2", "-1/2", 1], "negative probability entry"),
    (fs.prob_vector, ["1/2", "1/3"], "probabilities sum to 5/6, expected 1"),
    (fs.stochastic, [[0.5, -0.25], [0.5, 1.25]], "negative probability in column 1"),
    (fs.stochastic, [[0.5, 0.25], [0.5, 0.25]], "column 1 sums to 0.5, expected 1"),
    (fs.stochastic, [["1/2", 0.5], ["1/2", 0.25]], "column 1 sums to 0.75, expected 1"),
    (fs.prob_vector, [0.5, -0.1, 0.6], "negative probability entry"),
    (fs.prob_vector, [0.5, 0.25], "probabilities sum to 0.75, expected 1"),
])
def test_bad_columns_are_reported_exactly(make, entries, message):
    with pytest.raises(ValueError) as err:
        make(entries)
    assert str(err.value) == message


@pytest.mark.parametrize("rows", [[["1/2", "1/2"], ["1/2"]], [[0.5, 0.5], [0.5]],
                                  [["1/2"], ["1/2", 0.5]]])
def test_ragged_rows_raise_one_value_error(rows):
    with pytest.raises(ValueError, match="rows have different lengths"):
        fs.stochastic(rows)


def test_deterministic_kernel_scatters_each_image_once():
    calls = []

    def func(x):
        calls.append(x)
        return (2 * x) % 3

    k = fs.deterministic_kernel(func, 4, 3)
    assert calls == [0, 1, 2, 3]
    assert k.exact and all(isinstance(v, Fraction) for v in k.entries.flat)
    assert k.entries.tolist() == [[1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]


@pytest.mark.parametrize("image", [-1, 3])
def test_deterministic_kernel_rejects_images_out_of_range(image):
    # -1 must not wrap around to the last row through numpy indexing
    with pytest.raises(ValueError, match="column 1 sums to 0"):
        fs.deterministic_kernel(lambda x: image if x == 1 else 0, 2, 3)


def test_ae_relations_need_a_prior_on_the_kernel_inputs():
    f = fs.stochastic([["1", "0"], ["0", "1"]])
    p = fs.prob_vector(["1/3", "1/3", "1/3"])
    with pytest.raises(ShapeMismatch):
        fs.ae_equal(f, f, p)
    with pytest.raises(ShapeMismatch):
        fs.is_ae_deterministic(f, p)


def test_kernels_and_vectors_compare_by_value():
    # equality is `_equal`: exact against exact compares values exactly, any float
    # one within tol.eq; equal kernels hash alike, and other shapes or types differ
    exact = fs.stochastic([["1/3", "1"], ["2/3", "0"]])
    floats = fs.stochastic([[1 / 3, 1.0], [2 / 3, 0.0]])
    assert exact == fs.stochastic([[Fraction(2, 6), 1], [Fraction(4, 6), 0]])
    assert exact == floats and floats == exact and floats == fs.stochastic(floats.entries)
    assert hash(exact) == hash(floats) and len({exact, floats}) == 1
    assert not exact != fs.stochastic([["1/3", "1"], ["2/3", "0"]])
    near = fs.stochastic([[1 / 3 + 1e-12, 1.0], [2 / 3 - 1e-12, 0.0]])
    off = fs.stochastic([[1 / 3 + 1e-6, 1.0], [2 / 3 - 1e-6, 0.0]])
    assert near == exact and off != exact and off != floats
    assert exact != fs.stochastic([["1/3", "1/3"], ["2/3", "2/3"]])   # one exact entry moved
    wide = fs.stochastic([["1/3", "1", "0"], ["2/3", "0", "1"]])
    tall = fs.stochastic([["1/3", "1"], ["2/3", "0"], ["0", "0"]])
    assert exact != wide and exact != tall and wide != exact
    p = fs.prob_vector(["1/4", "3/4"])
    assert p == fs.prob_vector([0.25, 0.75]) and p != fs.prob_vector(["1/2", "1/2"])
    assert p != fs.prob_vector(["1/4", "3/4", "0"])
    assert hash(p) == hash(fs.prob_vector([0.25, 0.75]))
    # a vector is no kernel, whatever its entries
    assert fs.prob_vector(["1", "0"]) != fs.stochastic([["1"], ["0"]])
    assert fs.stochastic([["1"], ["0"]]) != fs.prob_vector(["1", "0"])
