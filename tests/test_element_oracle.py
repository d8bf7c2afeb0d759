"""Differential oracle: elements as one coordinate vector, and sampled checks
on stacked trial batches, against per-block and per-trial loops.

`loop_reference.py` keeps the versions that build an element block by block
and decide a sampled check one random element at a time, and the stacked
layout that gathers and scatters every block size on its coordinate rows.
Results must be bitwise equal: the same coordinates, the same generator
state after a draw, and the same verdict, trial, reason, witness input and
min_eigenvalue.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import _grid, props
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import (
    Channel,
    conjugation_by,
    identity_channel,
    is_positive_sampled,
    is_schwarz_sampled,
    transpose_channel,
)
from qmarkov.state import pullback_state, state_from_density

SHAPES = [AlgebraShape((1, 1, 2, 3, 3, 1)), AlgebraShape((1,) * 128),
          AlgebraShape((4,)), AlgebraShape((2, 1, 3))]


def _family_shapes():
    """The domains and codomains the props instance families draw."""
    rng = np.random.default_rng(811)
    out = []
    for kind in ("unitary", "padded-block", "classical"):
        for _ in range(3):
            f, _, _ = props.disintegration_instance(kind, rng, max_dim=6)
            out += [f.domain, f.codomain]
    return list(dict.fromkeys(out))


ALL_SHAPES = SHAPES + [s for s in _family_shapes() if s not in SHAPES]


def _name(s: AlgebraShape) -> str:
    return "-".join(map(str, s.blocks)) if len(s.blocks) <= 8 else f"C{len(s.blocks)}"


def _same(x, y) -> bool:
    """Bitwise equality of two complex arrays or numbers."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_elem(a, b) -> bool:
    return a.shape == b.shape and _same(alg.vec(a), ref.vec(b))


@pytest.mark.parametrize("s", ALL_SHAPES, ids=_name)
def test_element_operations_are_bitwise_equal_to_block_loops(s):
    rng = np.random.default_rng(sum(s.blocks) + len(s.blocks))
    a, b = ref.random_element(s, rng), ref.random_element(s, rng)
    z = 0.3 - 1.7j
    assert _same_elem(a + b, ref.add(a, b))
    assert _same_elem(a - b, ref.sub(a, b))
    assert _same_elem(z * a, ref.scale(z, a)) and _same_elem(a * 2.5, ref.scale(2.5, a))
    assert _same_elem(-a, ref.scale(-1.0, a))
    assert _same_elem(alg.mul(a, b), ref.mul(a, b))
    assert _same_elem(alg.adjoint(a), ref.adjoint(a))
    assert _same(alg.trace(a), ref.trace(a))
    assert _same(alg.vec(a), ref.vec(a))
    v = ref.vec(b)
    assert _same(alg.vec(alg.unvec(s, v)), ref.vec(ref.unvec(s, v)))
    assert all(_same(x, y) for x, y in zip(alg.unvec(s, v).blocks, ref.unvec(s, v).blocks))
    assert _same_elem(alg.zero(s), ref.zero(s)) and _same_elem(alg.unit(s), ref.unit(s))
    assert _same(alg.block_embed(a), ref.block_embed(a))
    if s.coord_dim <= 32:
        assert all(_same_elem(e, f) for e, f in zip(alg.matrix_units(s), ref.matrix_units(s)))
    for t in (AlgebraShape((2,)), AlgebraShape((1, 3))):
        c = ref.random_element(t, rng)
        assert _same_elem(alg.tensor_elem(a, c), ref.tensor_elem(a, c))
        assert _same_elem(alg.tensor_elem(c, a), ref.tensor_elem(c, a))
    omega = state_from_density(alg.random_density(s, rng))
    assert _same(omega.expect(a), ref.expect(omega, a))


@pytest.mark.parametrize("s", ALL_SHAPES, ids=_name)
def test_random_element_matches_per_block_draws(s):
    rng, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        assert _same_elem(alg.random_element(s, rng), ref.random_element(s, rng_ref))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    rng, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
    d, d_ref = alg.random_density(s, rng), alg.random_density(s, rng_ref)
    assert _same(alg.vec(d), alg.vec(d_ref))


def _shift(n: int, t: float) -> Channel:
    """X |-> X - t tr(X) / n 1 on M_n: positive fails only on inputs with a small eigenvalue."""
    s = AlgebraShape((n,))
    u = alg.vec(alg.unit(s))
    return Channel(s, s, np.eye(s.coord_dim) - t / n * np.outer(u, u))


def _mix(s: AlgebraShape, d: float) -> Channel:
    """(1 - d) id + d transpose: a Schwarz gap that sits near -tol.psd for small d."""
    return Channel(s, s, (1 - d) * identity_channel(s).matrix + d * transpose_channel(s).matrix)


def _channels():
    rng = np.random.default_rng(23)
    out = [("identity-" + _name(s), identity_channel(s)) for s in SHAPES[2:]]
    out += [("transpose-" + _name(s), transpose_channel(s))
            for s in (AlgebraShape((2,)), AlgebraShape((2, 1, 3)), AlgebraShape((1,) * 64))]
    out += [(f"cpu-{n}-{m}", props.random_cpu_channel(n, m, rng)) for n, m in ((2, 3), (3, 2), (4, 4))]
    for dom, cod in ((AlgebraShape((1, 2)), AlgebraShape((2, 1))),
                     (AlgebraShape((2, 1, 3)), AlgebraShape((1, 1, 2)))):
        out.append((f"star-{_name(dom)}", props._random_star_preserving(dom, cod, rng)))
        out.append((f"raw-{_name(dom)}", Channel(
            dom, cod, 0.3 * rng.standard_normal((cod.coord_dim, dom.coord_dim)))))
    out += [("shift-8", _shift(8, 2e-4)), ("shift-6", _shift(6, 5e-4)),
            ("mix-2", _mix(AlgebraShape((2,)), 3e-10)), ("mix-3", _mix(AlgebraShape((3,)), 3e-10))]
    # entries up to 2^250, the largest the sampled checks take unscaled
    big = props.random_cpu_channel(2, 2, rng)
    out += [("transpose-2-1e60", Channel(AlgebraShape((2,)), AlgebraShape((2,)),
                                         1e60 * transpose_channel(AlgebraShape((2,))).matrix)),
            ("cpu-2-2-2^250", Channel(big.domain, big.codomain,
                                      big.matrix * (2.0 ** 250 / np.abs(big.matrix).max())))]
    return out


CHANNELS = _channels()


def _batch(f: Channel) -> int:
    return max(1, _grid._CHUNK // max(f.domain.coord_dim, f.codomain.coord_dim))


def _agree(got, want) -> bool:
    if (got.verdict, got.detail, got.tolerance) != (want.verdict, want.detail, want.tolerance):
        return False
    if want.witness is None:
        return got.witness is None
    w, g = want.witness, got.witness
    return (list(g) == list(w) and g["trial"] == w["trial"] and g["reason"] == w["reason"]
            and _same_elem(g["input"], w["input"])
            and g.get("min_eigenvalue") == w.get("min_eigenvalue"))


@pytest.mark.parametrize("chunk", [_grid._CHUNK, 16])
def test_sampled_checks_agree_with_the_trial_loop(monkeypatch, chunk):
    monkeypatch.setattr(_grid, "_CHUNK", chunk)
    where = set()
    for name, f in CHANNELS:
        for check, loop in ((is_positive_sampled, ref.is_positive_sampled),
                            (is_schwarz_sampled, ref.is_schwarz_sampled)):
            for trials, seed in ((1, 0), (64, 0), (200, 3)):
                got, want = check(f, trials, seed), loop(f, trials, seed)
                assert _agree(got, want), (name, check.__name__, trials, seed)
                if want.witness is None:
                    where.add("none")
                else:
                    where.add("first" if want.witness["trial"] < _batch(f) else "later")
    assert where == {"none", "first", "later"}


CONTIGUOUS = [AlgebraShape((3,)), AlgebraShape((2, 2)), AlgebraShape((1, 3)),
              AlgebraShape((2, 3)), AlgebraShape((12,)), AlgebraShape((9, 2)),
              AlgebraShape((1,) * 64)]
INTERLEAVED = [AlgebraShape((2, 1, 2)), AlgebraShape((1, 2, 1, 3)),
               AlgebraShape((1, 1, 2, 3, 3, 1))]


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=lambda t: "x".join(map(str, t)) or "one")
@pytest.mark.parametrize("s", CONTIGUOUS + INTERLEAVED, ids=_name)
def test_stacks_join_mul_and_trace_are_bitwise_equal_to_gather_and_scatter(s, lead):
    rng = np.random.default_rng(sum(s.blocks) + len(lead))
    u = alg._random_coords(s, rng, lead)
    v = alg._random_coords(s, rng, lead)
    got, want = alg._stacks(s, u), ref.stacks(s, u)
    assert len(got) == len(want) and all(_same(x, y) for x, y in zip(got, want))
    xs = [x * 1.5 for x in want]
    assert _same(alg._join(s, xs), ref.join(s, xs))
    assert _same(alg._join(s, got), u)
    assert _same(alg._mul_coords(s, u, v), ref.stacked_mul(s, u, v))
    a, b = (alg.unvec(s, w.reshape(-1, s.coord_dim)[0]) for w in (u, v))
    assert _same(alg.vec(alg.mul(a, b)), ref.stacked_mul(s, alg.vec(a), alg.vec(b)))
    assert _same(alg.trace(a), ref.stacked_trace(a))
    # the traces of a batch are those of its elements, one at a time
    rows = [ref.stacked_trace(alg.unvec(s, w)) for w in u.reshape(-1, s.coord_dim)]
    assert _same(alg._trace_coords(s, u), np.reshape(rows, lead))


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("s", CONTIGUOUS + INTERLEAVED + [AlgebraShape((8,))], ids=_name)
def test_column_products_are_the_blockwise_products_of_every_column(s, n):
    # one BLAS call per block size sums in its own order, and a broadcast multiply forms
    # the 1 x 1 products: equal to the stacked products up to the last bits
    rng = np.random.default_rng(sum(s.blocks) + n)
    a, m = alg._random_coords(s, rng), alg._random_coords(s, rng, (n,)).T.copy()
    for left, want in ((True, ref.stacked_mul(s, a, m.T).T), (False, ref.stacked_mul(s, m.T, a).T)):
        got = alg._mul_columns(s, a, m, left)
        assert got.shape == m.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), left


@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("s", [AlgebraShape((3,)), AlgebraShape((2, 1, 2)),
                               AlgebraShape((1, 1, 1))], ids=_name)
def test_column_products_over_leading_axes_are_the_stacked_2d_products(s, left):
    # leading axes only repeat the calls of one product, so every product keeps its bits;
    # the group rows of (2, 1, 2) are an index array, and (1, 1, 1) takes the multiply
    rng = np.random.default_rng(len(s.blocks))
    a = alg._random_coords(s, rng, (2, 3))
    m = alg._random_coords(s, rng, (2, 1, 5)).swapaxes(-1, -2).copy()   # (2, 1, coord_dim, 5)
    want = [[alg._mul_columns(s, a[t, i], m[t, 0], left) for i in range(3)] for t in range(2)]
    assert np.array_equal(alg._mul_columns(s, a, m, left), np.array(want))
    # one element against a stack of matrices
    want = [alg._mul_columns(s, a[0, 0], m[t, 0], left) for t in range(2)]
    assert np.array_equal(alg._mul_columns(s, a[0, 0], m[:, 0], left), np.array(want))


@pytest.mark.parametrize("s", CONTIGUOUS + INTERLEAVED, ids=_name)
def test_stacks_of_an_element_cannot_change_it(s):
    a = alg.random_element(s, np.random.default_rng(5))
    before = alg.vec(a).copy()
    for x in alg._stacks(s, alg.vec(a)):
        if s in CONTIGUOUS:   # a view of the read-only coordinates
            assert np.shares_memory(x, alg.vec(a))
            with pytest.raises(ValueError):
                x[...] = 0.0
        elif not np.shares_memory(x, alg.vec(a)):   # a gathered copy
            x[...] = 0.0
    assert _same(alg.vec(a), before)


@pytest.mark.parametrize("s", CONTIGUOUS[:5] + INTERLEAVED, ids=_name)
def test_built_elements_share_no_memory_with_writable_arrays_they_escape_with(s):
    rng = np.random.default_rng(len(s.blocks))
    a, b = alg.random_element(s, rng), alg.random_element(s, rng)
    omega = state_from_density(alg.random_density(s, rng))
    unitary = AlgElement(s, [props.random_unitary(n, rng) for n in s.blocks])
    xi = pullback_state(omega, conjugation_by(unitary))
    spectra = [omega.spectrum, xi.spectrum]
    built = [alg.mul(a, b), xi.density, xi.support]
    built += [f(spec) for spec in spectra for f in (
        lambda sp: sp.sqrt(), lambda sp: sp.inverse_power(1.0), lambda sp: sp.inverse_power(0.5))]
    escaping = [arr for spec in spectra for stack in spec.stacks for arr in stack]
    escaping += [x for e in (a, b) for x in alg._stacks(s, alg.vec(e))]
    for e in built:
        v = alg.vec(e)
        assert not v.flags.writeable
        for arr in escaping:
            assert not (arr.flags.writeable and np.shares_memory(v, arr))


LAYOUT_SHAPES = [AlgebraShape((2, 1, 2)), AlgebraShape((1, 3, 1, 3, 2)),
                 AlgebraShape((1,) * 5), AlgebraShape((4,))]
LEADS = [(), (3,), (2, 3)]


@pytest.mark.parametrize("lead", LEADS, ids=lambda t: "x".join(map(str, t)) or "one")
@pytest.mark.parametrize("s", LAYOUT_SHAPES, ids=_name)
def test_the_shape_layout_is_bitwise_equal_to_gather_scatter_and_block_draws(s, lead):
    """`_stacks`, `_join`, `trace` and `_random_coords` read the layout kept on
    the shape; the loops rebuild every row set from the block dimensions."""
    rng, rng_ref = (np.random.default_rng(len(lead) + s.coord_dim) for _ in range(2))
    u = alg._random_coords(s, rng, lead)
    count = int(np.prod(lead))
    drawn = [ref.vec(ref.random_element(s, rng_ref)) for _ in range(count)]
    assert _same(u, np.reshape(drawn, lead + (s.coord_dim,)))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    got, want = alg._stacks(s, u), ref.stacks(s, u)
    assert len(got) == len(want) and all(_same(x, y) for x, y in zip(got, want))
    xs = [x * (0.5 - 2j) for x in want]
    assert _same(alg._join(s, xs), ref.join(s, xs)) and _same(alg._join(s, got), u)
    for w in u.reshape(count, s.coord_dim):
        a = alg.unvec(s, w)
        assert _same(alg.trace(a), ref.stacked_trace(a))


def test_equal_shapes_share_one_layout_and_one_tensor_shape():
    s, t = AlgebraShape((2, 1, 2)), AlgebraShape([2, 1, 2])
    assert s is not t and s._layout is t._layout
    assert alg.tensor_shape(s, t) is alg.tensor_shape(s, t) is alg.tensor_shape(t, s)
    m, c = AlgebraShape((2,)), AlgebraShape((1, 1))
    st = alg.tensor_shape(m, c)
    assert st.blocks == (2, 2) and st._layout is AlgebraShape((2, 2))._layout
    assert alg.tensor_shape(AlgebraShape((2,)), AlgebraShape((1, 1))) is st
    for g in s._layout.groups:   # shared by every caller, so read-only
        assert not any(arr.flags.writeable for arr in (g.ids, g.rows, g.diag))


FOLD_VALUES = [
    [np.float64(2.0)],
    [np.float64(-1.0), np.float64(3.0), np.float64(0.5)],
    [np.float64(np.nan), np.float64(1.0)],
    [np.float64(1.0), np.float64(np.nan), np.float64(-np.inf)],
    [np.float64(np.inf), np.float64(-np.inf)],
    [np.float64(-0.0), np.float64(0.0)],
    [np.float64(0.0), np.float64(-0.0)],
    [np.array(1.5), np.array(-2.0)],
    [np.array(np.nan), np.array(np.inf)],
    [np.array([1.0, np.nan, -np.inf, 0.0]), np.array([np.inf, 2.0, np.nan, -0.0]),
     np.array([-1.0, 5.0, 7.0, np.nan])],
    [np.arange(6.0).reshape(2, 3) - 2.5, np.full((2, 3), -np.inf), np.eye(2, 3)],
]


@pytest.mark.parametrize("values", FOLD_VALUES)
def test_the_pairwise_folds_are_bitwise_equal_to_the_list_reductions(values):
    for fold, reduction in ((alg._fold_max, np.maximum.reduce), (alg._fold_min, np.minimum.reduce)):
        got, want = np.asarray(fold(values)), np.asarray(reduction(values))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", LEADS, ids=lambda t: "x".join(map(str, t)) or "one")
@pytest.mark.parametrize("s", LAYOUT_SHAPES, ids=_name)
def test_the_folded_norms_are_bitwise_equal_to_the_list_reductions(s, lead):
    rng = np.random.default_rng(s.coord_dim + len(lead))
    xs = alg._stacks(s, alg._random_coords(s, rng, lead))
    hs = alg._hermitian(xs)
    w = alg._eigvalsh(hs)
    pairs = [
        (alg._max_abs(xs), np.maximum.reduce([np.abs(x).max(axis=(-3, -2, -1)) for x in xs])),
        (alg._upper(xs), np.maximum.reduce([alg._frobenius(x) for x in xs]) * (1 + alg._SLACK)),
        (alg._lowest(w), np.minimum.reduce([v[..., 0].min(axis=-1) for v in w])),
        (alg._op_norm(xs), np.maximum.reduce([alg._op_norm([x]) for x in xs])),
    ]
    for got, want in pairs:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape == lead and got.tobytes() == want.tobytes()
