"""Differential oracle: the maps of the corpus fixtures and props suites, built
from the library's constructors, against the callbacks they replace.

The compressions are `ad_channel(V*)`, or `_ad_matrix` of a stack of V* in the
`channel` suite, the doubling embedding one `kraus_channel`, the corner
compression `ad_channel` of a 3x4 identity, the padded embeddings
`corpus._padded` of an `ad_channel` or a block inclusion (whose `hs_adjoint`
is the padded-block G), the EPR spin flip a `compose` with
`transpose_channel`, and the masked map of the `state-ae` suite a product with
the conjugations `_ad_matrix` of a stack of complements.  `loop_reference.py`
keeps the callbacks that applied each of them to every matrix unit.  Each map
must equal its callback bit for bit, except two that sum in another order: the
up map of `compression_pair`, whose leftover 1 - V V* is read off
`ad_channel(V)` at the unit, and the masked map, a Kronecker product in place
of two products per unit.  Those two are held to 8 ulp of max(1, max |entry|),
as is the compression by a one-column V, which no fixture or suite builds: its
callback's products are vector products, which round their own way.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import corpus, props
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import Channel

SEEDS = range(20)


def _ulp_close(got: np.ndarray, want: np.ndarray) -> bool:
    bound = 8 * np.finfo(float).eps * max(1.0, np.abs(want).max())
    return got.shape == want.shape and np.abs(got - want).max() <= bound


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 2), (2, 3), (2, 5), (3, 4)])
def test_padded_inclusion_is_bitwise_the_callback(n, m):
    got = corpus.padded_inclusion(n, m)
    want = ref.padded_inclusion(n, m)
    assert (got.domain, got.codomain) == (want.domain, want.codomain)
    assert np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("n, m", [(1, 3), (2, 3), (2, 5), (3, 4)])
@pytest.mark.parametrize("seed", SEEDS)
def test_compression_pair_matches_the_callbacks(n, m, seed):
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    down, up = corpus.compression_pair(n, m, got)
    ref_down, ref_up = ref.compression_pair(n, m, want)
    assert got.bit_generator.state == want.bit_generator.state
    if n > 1:
        assert np.array_equal(down.matrix, ref_down.matrix)
    else:   # the callback's products with a one-column V round as vector products
        assert _ulp_close(down.matrix, ref_down.matrix)
    assert (up.domain, up.codomain) == (ref_up.domain, ref_up.codomain)
    assert _ulp_close(up.matrix, ref_up.matrix)


@pytest.mark.parametrize("seed", SEEDS)
def test_padded_block_instance_is_bitwise_the_callbacks(seed):
    f, _, g = props.disintegration_instance("padded-block", np.random.default_rng(seed))
    n, k = f.codomain.blocks
    ref_f, ref_g = ref.padded_block(n, k)
    assert (f.domain, f.codomain, g.domain, g.codomain) == (
        ref_f.domain, ref_f.codomain, ref_g.domain, ref_g.codomain)
    assert np.array_equal(f.matrix, ref_f.matrix)
    assert np.array_equal(g.matrix, ref_g.matrix)


def test_doubling_and_corner_maps_are_bitwise_the_callbacks():
    f, g, _ = corpus.strict_positivity_triple()
    doubling = ref.doubling_embedding().matrix
    assert np.array_equal(f.matrix, doubling)
    assert np.array_equal(g.matrix, ref.corner_compression().matrix)
    assert np.array_equal(corpus.unreasonable_pair()[1].matrix, doubling)


def test_epr_spin_flip_is_bitwise_the_callback(monkeypatch):
    compared = []

    def spy(f, g):
        compared.append(g)
        return real(f, g)

    real = corpus._same_map
    monkeypatch.setattr(corpus, "_same_map", spy)
    assert corpus.counterexample("epr").run().passed
    (expected,) = compared
    assert np.array_equal(expected.matrix, ref.epr_spin_flip().matrix)


@pytest.mark.parametrize("trials", [1, 16, 64])
@pytest.mark.parametrize("seed", range(5))
def test_channel_suite_compressions_are_bitwise_the_callback(monkeypatch, seed, trials):
    built = []

    def spy(v):   # a stack of V* (T, 2, 5) for the compressions, of unitaries otherwise
        built.append((v, real(v)))
        return built[-1][1]

    real = props._ad_matrix
    monkeypatch.setattr(props, "_ad_matrix", spy)
    assert props.run_suite("channel", seed=seed, trials=trials).passed
    built = [(v, f) for vs, fs in built if vs.shape[-2:] == (2, 5) for v, f in zip(vs, fs)]
    assert len(built) == max(4, trials // 8)
    for v_star, f in built:
        assert np.array_equal(f, ref.compression(v_star.conj().T).matrix)


@pytest.mark.parametrize("trials", [1, 16, 64])
@pytest.mark.parametrize("seed", SEEDS)
def test_state_suite_masked_maps_match_the_callback(monkeypatch, seed, trials):
    drawn, corners, masked = [], [], []

    def parts(s, t, raw):   # the maps F of all trials, then their G or change
        drawn.append(real_parts(s, t, raw))
        return drawn[-1].copy()   # the suite changes G in place

    def conjugation(c):   # the complements C of the trials that change F
        corners.extend(AlgElement(AlgebraShape((3,)), (x,)) for x in c)
        return real_conjugation(c)

    def failures(s, left, right, tol, supports, side):   # ae_equal of every trial, at once
        if side == "left":
            masked.extend((t, g) for t, g in enumerate(right)
                          if g.tobytes() != drawn[1][t].tobytes())
        return real_failures(s, left, right, tol, supports, side)

    real_parts, real_conjugation = props._star_preserving_parts, props._ad_matrix
    real_failures = props.equal_failure
    monkeypatch.setattr(props, "_star_preserving_parts", parts)
    monkeypatch.setattr(props, "_ad_matrix", conjugation)
    monkeypatch.setattr(props, "equal_failure", failures)
    assert props.run_suite("state-ae", seed=seed, trials=trials).passed
    assert masked and len(masked) == len(corners)
    (m2, m3), (fs, bumps) = (AlgebraShape((2,)), AlgebraShape((3,))), drawn
    for (t, g), comp in zip(masked, corners):
        f, bump = Channel(m2, m3, fs[t]), Channel(m2, m3, bumps[t])
        assert _ulp_close(g, ref.masked(f, bump, comp).matrix)
