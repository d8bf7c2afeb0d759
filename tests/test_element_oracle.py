"""Differential oracle: elements as one coordinate vector, and sampled checks
on stacked trial batches, against per-block and per-trial loops.

`loop_reference.py` keeps the versions that build an element block by block
and decide a sampled check one random element at a time.  Results must be
bitwise equal: the same coordinates, the same generator state after a draw,
and the same verdict, trial, reason, witness input and min_eigenvalue.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import _grid, props
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape
from qmarkov.channel import (
    Channel,
    identity_channel,
    is_positive_sampled,
    is_schwarz_sampled,
    transpose_channel,
)
from qmarkov.state import state_from_density

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
