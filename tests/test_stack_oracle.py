"""Differential oracle: stacked element operations against per-block loops.

`norm`, `elem_equal`, `min_eig`, `is_positive_elem`, the spectrum of a state,
`pullback_state` and `is_unital` decide all blocks of one size with one
batched call; `loop_reference.py` keeps the versions that call `op_norm` or
`herm_eig` once per block.  Verdicts, keep masks and raised errors must be
the same, and norms and eigenvalues equal to 1e-13 relative.  The
near-threshold cases put one eigenvalue, one deviation or one skew part
within 1e-3 (relative) of its bound, on either side.

The stacked cores `state._pullback` and `bayes._disintegrations` decide a
batch of rows at once; `pullback_state` and `verify_disintegration` are their
batches of one.  Every row of a batch must equal its batch of one bit for
bit: the pullback's coordinates, eigenvalues, eigenvectors, keep masks and
support, and the disintegration's verdict, witness and detail; a refused row
raises the error and message of its own call.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import algebra as alg
from qmarkov import bayes, props, state
from qmarkov import finstoch as fs
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import (Channel, apply, channel_from_action, compose, conjugation_by,
                             identity_channel, is_unital)
from qmarkov.corpus import kl_channels
from qmarkov.errors import PullbackNotPSD, QmarkovError
from qmarkov.state import pullback_state, state_from_density
from qmarkov.tolerances import DEFAULT_TOL, Tolerance

MIXED = AlgebraShape((1, 1, 2, 3, 3, 1))
C128 = AlgebraShape((1,) * 128)
SHAPES = [MIXED, C128, AlgebraShape((4,)), AlgebraShape((2, 1, 3))]
LOOSE = Tolerance(herm=1e-6, psd=1e-6)   # builds states that sit near the default bounds
SIDES = (1 - 1e-3, 1 + 1e-3)
KL_GAMMAS = (0.0, 0.25, 0.5, 1.0)


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except (QmarkovError, ValueError) as exc:
        return type(exc), str(exc)


def _near(got: float, want: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= 1e-13 * max(1.0, abs(want), scale)


def _per_block(spec, part: int) -> list:
    """Part 0 (values), 1 (vectors) or 2 (keep) of a Spectrum, one array per block."""
    out = [None] * len(spec.shape.blocks)
    for (_, ids, *_), stack in zip(spec.shape._layout.groups, spec.stacks):
        for x, arr in zip(ids, stack[part]):
            out[x] = arr
    return out


def _same_spectrum(got, want) -> bool:
    """A Spectrum against loop_reference's (values, vectors, keep)."""
    values, _, keep = want
    return (all(np.array_equal(g, w) for g, w in zip(_per_block(got, 2), keep))
            and all(np.allclose(g, w, rtol=0, atol=1e-13 * max(1.0, np.abs(w).max()))
                    for g, w in zip(_per_block(got, 0), values)))


def _elements(s: AlgebraShape, rng):
    for scale in (1e-3, 1.0, 50.0):
        yield scale * alg.random_element(s, rng)
        yield scale * alg.random_self_adjoint(s, rng)
        yield scale * alg.random_positive(s, rng)
    yield alg.random_density(s, rng)
    yield alg.unit(s)
    yield alg.zero(s)


def _blockwise_unitary(s: AlgebraShape, rng) -> AlgElement:
    return AlgElement(s, tuple(props.random_unitary(n, rng) for n in s.blocks))


def _spectral(s: AlgebraShape, spectra, rng) -> AlgElement:
    """The self-adjoint element with the given eigenvalues per block."""
    u = _blockwise_unitary(s, rng)
    return AlgElement(s, tuple((v * w) @ v.conj().T for v, w in zip(u.blocks, spectra)))


def _last_largest_block(s: AlgebraShape) -> int:
    return max(range(len(s.blocks)), key=lambda i: (s.blocks[i], i))


def _density_with(s: AlgebraShape, low: float, rng) -> AlgElement:
    """Trace 1, largest eigenvalue 0.8 (first block), one eigenvalue `low` (last
    block of the largest size), every other eigenvalue in (0, 0.4]."""
    x = _last_largest_block(s)
    spectra = [rng.uniform(1.0, 2.0, n) for n in s.blocks]
    spectra[0][-1] = spectra[x][0] = 0.0
    total = sum(w.sum() for w in spectra)
    spectra = [(0.2 - low) * w / total for w in spectra]
    spectra[0][-1], spectra[x][0] = 0.8, low
    return _spectral(s, spectra, rng)


def _with_skew(a: AlgElement, size: float, rng) -> AlgElement:
    """a plus an anti-self-adjoint part of operator norm `size`, in one block."""
    x = _last_largest_block(a.shape)
    h = props.random_unitary(a.shape.blocks[x], rng)
    k = 0.5 * (h - h.conj().T)
    k *= size / np.linalg.norm(k, 2)
    return a + AlgElement(a.shape, tuple(k if i == x else np.zeros((m, m))
                                         for i, m in enumerate(a.shape.blocks)))


def test_norms_and_spectral_verdicts_agree_with_loops():
    rng = np.random.default_rng(401)
    compared = 0
    for s in SHAPES:
        for a in _elements(s, rng):
            want = ref.norm(a)
            assert _near(alg.norm(a), want), s
            assert _near(alg.min_eig(a), ref.min_eig(a), want), s
            assert _outcome(alg.is_positive_elem, a) == _outcome(ref.is_positive_elem, a), s
            for tol in (DEFAULT_TOL, Tolerance(herm=1e-1)):
                assert _outcome(alg.is_positive_elem, a, tol) == \
                    _outcome(ref.is_positive_elem, a, tol), s
            compared += 1
    assert compared == len(SHAPES) * 12


def test_elem_equal_agrees_with_loops_on_both_sides_of_the_bound():
    rng = np.random.default_rng(402)
    verdicts = []
    for s in SHAPES:
        for base in (1.0, 40.0):
            a = base * alg.random_density(s, rng)
            scale = DEFAULT_TOL.scale(ref.norm(a))
            for side in SIDES:
                v = alg.vec(a).copy()
                v[rng.integers(s.coord_dim)] += DEFAULT_TOL.eq * scale * side
                b = alg.unvec(s, v)
                got = alg.elem_equal(a, b)
                assert got == ref.elem_equal(a, b) == (side < 1), (s, base, side)
                verdicts.append(got)
            far = a + alg.random_element(s, rng)
            assert alg.elem_equal(a, far) == ref.elem_equal(a, far)
    assert set(verdicts) == {True, False}


def test_near_threshold_eigenvalue_agrees_with_loops():
    rng = np.random.default_rng(403)
    for s in SHAPES:
        for c in (1.0, 5.0):   # scale max(1, 0.8 c): 1 and 4
            for side in SIDES:
                bound = DEFAULT_TOL.psd * max(1.0, 0.8 * c)
                a = c * _density_with(s, -bound * side / c, rng)
                assert abs(ref.min_eig(a) + bound * side) <= 1e-6 * bound
                assert alg.is_positive_elem(a) == ref.is_positive_elem(a) == (side < 1), \
                    (s, c, side)


def _faint_block(s: AlgebraShape, rng):
    """A state whose last largest block has eigenvalues 1e-13: below the cutoff
    relative to the largest eigenvalue of all blocks, above its own."""
    blocks = list(alg.random_density(s, rng).blocks)
    blocks[_last_largest_block(s)] = 1e-13 * np.eye(max(s.blocks))
    rho = AlgElement(s, tuple(blocks))
    return state_from_density(rho * (1.0 / alg.trace(rho).real))


def test_state_spectra_agree_with_loops():
    rng = np.random.default_rng(404)
    for s in SHAPES:
        states = [props.random_rank_deficient_state(s, rng, full=full) for full in (True, False)]
        if len(s.blocks) > 1:
            states.append(_faint_block(s, rng))
            assert not _per_block(states[-1].spectrum, 2)[_last_largest_block(s)].any()
        for i, omega in enumerate(states):
            want = ref.spectrum(omega.density)
            assert _same_spectrum(omega.spectrum, want), (s, i)
            spec = omega.spectrum
            for got, values in (
                (spec.support(), lambda w, k: k),
                (spec.inverse_power(1.0), lambda w, k: np.where(k, 1 / np.where(k, w, 1), 0)),
                (spec.inverse_power(0.5),
                 lambda w, k: np.where(k, (1 / np.where(k, w, 1)) ** 0.5, 0)),
                (spec.sqrt(), lambda w, k: np.sqrt(np.clip(w, 0, None))),
            ):
                loop = ref.spectral_function(omega.density, values)
                bound = 1e-13 * max(1.0, ref.norm(loop))
                assert all(np.abs(g - w).max() <= bound
                           for g, w in zip(got.blocks, loop.blocks)), (s, i)


def _pullback_outcome(omega, f, tol=DEFAULT_TOL):
    """"value", or the message of the PullbackNotPSD that both versions raise."""
    got, want = _outcome(pullback_state, omega, f, tol), _outcome(ref.pullback_density, omega, f,
                                                                  tol)
    if got[0] == "value" and want[0] == "value":
        density, spectrum = want[1]
        assert all(np.array_equal(g, w) for g, w in zip(got[1].density.blocks, density.blocks))
        assert _same_spectrum(got[1].spectrum, spectrum)
        return "value"
    assert got == want and got[0] is PullbackNotPSD
    return got[1]


def test_pullbacks_agree_with_loops_on_the_instance_families():
    rng = np.random.default_rng(405)
    seen = []
    for kind in ("unitary", "padded-block", "classical"):
        for _ in range(6):
            f, omega, _ = props.disintegration_instance(kind, rng, max_dim=6)
            seen.append(_pullback_outcome(omega, f))
    for dom, cod in ((MIXED, AlgebraShape((2, 3))), (AlgebraShape((2, 1)), MIXED),
                     (C128, AlgebraShape((1,) * 16))):
        omega = state_from_density(alg.random_density(cod, rng))
        for _ in range(3):
            f = props._random_star_preserving(dom, cod, rng)
            seen.append(_pullback_outcome(omega, f))   # not positive: mostly fails
    for n in (2, 5):
        f = props.random_cpu_channel(n, n + 1, rng)
        omega = props.random_rank_deficient_state(f.codomain, rng)
        seen.append(_pullback_outcome(omega, f))
    assert "value" in seen and any("negative eigenvalue" in x for x in seen)


@pytest.mark.parametrize("s", [MIXED, C128, AlgebraShape((3,))], ids=str)
def test_pullback_near_threshold_agrees_with_loops(s):
    rng = np.random.default_rng(406)
    # F*(rho) is rho, a unitary conjugate of rho, or 2 rho (trace 2, and scale 1.6)
    channels = ((identity_channel(s), 1), (conjugation_by(_blockwise_unitary(s, rng)), 1),
                (Channel(s, s, 2 * np.eye(s.coord_dim)), 2))
    for f, c in channels:
        scale = max(1.0, 0.8 * c)
        passes = "value" if c == 1 else "trace"
        for side in SIDES:
            # one eigenvalue at -tol.psd * scale
            rho = _density_with(s, -DEFAULT_TOL.psd * scale * side / c, rng)
            got = _pullback_outcome(state_from_density(rho, LOOSE), f)
            assert (passes if side < 1 else "negative eigenvalue") in got, (c, side)
            # an anti-self-adjoint part at 2 tol.herm * scale
            rho = _with_skew(_density_with(s, 1e-3, rng), DEFAULT_TOL.herm * scale * side / c, rng)
            got = _pullback_outcome(state_from_density(rho, LOOSE), f)
            assert (passes if side < 1 else "anti-self-adjoint") in got, (c, side)


def _pullback_cases(rng):
    """(name, F, densities (T, cod_dim)) for the stacked pullback: the
    disintegration_instance families up to M_6, with their priors among the
    densities, the knill-laflamme F and G at four strengths, and C^64."""
    for kind in ("unitary", "padded-block", "classical"):
        for i in range(4):
            f, omega, _ = props.disintegration_instance(kind, rng, max_dim=6)
            rho = [alg.vec(omega.density)]
            rho += [alg.vec(alg.random_density(f.codomain, rng)) for _ in range(2)]
            rho += [alg.vec(props.random_rank_deficient_state(f.codomain, rng).density)]
            yield f"{kind}-{i}", f, np.array(rho)
    for gamma in KL_GAMMAS:
        _, _, f, g = kl_channels(gamma)
        for name, h in (("f", f), ("g", g)):
            rho = np.array([alg.vec(alg.random_density(h.codomain, rng)) for _ in range(5)])
            yield f"knill-laflamme-{name}-{gamma}", h, rho
    c64 = AlgebraShape((1,) * 64)
    image = rng.integers(0, 64, size=64)
    f = fs.embed(fs.deterministic_kernel(lambda x: int(image[x]), 64, 64))
    yield "c64", f, np.array([alg.vec(alg.random_density(c64, rng)) for _ in range(3)])


def _same_rows(coords, stacks, supports, i, xi) -> bool:
    """Row i of a stacked pullback, bit for bit the State of its batch of one."""
    return (np.array_equal(coords[i], alg.vec(xi.density))
            and all(np.array_equal(x[i], y)
                    for stack, one in zip(stacks, xi.spectrum.stacks) for x, y in zip(stack, one))
            and np.array_equal(alg.vec(supports[i]), alg.vec(xi.support)))


def test_stacked_pullback_rows_are_their_batches_of_one():
    rng = np.random.default_rng(410)
    for name, f, rho in _pullback_cases(rng):
        coords, stacks = state._pullback(f.domain, rho, f.matrix)
        supports = state._supports(f.domain, stacks)
        assert coords.shape == (len(rho), f.domain.coord_dim) and len(supports) == len(rho)
        for i, row in enumerate(rho):
            xi = pullback_state(state_from_density(alg.unvec(f.codomain, row)), f)
            assert _same_rows(coords, stacks, supports, i, xi), (name, i)


def test_stacked_pullback_with_one_channel_per_row():
    """The knill-laflamme sweep: each state pulled back along the F of every strength,
    then along its G, each row by its own channel."""
    rng = np.random.default_rng(412)
    pairs = [kl_channels(gamma)[2:] for gamma in KL_GAMMAS]
    omegas = [state_from_density(alg.random_density(AlgebraShape((2,)), rng)) for _ in range(3)]
    rho = np.tile([alg.vec(o.density) for o in omegas], (len(pairs), 1))
    fs_, gs = (np.repeat([c[j].matrix for c in pairs], len(omegas), axis=0) for j in (0, 1))
    big, big_stacks = state._pullback(AlgebraShape((8,)), rho, fs_)
    small, small_stacks = state._pullback(AlgebraShape((2,)), big, gs)
    big_supports = state._supports(AlgebraShape((8,)), big_stacks)
    small_supports = state._supports(AlgebraShape((2,)), small_stacks)
    for t in range(len(rho)):
        f, g = pairs[t // len(omegas)]
        transported = pullback_state(omegas[t % len(omegas)], f)
        assert _same_rows(big, big_stacks, big_supports, t, transported), t
        assert _same_rows(small, small_stacks, small_supports, t, pullback_state(transported, g)), t


def test_stacked_pullback_of_no_rows():
    f = kl_channels(0.5)[2]
    coords, stacks = state._pullback(f.domain, np.empty((0, f.codomain.coord_dim)), f.matrix)
    assert coords.shape == (0, f.domain.coord_dim)
    assert [x.shape[0] for stack in stacks for x in stack] == [0, 0, 0]
    assert state._supports(f.domain, stacks) == []


# the channel matrices F that pull a density back to i rho (skew), -rho (negative) and
# 2 rho (trace 2), with the words of their refusals
REFUSALS = [(1j, "anti-self-adjoint part"), (-1.0, "negative eigenvalue"), (2.0, "trace (2")]


@pytest.mark.parametrize("c, words", REFUSALS, ids=["skew", "negative", "trace"])
@pytest.mark.parametrize("at", [0, 2])
def test_stacked_pullback_refuses_as_its_batch_of_one(c, words, at):
    """A refused row at index `at` of four raises the error and message of its own call,
    and a row refused for another reason after it does not change them."""
    s = MIXED
    rng = np.random.default_rng(413)
    omega = state_from_density(alg.random_density(s, rng))
    bad = Channel(s, s, np.conj(c) * np.eye(s.coord_dim))
    want = _outcome(pullback_state, omega, bad)
    assert want[0] is PullbackNotPSD and words in want[1]
    mats = np.array([identity_channel(s).matrix] * 4)
    mats[at] = bad.matrix
    later = [other for other, _ in REFUSALS if other != c][0]
    mats[3] = np.conj(later) * np.eye(s.coord_dim)
    rho = np.tile(alg.vec(omega.density), (4, 1))
    assert _outcome(state._pullback, s, rho, mats) == want
    assert _outcome(state._pullback, s, rho[:at + 1], mats[:at + 1]) == want


def _disintegration_trials(rng):
    """(F, omega, G) on M_2 and the words of its report: a disintegration; a
    recovery followed by a unitary conjugation, and one shifted by tr(A)/20 on
    the diagonal (state preservation fails on every unit, and on the diagonal
    units only); the collapse A |-> omega(A) 1 of the identity (state
    preservation holds, the a.e. section fails); a disintegration of a
    rank-deficient prior; and, for the pure state P, G(B) = B P + tr(B)/2 (1 - P),
    which equals the identity on the support of P only."""
    m2 = AlgebraShape((2,))

    def unitary():
        return AlgElement(m2, (props.random_unitary(2, rng),))

    u, v, w = unitary(), unitary(), unitary()
    omega = state_from_density(alg.random_density(m2, rng))
    f, g = conjugation_by(u), conjugation_by(alg.adjoint(u))
    one = alg.unit(m2)
    shifted = channel_from_action(m2, m2, lambda a: apply(g, a) + 0.05 * alg.trace(a) * one)
    collapse = channel_from_action(m2, m2, lambda a: omega(a) * one)
    thin = props.random_rank_deficient_state(m2, rng, full=False)
    pure = state_from_density(AlgElement(m2, (np.diag([1.0, 0.0]),)))
    p = pure.support
    on_support = channel_from_action(
        m2, m2, lambda a: alg.mul(a, p) + 0.5 * alg.trace(a) * (one - p))
    return [((f, omega, g), "both hold"),
            ((f, omega, compose(g, conjugation_by(v))), "state preservation fails"),
            ((f, omega, shifted), "state preservation fails"),
            ((identity_channel(m2), omega, collapse), "not a.e. equal"),
            ((conjugation_by(w), thin, conjugation_by(alg.adjoint(w))), "both hold"),
            ((identity_channel(m2), pure, on_support), "both hold")]


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4, 5), (5, 3, 2, 1, 4, 0), (1, 3), (2,)],
                         ids=str)
def test_stacked_disintegration_reports_are_their_batches_of_one(order):
    rng = np.random.default_rng(414)
    picked = [_disintegration_trials(rng)[i] for i in order]
    trials = [t for t, _ in picked]
    want = [bayes.verify_disintegration(f, omega, g) for f, omega, g in trials]
    assert all(words in r.detail for r, (_, words) in zip(want, picked))
    m2 = AlgebraShape((2,))
    fm, gm = (np.array([t[j].matrix for t in trials]) for j in (0, 2))
    rho = np.array([alg.vec(omega.density) for _, omega, _ in trials])
    sigma, stacks = state._pullback(m2, rho, fm)
    got = bayes._disintegrations(m2, m2, fm, gm, rho, sigma, state._supports(m2, stacks),
                                 DEFAULT_TOL)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
    assert bayes._disintegrations(m2, m2, fm[:0], gm[:0], rho[:0], sigma[:0], [],
                                  DEFAULT_TOL) == []


def _unital_key(report):
    img = (report.witness or {}).get("image_of_unit")
    return report.verdict, None if img is None else tuple(b.tobytes() for b in img.blocks)


def test_is_unital_agrees_with_loops():
    rng = np.random.default_rng(407)
    verdicts = []
    for dom, cod in ((MIXED, MIXED), (MIXED, C128), (C128, AlgebraShape((2, 1, 3))),
                     (AlgebraShape((3,)), AlgebraShape((4,)))):
        u = alg._unit_coords(dom)
        raw = rng.standard_normal((cod.coord_dim, dom.coord_dim))
        for side in SIDES + (None,):
            target = np.array(alg._unit_coords(cod))
            if side is not None:
                target[rng.integers(cod.coord_dim)] += DEFAULT_TOL.eq * side
            m = raw + np.outer(target - raw @ u, u) / (u @ u).real
            f = Channel(dom, cod, m)
            got, want = is_unital(f), ref.is_unital(f)
            assert _unital_key(got) == _unital_key(want), (dom, cod, side)
            verdicts.append(got.verdict)
        f = props._random_star_preserving(dom, cod, rng)
        assert _unital_key(is_unital(f)) == _unital_key(ref.is_unital(f))
    for n in (2, 6):
        f = props.random_cpu_channel(n, n, rng)
        assert _unital_key(is_unital(f)) == _unital_key(ref.is_unital(f)) == ("pass", None)
    assert set(verdicts) == {"pass", "fail"}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("coord", [0, 3], ids=["1x1-block", "2x2-block"])
def test_non_finite_entries_raise(bad, coord):
    s = AlgebraShape((1, 2))
    good = alg.random_density(s, np.random.default_rng(408))
    v = alg.vec(good).copy()
    v[coord] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):   # checked at the boundary
        alg.unvec(s, v)
    with pytest.raises(ValueError, match="NaN or Inf"):
        AlgElement(s, tuple(b.copy() for b in alg._adopt(s, v).blocks))
    a = alg._adopt(s, v)   # the unchecked internal path: every stacked read checks again
    for call in (lambda: alg.norm(a), lambda: alg.elem_equal(a, good),
                 lambda: alg.elem_equal(good, a), lambda: alg.min_eig(a),
                 lambda: alg.is_positive_elem(a), lambda: alg.is_self_adjoint_elem(a),
                 lambda: state_from_density(a)):
        with pytest.raises(ValueError, match="NaN or Inf"):
            call()
    m = np.eye(s.coord_dim, dtype=complex)
    m[coord, coord] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):   # a channel is checked once, when built
        Channel(s, s, m)


def test_modularity_chain_pulls_back_once(monkeypatch):
    calls = []
    original = bayes.pullback_state

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bayes, "pullback_state", counting)
    rng = np.random.default_rng(409)
    for kind in ("unitary", "padded-block", "classical"):
        f, omega, g = props.disintegration_instance(kind, rng, max_dim=4)
        calls.clear()
        assert bayes.modularity_chain(f, omega, g).passed
        assert len(calls) == 1, kind
        calls.clear()
        assert bayes.verify_disintegration(f, omega, g).passed
        assert len(calls) == 1, kind


def test_unit_is_a_fresh_writable_element():
    s = AlgebraShape((1, 2))
    one = alg.unit(s)
    with pytest.raises(ValueError):
        one.blocks[1][0, 1] = 5.0
    assert alg.elem_equal(alg.unit(s), ref.unit(s))
    assert np.array_equal(alg.vec(alg.unit(s)), alg.vec(ref.unit(s)))
