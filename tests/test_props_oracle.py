"""Differential oracle: the stacked props trials against one trial per step.

The `algebra`, `channel`, `state-ae` and `finstoch` suites draw every trial's
inputs in turn and decide each invariant once, on the coordinates or channel
matrices of all trials stacked; `loop_reference.py` keeps the loops that draw
and decide one trial at a time, the star-preserving map built by
`channel_from_action`, the random CPU maps, unitaries and compressions built
one per trial, and the exact kernels and priors of weights normalized by a
Fraction sum and validated entry by entry.  Each suite must leave its
generator in the same state and report the same checks with either, the
maps, densities and projections must be bitwise equal (the compressions' up
maps, summed in another order, excepted) and the kernels equal, and the
verdicts must agree under a broken `_mul_coords` too.  The `state-ae` a.e. trials must give every trial
the verdicts of the per-call `ae_equal` and `ae_deterministic`, also under a
broken support or a broken entry rule on some of the trials.
"""
from fractions import Fraction

import numpy as np
import pytest

import loop_reference as ref
from qmarkov import corpus, props, state
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import ad_channel, conjugation_by
from qmarkov.state import state_from_density

SEEDS = range(10)
TRIALS = (1, 2, 16, 64)
SHAPES = props._ALGEBRA_SHAPES

# every part of a suite that a loop stands in for
_LOOPS = {
    "_unit_laws": lambda: ref.unit_laws(SHAPES),
    "_algebra_laws": lambda rng, trials: ref.algebra_laws(SHAPES, rng, trials),
    "_weakly_multiplicative": ref.weakly_multiplicative,
    "_minimal_supports": ref.minimal_supports,
    "_nullspace_trials": ref.nullspace_trials,
    "_ae_trials": ref.ae_trials,
    "_adjoint_laws": ref.adjoint_laws,
    "_cp_closure": ref.cp_closure,
    "_multiplicative_domain": ref.multiplicative_domain,
    "_invertible_conjugations": ref.invertible_conjugations,
    "_compressions_pass": ref.compressions_pass,
    "_random_star_preserving": ref.random_star_preserving,
    "_random_rational_prob": ref.random_rational_prob,
    "_random_rational_kernel": ref.random_rational_kernel,
}


def _non_associative(real):
    return lambda s, u, v: real(s, u, v) + 0.001 * u


def _non_associative_on_some(real):
    # broken only on products whose left factor has a first coordinate above 2.5 in
    # modulus (about one draw in 23), so which laws fail depends on the drawn instances
    return lambda s, u, v: real(s, u, v) + 0.001 * u * (np.abs(u[..., :1]) > 2.5)


def _run(monkeypatch, suite, seed, trials, loops, verdicts=None, parts=tuple(_LOOPS)):
    """The suite's report and its generator's state at the end, with the stacked
    parts or the loops (of the given parts, the others stacked); the a.e.
    verdicts of the `state-ae` trials are added to the list verdicts, if given."""
    seen = []

    def spy(name, fn):
        def call(*args, **kwargs):
            seen.extend(a for a in args if isinstance(a, np.random.Generator))
            out = fn(*args, **kwargs)
            if verdicts is not None and name == "_ae_trials":
                verdicts.append(out)
            return out
        return call

    with monkeypatch.context() as m:
        for name in parts:
            m.setattr(props, name, spy(name, _LOOPS[name] if loops else getattr(props, name)))
        report = props.run_suite(suite, seed=seed, trials=trials)
    states = {id(g): g.bit_generator.state for g in seen}
    assert len(states) <= 1
    return report.to_dict(), next(iter(states.values()), None)


@pytest.mark.parametrize("suite", ["algebra", "channel", "state-ae", "finstoch"])
@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_suites_match_the_trial_loops(monkeypatch, suite, seed, trials):
    stacked = _run(monkeypatch, suite, seed, trials, loops=False)
    assert stacked == _run(monkeypatch, suite, seed, trials, loops=True)
    assert stacked[1] is not None


@pytest.mark.parametrize("seed", range(10, 200))
def test_state_suite_matches_the_trial_loops_on_more_seeds(monkeypatch, seed):
    # with 4 trials the suite draws its fewest: 8 a.e. trials, 4 of each other loop; the
    # loops of the state trials are the costly ones, the others run stacked on these seeds
    parts, got, want = ("_minimal_supports", "_nullspace_trials", "_ae_trials"), [], []
    stacked = _run(monkeypatch, "state-ae", seed, 4, False, got, parts)
    assert stacked == _run(monkeypatch, "state-ae", seed, 4, True, want, parts)
    assert stacked[1] is not None
    # left and right ae_equal, left and right ae_deterministic, per trial
    (got,), (want,) = got, want
    assert got.shape == (8, 4) and np.array_equal(got, want)


def _flips_left_entries(real):
    # the left side reverses the verdict of every entry whose first operand has a (0, 0)
    # entry above 1.5 in modulus, so it hits some trials of a seed and misses others
    def entries(s, lhs, rhs, tol, proj=None, side="right", unit=1.0):
        fail = real(s, lhs, rhs, tol, proj, side, unit)
        return fail ^ (np.abs(lhs[..., 0]) > 1.5) if side == "left" else fail

    return entries


def _drops_some_supports(real):
    # keeps no eigenvalue of a density whose largest one is above 0.9: the support of
    # most compressions onto one dimension is then 0, and that of other states is kept
    def decompose(herm, tol):
        stacks = real(herm, tol)
        top = alg._fold_max([w[..., 0].max(axis=-1) for w, _, _ in stacks])
        return tuple((w, u, keep & ~(top > 0.9)[..., None, None]) for w, u, keep in stacks)

    return decompose


@pytest.mark.parametrize("owner, attr, fault", [(alg, "failing_entries", _flips_left_entries),
                                                (state, "_decompose", _drops_some_supports)])
def test_state_trials_agree_under_a_fault_on_some_trials(monkeypatch, owner, attr, fault):
    seeds = range(12)
    before = [props._ae_trials(np.random.default_rng(seed), 8) for seed in seeds]
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    flipped, reports = [], set()
    for seed, clean in zip(seeds, before):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        verdicts = props._ae_trials(got, 8)
        assert np.array_equal(verdicts, ref.ae_trials(want, 8))
        assert got.bit_generator.state == want.bit_generator.state
        flipped.extend((verdicts != clean).any(axis=1))
        for name in ("minimal_supports", "nullspace_trials"):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            assert getattr(props, "_" + name)(got, 8) == getattr(ref, name)(want, 8)
            assert got.bit_generator.state == want.bit_generator.state
        stacked = _run(monkeypatch, "state-ae", seed, 4, loops=False)
        assert stacked == _run(monkeypatch, "state-ae", seed, 4, loops=True)
        reports.add(tuple(c["pass"] for c in stacked[0]["checks"]))
    assert 0 < sum(flipped) < len(flipped)   # the fault hits some trials and misses others
    assert len(reports) > 1                   # and so flips some checks of some seeds


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_algebra_laws_agree_under_a_broken_product(monkeypatch, seed, trials):
    monkeypatch.setattr(alg, "_mul_coords", _non_associative(alg._mul_coords))
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    verdicts = props._algebra_laws(got, trials)
    assert verdicts == ref.algebra_laws(SHAPES, want, trials)
    assert got.bit_generator.state == want.bit_generator.state
    # with one trial, the drawn shape may be commutative, where the fault keeps
    # the involution law; associativity fails on every shape
    assert not verdicts[0]
    assert props._unit_laws() == ref.unit_laws(SHAPES) is False


def test_algebra_laws_agree_under_a_fault_on_some_draws(monkeypatch):
    monkeypatch.setattr(alg, "_mul_coords", _non_associative_on_some(alg._mul_coords))
    seen = set()
    for seed in range(40):
        for trials in (1, 2, 3):
            verdicts = props._algebra_laws(np.random.default_rng(seed), trials)
            assert verdicts == ref.algebra_laws(SHAPES, np.random.default_rng(seed), trials)
            seen.add(verdicts)
    assert len(seen) > 2   # the fault hits some draws and misses others


def _padded_support(rng):
    sigma = alg.random_density(AlgebraShape((2,)), rng).blocks[0]
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = sigma
    return state_from_density(AlgElement(AlgebraShape((3,)), (rho,))).support


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_weak_multiplicativity_matches_the_loop(monkeypatch, seed, trials, broken):
    f = corpus.padded_inclusion(2, 3)
    p = _padded_support(np.random.default_rng(seed))
    if broken:
        monkeypatch.setattr(alg, "_mul_coords", _non_associative(alg._mul_coords))
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    verdict = props._weakly_multiplicative(f, p, got, trials)
    assert verdict == ref.weakly_multiplicative(f, p, want, trials) == (not broken)
    if not broken:   # the loop stops drawing at its first failure
        assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("s, t", [((2,), (3,)), ((3,), (2,)), ((1, 2), (2, 1, 1)),
                                  ((4,), (4,))])
@pytest.mark.parametrize("seed", range(50))
def test_star_preserving_part_is_bitwise_the_action(s, t, seed):
    s, t = AlgebraShape(s), AlgebraShape(t)
    got = props._random_star_preserving(s, t, np.random.default_rng(seed)).matrix
    want = ref.random_star_preserving(s, t, np.random.default_rng(seed)).matrix
    # equal bits, the signs of zeros included
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_channel_matrices_are_bitwise_the_constructors(seed):
    # the stacks the channel suite builds from its draws, against one constructor per
    # trial on the same draws: Kraus sums of random CPU maps, conjugations by random
    # unitaries, and compressions, the one-trial call of which is a batch of one
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for n_dom, n_cod in ((2, 3), (3, 2)):
        stacked = props._cpu_matrices(np.array(
            [props._gaussian(got, props._isometry_draw(n_dom, n_cod)) for _ in range(6)]), n_dom)
        loop = [ref.random_cpu_channel(n_dom, n_cod, want).matrix for _ in range(6)]
        assert stacked.tobytes() == np.array(loop).tobytes()
    for n in (2, 3, 4):
        stacked = props._ad_matrix(props._unitaries(np.array(
            [props._gaussian(got, (n, n)) for _ in range(5)])))
        loop = [conjugation_by(AlgElement(AlgebraShape((n,)), (ref.random_unitary(n, want),)))
                .matrix for _ in range(5)]
        assert stacked.tobytes() == np.array(loop).tobytes()
    v = np.linalg.qr(np.array([props._gaussian(got, (5, 2)) for _ in range(5)]))[0]
    pairs = [corpus.compression_pair(2, 5, want) for _ in range(5)]
    assert props._ad_matrix(alg._dagger(v)).tobytes() == np.array(
        [ad_channel(x.conj().T).matrix for x in v]).tobytes()
    for stacked, loop in zip(props._compression_matrices(v), zip(*pairs)):
        assert stacked.tobytes() == np.array([f.matrix for f in loop]).tobytes()
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_state_draws_are_bitwise_the_constructors(seed):
    # the densities and projections of the a.e. trials, built on stacks, against one
    # per-call construction of each on the same draws
    t = AlgebraShape((3,))
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = [(alg._random_coords(t, got), int(got.integers(1, 4)), props._gaussian(got, (3, 3)))
             for _ in range(12)]
    x, keep, gin = (np.array(z) for z in zip(*draws))
    densities = alg._densities(t, x)
    projections = props._leading_projections(props._unitaries(gin), keep)
    for density, projection in zip(densities, projections):
        assert density.tobytes() == alg.vec(ref.random_density(t, want)).tobytes()
        assert projection.tobytes() == ref.random_projection(3, want).tobytes()
    assert got.bit_generator.state == want.bit_generator.state


def test_multiplicative_domain_agrees_under_a_fault_on_some_draws(monkeypatch):
    # the stacked laws report the law of the first failing trial, as the loop that stops
    # there does; the loop draws no more after it, so only the verdicts are compared
    monkeypatch.setattr(alg, "_mul_coords", _non_associative_on_some(alg._mul_coords))
    seen = set()
    for seed in range(40):
        for trials in (1, 2, 4):
            got = props._multiplicative_domain(np.random.default_rng(seed), trials)
            assert got == ref.multiplicative_domain(np.random.default_rng(seed), trials)
            seen.add(got)
    assert len(seen) == 3   # passes, and a failure of either law


@pytest.mark.parametrize("zero_last", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_rational_weights_match_the_fraction_sums(seed, zero_last):
    # the integer weights over their sums, carried, against Fractions over a Fraction sum
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 2, 3, 6) * 8:
        for new, old in ((props._random_rational_kernel(got, n, 3, zero_last),
                          ref.random_rational_kernel(want, n, 3, zero_last)),
                         (props._random_rational_prob(got, n),
                          ref.random_rational_prob(want, n))):
            assert new.exact and old.exact
            assert new.entries.tolist() == old.entries.tolist()
            assert {type(v) for v in new.entries.flat} == {Fraction}
    assert got.bit_generator.state == want.bit_generator.state
