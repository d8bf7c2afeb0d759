"""Differential oracle: the stacked props trials against one trial per step.

The `algebra`, `state-ae` and `finstoch` suites draw every trial's inputs in
turn and decide each invariant once, on the coordinates of all trials
stacked; `loop_reference.py` keeps the loops that draw and decide one trial
at a time, the star-preserving map built by `channel_from_action` and the
weights normalized by a Fraction sum.  Each suite must leave its generator
in the same state and report the same checks with either, the maps must be
bitwise equal and the weights equal, and the verdicts must agree under a
broken `_mul_coords` too.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import algebra as alg
from qmarkov import corpus, props
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.state import state_from_density

SEEDS = range(10)
TRIALS = (1, 2, 16, 64)
SHAPES = props._ALGEBRA_SHAPES

# every part of a suite that a loop stands in for
_LOOPS = {
    "_unit_laws": lambda: ref.unit_laws(SHAPES),
    "_algebra_laws": lambda rng, trials: ref.algebra_laws(SHAPES, rng, trials),
    "_weakly_multiplicative": ref.weakly_multiplicative,
    "_random_star_preserving": ref.random_star_preserving,
    "_rational_weights": ref.rational_weights,
}


def _non_associative(real):
    return lambda s, u, v: real(s, u, v) + 0.001 * u


def _non_associative_on_some(real):
    # broken only on products whose left factor has a first coordinate above 2.5 in
    # modulus (about one draw in 23), so which laws fail depends on the drawn instances
    return lambda s, u, v: real(s, u, v) + 0.001 * u * (np.abs(u[..., :1]) > 2.5)


def _run(monkeypatch, suite, seed, trials, loops):
    """The suite's report and its generator's state at the end, with the stacked
    parts or the loops."""
    seen = []

    def spy(fn):
        def call(*args):
            seen.extend(a for a in args if isinstance(a, np.random.Generator))
            return fn(*args)
        return call

    with monkeypatch.context() as m:
        for name, loop in _LOOPS.items():
            m.setattr(props, name, spy(loop if loops else getattr(props, name)))
        report = props.run_suite(suite, seed=seed, trials=trials)
    states = {id(g): g.bit_generator.state for g in seen}
    assert len(states) <= 1
    return report.to_dict(), next(iter(states.values()), None)


@pytest.mark.parametrize("suite", ["algebra", "state-ae", "finstoch"])
@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_suites_match_the_trial_loops(monkeypatch, suite, seed, trials):
    stacked = _run(monkeypatch, suite, seed, trials, loops=False)
    assert stacked == _run(monkeypatch, suite, seed, trials, loops=True)
    assert stacked[1] is not None


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


@pytest.mark.parametrize("zero_last", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_rational_weights_match_the_fraction_sums(seed, zero_last):
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 2, 3, 6) * 8:
        assert props._rational_weights(got, n, zero_last) == ref.rational_weights(
            want, n, zero_last)
    assert got.bit_generator.state == want.bit_generator.state
