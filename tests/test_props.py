import pytest

from qmarkov import props


@pytest.mark.parametrize("name", props.suite_names())
def test_suite_passes_at_default_point(name):
    rep = props.run_suite(name, seed=0, trials=64)
    bad = [(c.desc, c.detail) for c in rep.checks if not c.passed]
    assert not bad, bad


def test_suites_are_reproducible():
    one = props.run_suite("bayes", seed=0, trials=32)
    two = props.run_suite("bayes", seed=0, trials=32)
    assert one.to_dict() == two.to_dict()


def test_unknown_suite():
    with pytest.raises(KeyError):
        props.run_suite("nope")


def test_instance_families_are_well_formed():
    import numpy as np

    from qmarkov.bayes import verify_disintegration
    from qmarkov.channel import is_cp, is_star_preserving, is_unital

    rng = np.random.default_rng(0)
    for kind in ("unitary", "padded-block", "classical"):
        f, omega, g = props.disintegration_instance(kind, rng)
        for chan in (f, g):
            assert is_cp(chan).passed
            assert is_unital(chan).passed
            assert is_star_preserving(chan).passed
        assert verify_disintegration(f, omega, g).passed


@pytest.mark.parametrize("seed", [25, 61, 80, 119, 796927463])
def test_bayes_suite_sees_a_deficient_prior_on_every_seed(seed):
    # on these seeds every drawn prior of the one-sided check is faithful
    rep = props.run_suite("bayes", seed=seed, trials=64)
    bad = [(c.desc, c.detail) for c in rep.checks if not c.passed]
    assert not bad, bad
