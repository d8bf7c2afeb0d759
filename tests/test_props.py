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


@pytest.mark.parametrize("seed", [23, 109])
def test_matrix_kernel_suite_passes_on_ill_conditioned_draws(seed):
    # these seeds draw matrices whose Moore-Penrose residuals exceeded 1e-10
    # when measured against ||A|| or ||A+|| alone
    rep = props.run_suite("matrix-kernel", seed=seed, trials=64)
    bad = [(c.desc, c.detail) for c in rep.checks if not c.passed]
    assert not bad, bad


def test_moore_penrose_check_still_catches_a_wrong_eigenvalue():
    import numpy as np

    from qmarkov.linalg import pinv_psd

    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        psd = m.conj().T @ m
        if np.linalg.cond(psd) < 1e3:
            break
    else:
        raise AssertionError("no well-conditioned draw")
    assert props.moore_penrose_deviation(psd, pinv_psd(psd)) <= 1e-10
    w, u = np.linalg.eigh(psd)
    for k in range(n):
        inv = 1.0 / w
        inv[k] /= 1 + 1e-3   # one eigenvalue of the pseudo-inverse off by 1e-3
        wrong = (u * inv) @ u.conj().T
        assert props.moore_penrose_deviation(psd, wrong) > 1e-10, k
