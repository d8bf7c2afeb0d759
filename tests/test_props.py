import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qmarkov import algebra as alg
from qmarkov import corpus, props
from qmarkov import finstoch as fs
from qmarkov.bayes import verify_disintegration
from qmarkov.channel import (Channel, apply, channel_from_action, is_cp, is_star_preserving,
                             is_unital)
from qmarkov.linalg import pinv_psd
from qmarkov.state import State
from qmarkov.tolerances import DEFAULT_TOL


@pytest.mark.parametrize("name", props.suite_names())
def test_suite_passes_at_default_point(name):
    rep = props.run_suite(name, seed=0, trials=64)
    bad = [(c.desc, c.detail) for c in rep.checks if not c.passed]
    assert not bad, bad


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_every_suite_passes_with_few_trials(seed, trials):
    # some shapes and shape pairs are drawn by no trial, so their stacks are empty
    for rep in props.run_all(seed=seed, trials=trials):
        bad = [(c.desc, c.detail) for c in rep.checks if not c.passed]
        assert not bad, (rep.name, bad)


def test_suites_are_reproducible():
    one = props.run_suite("bayes", seed=0, trials=32)
    two = props.run_suite("bayes", seed=0, trials=32)
    assert one.to_dict() == two.to_dict()


def test_unknown_suite():
    with pytest.raises(KeyError):
        props.run_suite("nope")


def test_instance_families_are_well_formed():
    rng = np.random.default_rng(0)
    for kind in ("unitary", "padded-block", "classical"):
        f, omega, g = props.disintegration_instance(kind, rng)
        for chan in (f, g):
            assert is_cp(chan).passed
            assert is_unital(chan).passed
            assert is_star_preserving(chan).passed
        assert verify_disintegration(f, omega, g).passed


def test_classical_instance_prior_is_the_fraction_sum_prior():
    """The classical family normalizes its integer weights exactly, to the prior that
    `prob_vector` parses from each weight over the Fraction sum, so its maps are those
    of that prior."""
    for seed in range(200):
        f, omega, g = props.disintegration_instance("classical", np.random.default_rng(seed))
        rng = np.random.default_rng(seed)   # the same draws
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        func = [int(rng.integers(0, ny)) for _ in range(nx)]
        weights = [Fraction(int(w)) for w in rng.integers(0, 9, size=nx)]
        if not sum(weights):
            weights[0] = Fraction(1)
        p = fs.prob_vector([w / sum(weights) for w in weights])
        q = fs.ProbVector._normalized(np.array([int(w) for w in weights]))
        assert (q._den, q._num.dtype, q._num.tolist()) == (p._den, p._num.dtype, p._num.tolist())
        kern = fs.deterministic_kernel(lambda x: func[x], nx, ny)
        assert np.array_equal(f.matrix, fs.embed(kern).matrix)
        assert np.array_equal(alg.vec(omega.density), alg.vec(fs.embed_prob(p).density))
        assert np.array_equal(g.matrix, fs.embed(fs.bayes_inverse(kern, p)).matrix)


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


def _scaled(f, c=1.0001):
    return Channel(f.domain, f.codomain, c * f.matrix)


def _scale_output(real):
    return lambda *args, **kwargs: _scaled(real(*args, **kwargs))


def _scale_candidate(real, only_completed=False):
    def candidate(prob, *args, **kwargs):
        result = real(prob, *args, **kwargs)
        if only_completed and kwargs.get("completion") is None:
            return result
        return dataclasses.replace(result, candidate=_scaled(result.candidate))

    return candidate


def _zero_star_preserving(real):
    return lambda s, t, rng: Channel(s, t, np.zeros((t.coord_dim, s.coord_dim)))


def _non_associative(real):
    return lambda s, u, v: real(s, u, v) + 0.001 * u


def _scale_element(real):
    return lambda *args: real(*args) * 1.0001


def _scale_matrices(real):
    return lambda *args: real(*args) * 1.0001


def _negate_matrices(real):
    return lambda *args: -real(*args)


def _scale_up_matrices(real):
    def pair(*args):
        down, up = real(*args)
        return down, up * 1.0001

    return pair


def _left_ignores_support(real):
    # the left ae_equal verdicts decide plain equality, as on a faithful state
    def failures(s, left, right, tol, supports=None, side="right"):
        if side == "left":
            supports = [alg.unit(s)] * len(left)
        return real(s, left, right, tol, supports, side)

    return failures


def _equal_pair(real):
    def pair(*args):
        f, _ = real(*args)
        return f, f

    return pair


def _off_support_tail(real):
    # F + (.)(1 - P) for the support P of omega on the codomain: omega(A F(B)) and
    # omega o F stay as they are, so the Bayes condition still holds one way, but not the
    # other way round, where omega(F(A) B) picks up the tail
    def instance(*args, **kwargs):
        f, omega, g = real(*args, **kwargs)
        if f.domain != f.codomain:
            return f, omega, g
        comp = alg.unit(omega.shape) - omega.support
        return channel_from_action(f.domain, f.codomain,
                                   lambda b: apply(f, b) + alg.mul(b, comp)), omega, g

    return instance


def _scale_entries(real):
    return lambda *args: dataclasses.replace(
        r := real(*args), entries=r.entries * Fraction(10001, 10000))


def _reverse_entries(real):
    # the pushforward puts the mass of each outcome on its mirror
    return lambda *args: dataclasses.replace(r := real(*args), entries=r.entries[::-1])


def _everywhere_null(real):
    return lambda p, tol=DEFAULT_TOL: list(range(p.size))


def _support_zero(real):
    return property(lambda omega: alg.zero(omega.shape))


def _scale_instance_inverse(real):
    def instance(*args, **kwargs):
        f, omega, g = real(*args, **kwargs)
        return f, omega, _scaled(g)

    return instance


def _target(name):
    owner, _, attr = name.rpartition(".")
    return {"": props, "algebra": alg, "corpus": corpus, "State": State, "finstoch": fs,
            "ProbVector": fs.ProbVector}[owner], attr


# (suite, check, ingredient, mutation): each check of a suite must report a
# failure once the ingredient it tests is broken
_MUTATIONS = [
    ("matrix-kernel", "eigendecomposition reconstructs Hermitian inputs", "herm_eig",
     lambda real: lambda h: (real(h)[0] * 1.0001, real(h)[1])),
    ("matrix-kernel", "eigenvector matrices are unitary", "herm_eig",
     lambda real: lambda h: (real(h)[0], real(h)[1] * 1.0001)),
    ("matrix-kernel", "pseudo-inverse satisfies the Moore-Penrose identities", "pinv_psd",
     lambda real: lambda a: real(a) * 1.0001),
    # the smallest singular value is supermultiplicative
    ("matrix-kernel", "operator norm is submultiplicative", "op_norm",
     lambda real: lambda x: np.linalg.norm(x, -2)),
    ("algebra", "unit laws hold exactly on matrix units", "algebra.unit", _scale_element),
    # the product kernel of `mul` and of the stacked trials
    ("algebra", "multiplication is associative on random elements", "algebra._mul_coords",
     _non_associative),
    ("algebra", "involution reverses products", "algebra._mul_coords", _non_associative),
    ("algebra", "tensor of elements is multiplicative", "algebra._mul_coords",
     _non_associative),
    ("algebra", "involution is involutive", "algebra.adjoint", _scale_element),
    ("algebra", "multiplication map reaches norm n on the unit-norm witness", "corpus._a_n",
     lambda real: lambda n: real(n) * 1.0001),
    # the suite's parts build the stacked matrices of all trials: the adjoints, tensor
    # products, conjugations, inverses and compression pairs of `_hs_adjoints`,
    # `_tensor_matrix`, `_ad_matrix`, `_inverses` and `_compression_matrices`
    ("channel", "Hilbert-Schmidt adjoint is involutive and dual to the pairing", "_hs_adjoints",
     _scale_matrices),
    # the transpose without conjugation is involutive, but not dual to the pairing
    ("channel", "Hilbert-Schmidt adjoint is involutive and dual to the pairing", "_hs_adjoints",
     lambda real: lambda m: m.swapaxes(-1, -2)),
    ("channel", "adjoint reverses composition", "_hs_adjoints", _scale_matrices),
    ("channel", "CP is closed under composition and tensor", "_tensor_matrix", _negate_matrices),
    ("channel", "one multiplicative input extends to all mixed products", "_ad_matrix",
     _scale_matrices),
    ("channel", "invertible conjugations are deterministic", "_inverses", _scale_matrices),
    ("channel", "transpose is invertible yet not deterministic, consistent with failing Schwarz",
     "invert", _scale_output),
    # the scaled composite of the compression pair is not multiplicative
    ("channel", "S-positivity equation holds for CPU compressions and fails for the transpose",
     "_compression_matrices", _scale_up_matrices),
    ("state-ae", "support is dominated by any projection carrying the state", "State.support",
     _support_zero),
    ("state-ae", "right-multiplying into the support complement lands in the nullspace",
     "State.support", _support_zero),
    # the a.e. checks of all trials at once
    ("state-ae", "left and right verdicts agree for star-preserving channels", "equal_failure",
     _left_ignores_support),
    ("state-ae", "single-variable multiplicativity on the support upgrades to two variables",
     "padded_inclusion", _scale_output),
    ("state-ae", "doubling breaks a.e. equality on the corner state", "doubling_pair",
     _equal_pair),
    ("bayes", "Bayes candidates of CPU channels pass the left condition and preserve states",
     "bayes_candidate", _scale_candidate),
    ("bayes", "two completions of the Bayes candidate are left a.e. equal", "bayes_candidate",
     lambda real: _scale_candidate(real, only_completed=True)),
    ("bayes", "Bayes maps of a.e. deterministic channels disintegrate them", "bayes_candidate",
     _scale_candidate),
    ("bayes", "relative conditional expectation holds on disintegration instances",
     "disintegration_instance", _scale_instance_inverse),
    # with no shift off the support the candidates stay right a.e. equal
    ("bayes", "left Bayes maps report one-sided: left a.e. equal yet right-separated, "
     "a.e. unital without unitality", "_random_star_preserving", _zero_star_preserving),
    # both candidates scaled: the joint one twice, the composite channel not at all
    ("bayes", "Bayes candidates compose along composable problems", "bayes_candidate",
     _scale_candidate),
    ("bayes", "star-preserving Bayesian inverses invert symmetrically",
     "disintegration_instance", _off_support_tail),
    ("bayes", "one vanishing Schwarz gap extends to mixed products under the state",
     "padded_inclusion", _scale_output),
    ("finstoch", "Bayes diagram holds exactly in rational arithmetic", "finstoch.bayes_inverse",
     _scale_entries),
    # the diagram is read off the q that push gives, not recomputed
    ("finstoch", "Bayes diagram holds exactly in rational arithmetic", "finstoch.push",
     _reverse_entries),
    ("finstoch", "Bayes inverse pushes the output measure back to the input", "finstoch.push",
     _reverse_entries),
    # zeroing the columns on the support breaks a.e. unitality
    ("finstoch", "denormalized null columns stay a.e. unital", "ProbVector.nullset",
     _everywhere_null),
    ("finstoch", "embedding reverses composition (contravariant functor)", "compose",
     _scale_output),
    ("finstoch", "quantum Bayes candidate matches the classical inverse on the support",
     "bayes_candidate", _scale_candidate),
]


@pytest.mark.parametrize("suite, desc, ingredient, mutation", _MUTATIONS)
def test_every_check_fails_on_a_mutated_ingredient(monkeypatch, suite, desc, ingredient,
                                                   mutation):
    owner, attr = _target(ingredient)
    real = getattr(props, attr) if owner is props else owner.__dict__[attr]
    monkeypatch.setattr(owner, attr, mutation(real))
    checks = {c.desc: c for c in props.run_suite(suite, seed=0, trials=16).checks}
    assert not checks[desc].passed, checks[desc]


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("suite", props.suite_names())
def test_suites_reject_fewer_than_one_trial(suite, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        props.run_suite(suite, seed=0, trials=trials)


def test_drawing_instances_and_the_state_ae_suite_leave_numpy_ma_unloaded():
    """numpy's `unique` loads numpy.ma on first use; the suites count columns without it."""
    code = ("import sys, numpy as np; from qmarkov import props; "
            "props.disintegration_instance('unitary', np.random.default_rng(0)); "
            "assert props.run_suite('state-ae', 0, 16).passed; "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(props.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False"]
