import re
from pathlib import Path

import numpy as np
import pytest

import loop_reference as ref
from qmarkov import corpus, props
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import (Channel, compose, conjugation_by, identity_channel, is_unital,
                             transpose_channel)
from qmarkov.errors import UnknownFixture


def test_registry_contents():
    names = corpus.registry_names()
    expected = {
        "hamming-7-4", "knill-laflamme", "transpose-spos", "mu-norm", "no-broadcast",
        "left-right-ae", "doubling-ae", "pad-ae-det", "not-det-reasonable",
        "transpose-bayes", "strict-pos", "pu-not-causal", "epr",
    }
    assert expected == set(names)


@pytest.mark.parametrize("name", corpus.registry_names())
def test_fixture_passes(name):
    report = corpus.counterexample(name).run()
    failures = [c for c in report.checks if not c.passed]
    assert not failures, failures


def test_fixtures_are_deterministic():
    first = corpus.counterexample("knill-laflamme").run()
    second = corpus.counterexample("knill-laflamme").run()
    assert first.to_dict() == second.to_dict()


def test_unknown_fixture_raises():
    with pytest.raises(UnknownFixture):
        corpus.counterexample("nosuch")


def test_hamming_codec_exhaustively():
    # oracle: brute force over all messages and all single-bit errors
    for x in range(16):
        y = corpus.hamming_encode(x)
        assert corpus.hamming_decode(y) == x
        for i in range(7):
            assert corpus.hamming_decode(y ^ (1 << i)) == x


def test_hamming_factory_runs():
    assert corpus.counterexample("hamming-7-4").run().passed


def test_kl_factory_accepts_gamma():
    assert corpus.knill_laflamme(0.25).run().passed


def test_kl_gamma_zero_degenerates_to_one_kraus_term():
    errs = corpus._kl_errors(0.0)
    assert np.allclose(errs[0], np.eye(8))
    for e in errs[1:]:
        assert np.max(np.abs(e)) <= 1e-12


def test_epr_solution_form():
    chan, residual = corpus.epr_conditional()
    assert residual <= 1e-12
    # unique solution conjugates the transpose by the spin flip
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    from qmarkov.algebra import AlgebraShape, AlgElement
    from qmarkov.channel import apply
    rng = np.random.default_rng(0)
    for _ in range(4):
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = apply(chan, AlgElement(AlgebraShape((2,)), (b,))).blocks[0]
        assert np.allclose(got, j @ b.T @ j.conj().T, atol=1e-10)


def test_epr_system_matches_the_loop():
    """Assembled by index, the system holds the floats of one trace per entry, so the
    solution, its residual and the fixture's details keep their bits."""
    coeff, rhs = corpus._epr_system()
    want_coeff, want_rhs = ref.epr_system()
    assert np.array_equal(coeff, want_coeff) and np.array_equal(rhs, want_rhs)


KL_GAMMAS = (0.0, 0.25, 0.5, 1.0)


def _sampled_checks(checks):
    return [c for c in checks if c.desc.startswith("error disintegrates recovery")]


def _dicts(rows):
    return [[r.to_dict() for r in row] for row in rows]


@pytest.mark.parametrize("n_states, seed", [(8, 0), (3, 5), (0, 0)])
def test_kl_sweep_matches_the_loop(n_states, seed):
    """Decided as one stack, every sampled state of every strength gets the report of its
    own calls, and the fixture the loop's checks."""
    pairs = [corpus.kl_channels(gamma)[2:] for gamma in KL_GAMMAS]
    assert _dicts(corpus._kl_reports(pairs, n_states, seed)) == \
        _dicts(ref.kl_reports(pairs, n_states, seed))
    checks = corpus._build_kl(KL_GAMMAS, n_states, seed)
    assert len(checks) == 7 * len(KL_GAMMAS)
    assert _sampled_checks(checks) == ref.kl_sampled_checks(KL_GAMMAS, n_states, seed)
    assert all(c.passed for c in checks)


def test_kl_recovery_is_built_once_per_sweep(monkeypatch):
    """The recovery side does not depend on the strength: the sweep builds it once,
    and every channel is bitwise the one built for its strength alone."""
    built, real = [], corpus._kl_recovery

    def recovery():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(corpus, "_kl_recovery", recovery)
    corpus._build_kl(KL_GAMMAS, n_states=1)
    assert len(built) == 1
    for gamma in KL_GAMMAS:
        alone, shared = corpus.kl_channels(gamma), corpus._kl_channels(gamma, built[0])
        for a, b in zip(alone, shared):
            assert a.matrix.tobytes() == b.matrix.tobytes() and a.matrix.strides == b.matrix.strides


def test_kl_broken_recovery_flips_only_its_own_sampled_check(monkeypatch):
    """The recovery at gamma = 0.5 followed by a unitary conjugation of M_2 no longer
    preserves the sampled states; the other strengths still pass."""
    real = corpus._kl_channels
    m2 = AlgebraShape((2,))
    twist = conjugation_by(AlgElement(m2, (props.random_unitary(2, np.random.default_rng(7)),)))

    def channels(gamma, recovery):
        chan_e, chan_r, f, g = real(gamma, recovery)
        return chan_e, chan_r, f, compose(g, twist) if gamma == 0.5 else g

    monkeypatch.setattr(corpus, "_kl_channels", channels)
    sampled = _sampled_checks(corpus._build_kl(KL_GAMMAS))
    assert sampled == ref.kl_sampled_checks(KL_GAMMAS)
    assert [c.passed for c in sampled] == [gamma != 0.5 for gamma in KL_GAMMAS]
    # the witnesses of the broken strength name each state's own failing unit and values
    pairs = [corpus.kl_channels(gamma)[2:] for gamma in KL_GAMMAS]
    got = corpus._kl_reports(pairs, 8, 0)
    assert _dicts(got) == _dicts(ref.kl_reports(pairs, 8, 0))
    assert all("state preservation" in r.detail for r in got[2])


def _scaled(f, c=1.0001):
    return Channel(f.domain, f.codomain, c * f.matrix)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("scaled, descs", [
    (0, ["error channel is unital", "F o G = id on M_2"]),
    (1, ["sum R_i* R_i = 1", "F o G = id on M_2"]),
])
def test_kl_checks_fail_on_scaled_kraus_operators(monkeypatch, gamma, scaled, descs):
    # the error operators of one strength, or the recovery operators of all
    name = ("_kl_errors", "_kl_code")[scaled]
    real = getattr(corpus, name)

    def operators(*args):
        ops = real(*args)
        if scaled:
            return [1.0001 * k for k in ops[0]], ops[1]
        return [1.0001 * k for k in ops]

    chan_e, chan_r, _, _ = corpus.kl_channels(gamma)
    assert is_unital(chan_e).passed and is_unital(chan_r).passed
    monkeypatch.setattr(corpus, name, operators)
    # no sampled states: the scaled error map no longer pulls states back to states
    checks = {c.desc: c.passed for c in corpus._build_kl((gamma,), n_states=0)}
    for desc in descs:
        assert not checks[f"{desc} (gamma={gamma})"], desc


def _zero_map(s):
    return Channel(s, s, np.zeros((s.coord_dim, s.coord_dim)))


def _scale_second(real):
    def triple():
        f, g, xi = real()
        return f, _scaled(g), xi

    return triple


def _scale_solution(real):
    def solve():
        chan, residual = real()
        return _scaled(chan), residual + 0.001   # and a residual far off the solution

    return solve


# (fixture, checks, ingredient, mutation): each check of a fixture must fail
# once the ingredient it tests is broken
_MUTATIONS = [
    ("transpose-spos", ["transpose squared is the identity"], "transpose_channel",
     lambda real: lambda s: _scaled(real(s))),
    ("mu-norm", [f"||A({n})|| = 1" for n in range(2, 9)]
     + [f"||mu_{n}(A({n}))|| = {n}" for n in range(2, 9)], "_a_n",
     lambda real: lambda n: real(n) * 1.0001),
    ("strict-pos", ["mirrored equation holds in this example"], "strict_positivity_triple",
     _scale_second),
    # with the identity in place of the transpose the hypothesis reads the projection
    ("pu-not-causal", ["causality hypothesis holds: F G (A H(B)) = F G (A K(B))"],
     "transpose_channel", lambda real: corpus.identity_channel),
    ("pu-not-causal", ["causality conclusion fails once C is inserted"], "transpose_channel",
     lambda real: _zero_map),
    # a faint transpose breaks the conclusion only by 7.5e-7: above rounding, below the
    # designed separation
    ("pu-not-causal", ["causality conclusion fails once C is inserted"], "transpose_channel",
     lambda real: lambda s: _scaled(real(s), 1e-5)),
    ("epr", ["joint-state equation solved with tiny residual",
             "solution is the spin-flip conjugated transpose",
             "Choi eigenvalues are -1 and +1 (multiplicities 1 and 3)"], "epr_conditional",
     _scale_solution),
]


@pytest.mark.parametrize("name, descs, ingredient, mutation", _MUTATIONS)
def test_every_check_fails_on_a_mutated_ingredient(monkeypatch, name, descs, ingredient,
                                                   mutation):
    monkeypatch.setattr(corpus, ingredient, mutation(getattr(corpus, ingredient)))
    checks = {c.desc: c for c in corpus.counterexample(name).run().checks}
    for desc in descs:
        assert not checks[desc].passed, checks[desc]


def _close(got, want):
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


def _projection(n: int, rank: int, rng) -> np.ndarray:
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    return v @ v.conj().T


def _strict_positivity_instances():
    """(label, F, G, P): the fixture, its mutation, and random CPU maps M_2 -> M_4 -> M_3."""
    f, g, xi = corpus.strict_positivity_triple()
    yield "fixture", f, g, xi.support
    yield "scaled G", f, _scaled(g), xi.support
    # maxima tied across rows and columns: the witness is the first in (a, b) order
    yield "transposed G", f, compose(g, transpose_channel(f.codomain)), xi.support
    rng = np.random.default_rng(17)
    m3 = AlgebraShape((3,))
    for i in range(6):
        f, g = props.random_cpu_channel(2, 4, rng), props.random_cpu_channel(4, 3, rng)
        yield f"random {i}", f, g, AlgElement(m3, (_projection(3, 1 + i % 3, rng),))


def _causality_instances():
    """(label, H, K, G, P): the fixture, its mutations, and random CPU maps M_3 -> M_2."""
    h, k = corpus._causality_pair()
    m2, proj = AlgebraShape((2,)), corpus._CAUSAL_PROJ
    t = transpose_channel(m2)
    for label, g in (("fixture", t), ("identity", identity_channel(m2)),
                     ("zero", _zero_map(m2)), ("faint", _scaled(t, 1e-5))):
        yield label, h, k, g, proj
    rng = np.random.default_rng(23)
    for i in range(6):
        h, k = props.random_cpu_channel(3, 2, rng), props.random_cpu_channel(3, 2, rng)
        g = props.random_cpu_channel(2, 2, rng) if i % 2 else t
        yield f"random {i}", h, k, g, _projection(2, 1, rng)


@pytest.mark.parametrize("label, f, g, p", list(_strict_positivity_instances()))
def test_strict_positivity_grid_matches_the_loop(label, f, g, p):
    direct, witness, mirror = corpus._strict_positivity_violations(f, g, p)
    want_direct, want_witness, want_mirror = ref.strict_positivity_violations(f, g, p)
    assert _close(direct, want_direct) and _close(mirror, want_mirror)
    assert witness == want_witness
    assert f"max violation {direct:.3f}" == f"max violation {want_direct:.3f}"
    assert f"max deviation {mirror:.3g}" == f"max deviation {want_mirror:.3g}"


@pytest.mark.parametrize("label, h, k, g, proj", list(_causality_instances()))
def test_causality_grid_matches_the_loop(label, h, k, g, proj):
    hyp, conc, witness = corpus._causality_violations(h, k, g, proj)
    want_hyp, want_conc, want_witness = ref.causality_violations(h, k, g, proj)
    assert _close(hyp, want_hyp) and _close(conc, want_conc)
    assert witness == want_witness
    assert f"max deviation {hyp:.3g}" == f"max deviation {want_hyp:.3g}"
    assert f"max violation {conc:.4f}" == f"max violation {want_conc:.4f}"


def test_grid_fixture_details_are_pinned():
    details = {(name, c.desc): c.detail for name in ("strict-pos", "pu-not-causal")
               for c in corpus.counterexample(name).run().checks}
    assert details["strict-pos", "strict-positivity equation fails"] == "max violation 1.000"
    assert details["strict-pos", "mirrored equation holds in this example"] == "max deviation 0"
    hypothesis = "causality hypothesis holds: F G (A H(B)) = F G (A K(B))"
    assert details["pu-not-causal", hypothesis] == "max deviation 0"
    assert (details["pu-not-causal", "causality conclusion fails once C is inserted"]
            == "max violation 0.0750")


_COMPARISON = re.compile(r"<=|>=|(?<![<>-])[<>](?![<>=])|\batol\s*=")
_EXPONENT_LITERAL = re.compile(r"\b\d+(\.\d*)?e-\d+")


def _threshold_literals(source: str) -> list[str]:
    """The lines of source that compare against a literal with a negative exponent."""
    return [line.strip() for line in source.splitlines()
            if _COMPARISON.search(line) and _EXPONENT_LITERAL.search(line)]


def test_threshold_guard_sees_every_comparison_form():
    for bad in ("x <= 1e-9", "x < 2.5e-10 * s", "1e-12 >= x", "x > 1e-3", "if y>1e-8:",
                "np.isclose(a, b, atol=1e-9)"):
        assert _threshold_literals(bad), bad
    for fine in ("x <= tol.eq * tol.scale(n)", "y > 0.1", "z = 1e-9", "v >> 1",
                 "def f() -> float:", "f'{x:.3e}'"):
        assert not _threshold_literals(fine), fine


@pytest.mark.parametrize("module", ["props", "corpus"])
def test_no_bare_threshold_literals(module):
    # every pass/fail decision goes through a verifier or the one Tolerance
    path = Path(__file__).resolve().parents[1] / "src" / "qmarkov" / f"{module}.py"
    assert _threshold_literals(path.read_text()) == []
