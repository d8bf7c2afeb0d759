"""Differential oracle: the closed-form basis checks against their loops.

Every check that `qmarkov._grid` decides must give the same verdict and the
same witness units as its loop in `loop_reference.py`.  The inputs are the
three disintegration instance families, plain and perturbed by Gaussian
noise around the equality threshold, random CPU channels, and the corpus
channels.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import _grid, corpus, props
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.bayes import bayes_problem, petz_exists, verify_disintegration
from qmarkov.channel import (
    Channel,
    apply,
    channel_from_action,
    is_deterministic,
    is_star_preserving,
    mult_map,
    s_positivity_equation,
    transpose_channel,
)
from qmarkov.errors import QmarkovError
from qmarkov.state import ae_deterministic, ae_equal, state_from_density

pytestmark = pytest.mark.filterwarnings("ignore:ae_deterministic called")

NOISE = (1e-3, 1e-7, 1e-9, 5e-10, 1e-10)


def _outcome(check, args):
    """The report, or the type of the error the check raised."""
    try:
        return check(*args)
    except (QmarkovError, ValueError) as exc:
        return type(exc)


def _key(outcome):
    """Verdict and witness, units and indices compared exactly."""
    if isinstance(outcome, type):
        return outcome
    items = []
    for name, value in sorted((outcome.witness or {}).items()):
        if isinstance(value, AlgElement):
            items.append((name, tuple(b.tobytes() for b in value.blocks)))
        elif name not in ("lhs", "rhs"):   # floating values of the witness
            items.append((name, value))
    return outcome.prop, outcome.verdict, tuple(items)


def _comparisons(f, omega, g=None, base=None):
    """(name, fast check, loop check, arguments) for one instance."""
    yield "star", is_star_preserving, ref.is_star_preserving, (f,)
    yield "det", is_deterministic, ref.is_deterministic, (f,)
    for side in ("left", "right"):
        yield f"ae-det-{side}", ae_deterministic, ref.ae_deterministic, (f, omega, side)
        if base is not None:
            yield f"ae-equal-{side}", ae_equal, ref.ae_equal, (f, base, omega, side)
    if g is None:
        return
    yield "s-pos", s_positivity_equation, ref.s_positivity_equation, (f, g)
    yield "s-pos-reverse", s_positivity_equation, ref.s_positivity_equation, (g, f)
    yield "disint", verify_disintegration, ref.verify_disintegration, (f, omega, g)
    try:
        prob = bayes_problem(f, omega)
    except QmarkovError:
        return
    yield "petz", petz_exists, ref.petz_exists, (prob,)


def _mismatches(cases):
    found, compared = [], 0
    for label, f, omega, g, base in cases:
        for name, fast, slow, args in _comparisons(f, omega, g, base):
            got, want = _key(_outcome(fast, args)), _key(_outcome(slow, args))
            compared += 1
            if got != want:
                found.append((label, name, got, want))
    return found, compared


def _perturbed(f: Channel, eps: float, rng, star: bool = False) -> Channel:
    """f plus complex Gaussian noise of size eps; with star, the noise is
    symmetrized into a star-preserving map, so pullback states stay valid."""
    shape = f.matrix.shape
    noise = Channel(f.domain, f.codomain,
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if star:
        noise = channel_from_action(
            f.domain, f.codomain,
            lambda b, n=noise: 0.5 * (apply(n, b) + alg.adjoint(apply(n, alg.adjoint(b)))))
    return Channel(f.domain, f.codomain, f.matrix + eps * noise.matrix)


@pytest.fixture
def exact_norms(monkeypatch):
    """Counts the entries that needed an exact operator norm."""
    seen = []
    exact = _grid._op_norm

    def counting(xs):
        seen.append(len(xs[0]))
        return exact(xs)

    monkeypatch.setattr(_grid, "_op_norm", counting)
    return seen


def test_instance_families_agree_with_loops(exact_norms):
    rng = np.random.default_rng(20250)
    cases = []
    for kind in ("unitary", "padded-block", "classical"):
        for i in range(3):
            f, omega, g = props.disintegration_instance(kind, rng, max_dim=6)
            cases.append((f"{kind}-{i}", f, omega, g, None))
            for eps in NOISE:
                for star in (False, True):
                    cases.append((f"{kind}-{i}-{eps:g}-{star}", _perturbed(f, eps, rng, star),
                                  omega, _perturbed(g, eps, rng, star), f))
    found, compared = _mismatches(cases)
    assert found == [], found
    assert compared > 900
    assert sum(exact_norms) > 0   # near-threshold entries reached the exact norm


def test_random_cpu_channels_agree_with_loops():
    rng = np.random.default_rng(7)
    cases = []
    for n_dom, n_cod in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        f = props.random_cpu_channel(n_dom, n_cod, rng)
        g = props.random_cpu_channel(n_cod, n_dom, rng)
        for full in (True, False):
            omega = props.random_rank_deficient_state(f.codomain, rng, full=full)
            cases.append((f"cpu-{n_dom}-{n_cod}-{full}", f, omega, g, None))
            for eps in NOISE:
                cases.append((f"cpu-{n_dom}-{n_cod}-{full}-{eps:g}",
                              _perturbed(f, eps, rng, star=True), omega,
                              _perturbed(g, eps, rng, star=True), f))
    found, compared = _mismatches(cases)
    assert found == [], found
    assert compared > 500


def _corpus_channels():
    rng = np.random.default_rng(3)
    m2 = AlgebraShape((2,))
    _, _, kl_f, kl_g = corpus.kl_channels(0.5)
    doubling = corpus.doubling_pair(0.5)
    unreasonable = corpus.unreasonable_pair()
    spos_f, spos_g, _ = corpus.strict_positivity_triple()
    down, up = corpus.compression_pair(2, 3, rng)
    return [
        ("knill-laflamme", kl_f, kl_g),
        ("doubling", doubling[0], doubling[1]),
        ("doubling-reverse", doubling[1], doubling[0]),
        ("unreasonable", unreasonable[0], None),
        ("strict-pos-f", spos_f, None),
        ("strict-pos-g", spos_g, None),
        ("compression", down, up),
        ("padded-inclusion", corpus.padded_inclusion(2, 3), None),
        ("epr", corpus.epr_conditional()[0], None),
        ("transpose", transpose_channel(m2), transpose_channel(m2)),
        ("mult", mult_map(m2), None),
    ], rng


def test_corpus_channels_agree_with_loops():
    channels, rng = _corpus_channels()
    cases = []
    for label, f, g in channels:
        for full in (True, False):
            omega = props.random_rank_deficient_state(f.codomain, rng, full=full)
            cases.append((f"{label}-{full}", f, omega, g, None))
    corner = state_from_density(AlgElement(AlgebraShape((2,)), (np.diag([1.0, 0.0]),)))
    cases.append(("transpose-corner", transpose_channel(AlgebraShape((2,))), corner,
                  transpose_channel(AlgebraShape((2,))), None))
    found, compared = _mismatches(cases)
    assert found == [], found
    assert compared > 100
