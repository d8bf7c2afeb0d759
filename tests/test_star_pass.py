"""The star test of `is_star_preserving` against its loop, and scaled operands.

`_grid.star_failure` reads F(E_a*) and F(E_a)* for chunks of units and decides
them by `alg.failing_entries`, the one equality rule.  With no support the
rule's first test is max|F(E_a*) - F(E_a)*| <= tol.eq, so a star-preserving
map passes without any norm; only a unit that test declines reaches the cheap
bounds on its scale, and only a unit those leave open the exact norm.  These
tests move one entry of a star-preserving map so that the deviation lands on
either side of tol.eq, on shapes whose columns span several chunks, and
compare the verdict and the witness with `loop_reference.is_star_preserving`.
"""
import json
import warnings

import numpy as np
import pytest

import loop_reference as ref
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape
from qmarkov.channel import (
    Channel,
    is_deterministic,
    is_positive_sampled,
    is_schwarz_sampled,
    is_star_preserving,
)
from qmarkov.state import ae_deterministic, state_from_density
from qmarkov.tolerances import DEFAULT_TOL as TOL

SHAPES = [(2,), (1, 2, 1), (2, 1, 2), (1,) * 5, (12,), (16,)]
DEVIATIONS = [TOL.eq * (1 - 2.0 ** -40), TOL.eq, TOL.eq * (1 + 2.0 ** -40), 2 * TOL.eq]


def _star_preserving(s: AlgebraShape, rng, size: float) -> np.ndarray:
    """A random map of s with D = 0 exactly and every image of Frobenius norm `size`
    at most: (M + J M) / 2 for the involution (J M)[c, a] = conj(M[adj c, adj a])."""
    d = s.coord_dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    adj = alg.adjoint_index(s)
    m = 0.5 * (m + m[np.ix_(adj, adj)].conj())
    return m * (size / np.linalg.norm(m, axis=0).max())


def _move(m: np.ndarray, s: AlgebraShape, c: int, a: int, delta: float) -> np.ndarray:
    """m with |D[c, a]| = delta exactly, and every other entry of D unchanged but that of
    the mirror (adj c, adj a)."""
    adj = alg.adjoint_index(s)
    m = m.copy()
    if (c, adj[a]) == (adj[c], a):   # D[c, a] = 2i Im M[c, a]
        m[c, a] = m[c, a].real + 0.5j * delta
    else:
        m[adj[c], a] = 0.0
        m[c, adj[a]] = delta
    return m


def _key(report):
    witness = report.witness or {}
    return report.verdict, {k: tuple(b.tobytes() for b in v.blocks) for k, v in witness.items()}


def _rule_stages(monkeypatch) -> dict:
    """Counts the calls of the rule's scale bounds (`alg._upper`; with no support the
    first test reads none) and of its exact norms (`alg._op_norm`)."""
    calls = {"bounds": 0, "exact": 0}
    for stage, name in (("bounds", "_upper"), ("exact", "_op_norm")):
        def counting(xs, stage=stage, real=getattr(alg, name)):
            calls[stage] += 1
            return real(xs)
        monkeypatch.setattr(alg, name, counting)
    return calls


def _units(s: AlgebraShape) -> list[tuple[int, int]]:
    """(codomain coordinate, unit) at the first, a middle and the last unit, so the
    moved entry lies in the first chunk of columns and in later ones."""
    d = s.coord_dim
    return [(d - 1, 0), (d // 2, d // 2 + 1 if d > 2 else 1), (0, d - 1)]


@pytest.mark.parametrize("blocks", SHAPES)
def test_moved_entry_agrees_with_the_loop(blocks, monkeypatch):
    s = AlgebraShape(blocks)
    rng = np.random.default_rng(list(blocks))
    base = _star_preserving(s, rng, 0.25)   # every scale is 1: a deviation above tol.eq fails
    calls = _rule_stages(monkeypatch)
    assert is_star_preserving(Channel(s, s, base)).passed and calls == {"bounds": 0, "exact": 0}
    adj = alg.adjoint_index(s)
    for c, a in _units(s):
        for delta in DEVIATIONS:
            m = _move(base, s, c, a, delta)
            dev = np.abs(m[:, adj] - m[alg.adjoint_index(s)].conj()).max()
            assert dev == delta
            before = calls["bounds"]
            got = is_star_preserving(Channel(s, s, m))
            # the bounds run on declined units only, and settle them: every scale is 1
            assert (calls["bounds"] > before) == (delta > TOL.eq) and not calls["exact"]
            assert _key(got) == _key(ref.is_star_preserving(Channel(s, s, m))), (c, a, delta)
            assert got.passed == (delta <= TOL.eq)
            if not got.passed:   # the first of the unit and its mirror
                assert int(np.flatnonzero(alg.vec(got.witness["input"]))[0]) == min(a, adj[a])


@pytest.mark.parametrize("blocks", [(2, 1, 2), (12,), (16,)])
def test_every_unit_is_read(blocks):
    """Units a and adj a see the same deviations and bounds, so a failure is reported at
    the first of the two: moving an entry of column a, for every a <= adj a, must fail
    at a, whichever chunk of columns holds it."""
    s = AlgebraShape(blocks)
    base = _star_preserving(s, np.random.default_rng([5, *blocks]), 0.25)
    adj = alg.adjoint_index(s)
    for a in np.flatnonzero(np.arange(s.coord_dim) <= adj):
        got = is_star_preserving(Channel(s, s, _move(base, s, 0, a, 2 * TOL.eq)))
        assert int(np.flatnonzero(alg.vec(got.witness["input"]))[0]) == a


@pytest.mark.parametrize("blocks", [(2,), (2, 1, 2), (12,)])
def test_a_large_map_passes_in_the_grid(blocks, monkeypatch):
    """Images of norm about 1e3 raise the rule's bound to 1e3 tol.eq: its first test
    declines a deviation of 2 tol.eq, and the bounds on the scale pass it."""
    s = AlgebraShape(blocks)
    rng = np.random.default_rng([3, *blocks])
    m = _move(_star_preserving(s, rng, 1e3), s, 1, 0, 2 * TOL.eq)
    calls = _rule_stages(monkeypatch)
    got = is_star_preserving(Channel(s, s, m))
    assert got.passed and calls["bounds"]
    assert _key(got) == _key(ref.is_star_preserving(Channel(s, s, m)))


@pytest.mark.parametrize("delta", DEVIATIONS)
def test_ae_deterministic_warns_exactly_when_star_fails(delta):
    s = AlgebraShape((2,))
    m = _move(_star_preserving(s, np.random.default_rng(9), 0.25), s, 1, 1, delta)
    omega = state_from_density(alg.random_density(s, np.random.default_rng(10)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        ae_deterministic(Channel(s, s, m), omega, "right")
    warned = [w for w in seen if "non-star-preserving" in str(w.message)]
    assert bool(warned) == (delta > TOL.eq)


def test_a_difference_that_overflows_fails_at_its_unit():
    """F(E12) = 1e308 E12 and F(E21) = -1e308 E21: F(E12*) - F(E12)* = -2e308 E21 would
    overflow; the operands are compared scaled by a power of two, with no warning
    (RuntimeWarnings are errors under pytest)."""
    s = AlgebraShape((2,))
    f = Channel(s, s, np.diag([1.0, 1e308, -1e308, 1.0]))
    e12 = alg.unvec(s, np.eye(4)[1])
    for got in (is_star_preserving(f), is_deterministic(Channel(s, s, f.matrix))):
        assert got.verdict == "fail" and got.witness["input"] == e12


@pytest.mark.parametrize("c", [2.0, 1e120, 1e200, 1e306])
def test_schwarz_gap_of_a_scaled_identity_fails_at_trial_zero(c):
    """F = c id: F(B*B) - ||F(1)|| F(B)* F(B) = (c - c^3) B*B.  The cubic term overflows
    from about 1e103; above 2^250 the gap is decided scaled by a power of two."""
    s = AlgebraShape((2,))
    got = is_schwarz_sampled(Channel(s, s, c * np.eye(4)))
    assert got.verdict == "fail" and got.witness["trial"] == 0
    assert got.witness["reason"] == "Schwarz inequality violated"
    assert ("scale_exponent" in got.witness) == (c > 2.0 ** 250)
    json.dumps(got.to_dict(), allow_nan=False)   # finite JSON


def test_positivity_of_a_huge_identity_passes():
    s = AlgebraShape((4,))
    assert is_positive_sampled(Channel(s, s, 1.7e308 * np.eye(16)), trials=200).passed


def test_a_gap_linear_in_the_scale_fails_at_the_same_trial():
    """F(B) = c (B_11 - B_22) on M_2 into C: F(1) = 0, so the gap is F(B*B) alone and
    scales as c.  Scaled by 2^-s per trial from its larger term, it must fail at the
    same trial for every c, and not vanish against the cubic term's exponent."""
    s, point = AlgebraShape((2,)), AlgebraShape((1,))
    trials = []
    for c in (1.0, 1e100, 1e300):
        got = is_schwarz_sampled(Channel(s, point, c * np.array([[1.0, 0.0, 0.0, -1.0]])))
        assert got.verdict == "fail"
        trials.append(got.witness["trial"])
    assert trials == [trials[0]] * 3
