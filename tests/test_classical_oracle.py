"""The classical subcategory as an independent oracle for the quantum verifiers.

A kernel f from X to Y embeds (`fs.embed`) as a channel C^Y ~> C^X between
commutative algebras, and a prior p on X (`fs.embed_prob`) as a diagonal state
on C^X.  There each quantum verdict has a classical reading that `finstoch`
decides exactly on the kernel's fractions:
- F is deterministic iff every column of f is a 0/1 indicator;
- F is a.e. deterministic for p, on either side, iff every column at a point
  of positive weight is an indicator;
- F and H are a.e. equal for p, on either side, iff f and h agree on every
  such column;
- the support of p's state is zero exactly on the nullset of p.
The random kernels and priors hold entries 0 or at least 1/64, so no verdict
sits within tol.eq of its bound and the two readings must agree.  The (7,4)
Hamming kernels of the corpus are checked the same way.
"""
from fractions import Fraction

import numpy as np
import pytest

from qmarkov import algebra as alg
from qmarkov import corpus
from qmarkov import finstoch as fs
from qmarkov.channel import is_deterministic
from qmarkov.state import ae_deterministic, ae_equal

SIDES = ("left", "right")


def _column(rng, n: int, indicator: bool) -> list[Fraction]:
    """A random distribution on n points with denominator at most 64, or a point mass."""
    if indicator:
        counts, den = np.eye(n, dtype=int)[rng.integers(n)], 1
    else:
        den = int(rng.integers(2, 65))
        counts = rng.multinomial(den, rng.dirichlet(np.ones(n)))
    return [Fraction(int(c), den) for c in counts]


def _kernel(columns: list[list[Fraction]]) -> fs.StochasticMatrix:
    return fs.stochastic([list(row) for row in zip(*columns)])


def _instance(rng):
    """(f, h, p): kernels X -> Y that agree off a random set of points, and a prior on X
    with a random nullset."""
    n_in, n_out = (int(v) for v in rng.integers(1, 6, size=2))
    cols = [_column(rng, n_out, rng.random() < 0.5) for _ in range(n_in)]
    other = [_column(rng, n_out, rng.random() < 0.5) if rng.random() < 0.3 else c for c in cols]
    weights = _column(rng, n_in, False)
    null = rng.random(n_in) < 0.3
    null[rng.integers(n_in)] = False   # one supported point at least
    weights = [Fraction(0) if z else w for w, z in zip(weights, null)]
    total = sum(weights)
    if not total:   # every weight fell on the nullset
        weights = [Fraction(int(not z)) for z in null]
        total = sum(weights)
    return _kernel(cols), _kernel(other), fs.prob_vector([w / total for w in weights])


def _verdicts(f: fs.StochasticMatrix, h: fs.StochasticMatrix, p: fs.ProbVector) -> list:
    """(name, classical verdict, quantum verdict) for every reading of (f, h, p)."""
    big_f, big_h, omega = fs.embed(f), fs.embed(h), fs.embed_prob(p)
    zero = np.flatnonzero(alg.vec(omega.support) == 0).tolist()
    out = [("deterministic", f.is_deterministic(), is_deterministic(big_f).passed),
           ("nullset", p.nullset(), zero)]
    for side in SIDES:
        out += [(f"ae-deterministic-{side}", fs.is_ae_deterministic(f, p).passed,
                 ae_deterministic(big_f, omega, side).passed),
                (f"ae-equal-{side}", fs.ae_equal(f, h, p).passed,
                 ae_equal(big_f, big_h, omega, side).passed)]
    return out


def _mismatches(verdicts: list) -> list:
    return [(name, want, got) for name, want, got in verdicts if want != got]


INSTANCES = [_instance(np.random.default_rng([31, i])) for i in range(40)]


def test_random_rational_kernels_agree_with_their_embeddings():
    verdicts = [_verdicts(*inst) for inst in INSTANCES]
    assert [_mismatches(v) for v in verdicts] == [[] for _ in verdicts]
    # every boolean reading reaches both outcomes, so agreement is not vacuous
    for k, (name, *_) in enumerate(verdicts[0]):
        if name != "nullset":
            assert {v[k][1] for v in verdicts} == {True, False}, name
    assert any(v[1][1] for v in verdicts) and not all(v[1][1] for v in verdicts)


def test_the_random_entries_keep_clear_of_every_threshold():
    """Entries 0 or at least 1/64: every tol.eq comparison is far from its bound."""
    for f, h, p in INSTANCES:
        for v in (f, h, p):
            vals = v._num.ravel() / v._den
            assert ((vals == 0) | (vals >= 1 / 64)).all()


def _hamming():
    """The corpus error kernel at eps = 1/100 and its syndrome decoder, and a prior on
    half the messages with its pushforward onto the 128 words."""
    f = corpus._hamming_error_kernel(Fraction(1, 100))
    g = fs.deterministic_kernel(corpus.hamming_decode, 128, 16)
    p = fs.prob_vector([Fraction(1, 8) if x % 2 else Fraction(0) for x in range(16)])
    return f, g, p, fs.push(f, p)


_HAMMING = {   # (deterministic, a.e. deterministic, a.e. equal) on the classical side
    "error": (False, False, True),
    "decoder": (True, True, True),
    "recovery": (True, True, True),
    "wrong-off-support": (True, True, True),
    "wrong-on-support": (True, True, False),
}


@pytest.mark.parametrize("case", list(_HAMMING))
def test_the_hamming_kernels_agree_with_their_embeddings(case):
    f, g, p, q = _hamming()
    ident = fs.deterministic_kernel(lambda x: x, 16, 16)
    # recovery after error is the identity on every message; a map that sends the even
    # (null) messages, or the odd (supported) ones, to 0 differs from it there only
    off = fs.deterministic_kernel(lambda x: x if x % 2 else 0, 16, 16)
    on = fs.deterministic_kernel(lambda x: 0 if x % 2 else x, 16, 16)
    k, h, prior = {"error": (f, f, p), "decoder": (g, g, q),
                   "recovery": (fs.compose(g, f), ident, p),
                   "wrong-off-support": (off, ident, p), "wrong-on-support": (on, ident, p)}[case]
    verdicts = _verdicts(k, h, prior)
    assert _mismatches(verdicts) == []
    classical = {name: want for name, want, _ in verdicts}
    assert (classical["deterministic"], classical["ae-deterministic-left"],
            classical["ae-equal-left"]) == _HAMMING[case]
