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
from qmarkov import _grid, corpus, props, state
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.bayes import bayes_problem, petz_exists, verify_disintegration
from qmarkov.channel import (
    Channel,
    apply,
    channel_from_action,
    _s_positivity_failures,
    conjugation_by,
    identity_channel,
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
    """Counts the entries that needed an exact operator norm in the equality rule."""
    seen, inside = [], []
    exact, rule = alg._op_norm, alg.failing_entries

    def counting(xs):
        if inside:
            seen.append(len(xs[0]))
        return exact(xs)

    def deciding(*args, **kw):
        inside.append(1)
        try:
            return rule(*args, **kw)
        finally:
            inside.pop()

    monkeypatch.setattr(alg, "_op_norm", counting)
    monkeypatch.setattr(alg, "failing_entries", deciding)
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


def _interleaved_cases():
    """Instances through the interleaved algebra (2, 1, 2), whose blocks of size 2 are
    no one range of coordinates: an embedding into M_5 and the compression that undoes
    it, a mixture of two conjugations, that mixture on the last block only, and a map
    that doubles the last unit; the first two also perturbed around the equality
    threshold."""
    rng = np.random.default_rng(212)
    s, m5 = AlgebraShape((2, 1, 2)), AlgebraShape((5,))
    w = props.random_unitary(5, rng)
    embed = channel_from_action(
        s, m5, lambda b: AlgElement(m5, (w @ alg.block_embed(b) @ w.conj().T,)))

    def cut(x):
        y = w.conj().T @ x.blocks[0] @ w
        return AlgElement(s, (y[:2, :2], y[2:3, 2:3], y[3:, 3:]))

    compress = channel_from_action(m5, s, cut)
    ad = [conjugation_by(AlgElement(s, [props.random_unitary(n, rng) for n in s.blocks]))
          for _ in range(2)]
    mixed = Channel(s, s, 0.5 * (ad[0].matrix + ad[1].matrix))
    part = np.eye(9, dtype=complex)
    part[5:, 5:] = mixed.matrix[5:, 5:]
    part = Channel(s, s, part)
    doubled = Channel(s, s, np.diag([1.0] * 8 + [2.0]))
    pairs = [("embed", embed, compress), ("compress", compress, embed), ("mixed", mixed, doubled),
             ("part", part, ad[0]), ("ad", ad[1], part), ("doubled", doubled, mixed)]
    cases = []
    for label, f, g in pairs:
        omega = props.random_rank_deficient_state(f.codomain, rng, full=True)
        cases.append((label, f, omega, g, None))
        if label in ("embed", "compress"):
            for eps in NOISE:
                cases.append((f"{label}-{eps:g}", _perturbed(f, eps, rng, star=True), omega,
                              _perturbed(g, eps, rng, star=True), f))
    return cases


@pytest.mark.parametrize("chunk", [_grid._CHUNK, 16])
def test_interleaved_algebras_agree_with_loops(monkeypatch, chunk):
    # with 16 entries per chunk every row of a grid is its own chunk, so the left side
    # of the S-positivity grid and the Petz products are read over many chunks
    monkeypatch.setattr(_grid, "_CHUNK", chunk)
    cases = _interleaved_cases()
    found, compared = _mismatches(cases)
    assert found == [], found
    assert compared > 120
    plain = {label: (f, omega, g) for label, f, omega, g, base in cases if base is None}
    spos = {k: s_positivity_equation(f, g).witness for k, (f, _, g) in plain.items()}
    assert {k: w and (w["outer_index"], w["inner_index"]) for k, w in spos.items()} == {
        "embed": None, "compress": None, "mixed": (0, 0), "part": (5, 5), "ad": None,
        "doubled": (5, 6)}
    petz = {k: petz_exists(bayes_problem(*plain[k][:2])).witness
            for k in ("embed", "compress", "part")}
    assert {k: w and _unit_index(w["input"]) for k, w in petz.items()} == {
        "embed": 0, "compress": None, "part": 5}


def _stacked_ae_cases():
    """Trials (F, G, omega) for the stacked a.e. checks: the instance families with
    F perturbed around the equality threshold, star-preserving or not, against
    the plain map, and a map whose pair products overflow."""
    rng = np.random.default_rng(4242)
    trials = []
    for kind in ("unitary", "padded-block", "classical"):
        for _ in range(3):
            f, omega, _ = props.disintegration_instance(kind, rng, max_dim=4)
            trials.append((f, f, omega))
            for eps in NOISE:
                for star in (False, True):
                    trials.append((_perturbed(f, eps, rng, star), f, omega))
    f, omega, _ = props.disintegration_instance("padded-block", rng, max_dim=4)
    huge = Channel(f.domain, f.codomain, 2.0 ** 600 * f.matrix)
    trials.append((huge, huge, omega))
    # one-sided on the pure state P = E11: X -> X P is a.e. deterministic on the left only,
    # and X -> X + (1 - P) X a.e. equal to the identity on the left only
    m2 = AlgebraShape((2,))
    corner = state_from_density(AlgElement(m2, (np.diag([1.0, 0.0]),)))
    p, comp = alg.unit(m2) - alg.unvec(m2, [0, 0, 0, 1]), alg.unvec(m2, [0, 0, 0, 1])
    right = channel_from_action(m2, m2, lambda b: alg.mul(b, p))
    ident = channel_from_action(m2, m2, lambda b: b)
    lifted = channel_from_action(m2, m2, lambda b: b + alg.mul(comp, b))
    trials += [(right, right, corner), (ident, lifted, corner)]
    return trials


def _unit_index(u: AlgElement) -> int:
    return int(np.flatnonzero(alg.vec(u))[0])


def _witness_index(report, d: int) -> int | None:
    """The first failing unit, or pair in row-major order, of an a.e. report."""
    if report.passed:
        return None
    w = report.witness
    if "input" in w:
        return _unit_index(w["input"])
    return _unit_index(w["left_input"]) * d + _unit_index(w["right_input"])


def _stacked_failures(trials, side):
    """The first failing units of ae_equal and pairs of ae_deterministic, per trial,
    from one call of each core for all trials."""
    t = trials[0][0].codomain
    supports = [omega.support for _, _, omega in trials]
    return (_grid.equal_failure(t, np.array([f.matrix for f, _, _ in trials]),
                                np.array([g.matrix for _, g, _ in trials]), state.DEFAULT_TOL,
                                supports, side),
            _grid.multiplicative_failure([f for f, _, _ in trials], state.DEFAULT_TOL, True,
                                         supports, side))


def _check_stacked(trials, side):
    """Each trial's indices in a batch are those of its batch of one, of the verifiers'
    witnesses and, below the float limit, of the loop oracle's."""
    equal, det = _stacked_failures(trials, side)
    for i, (f, g, omega) in enumerate(trials):
        d = f.domain.coord_dim
        alone = _stacked_failures(trials[i:i + 1], side)
        assert (equal[i], det[i]) == (alone[0][0], alone[1][0]), (i, side)
        assert equal[i] == _witness_index(ae_equal(f, g, omega, side), d), (i, side)
        assert det[i] == _witness_index(ae_deterministic(f, omega, side), d), (i, side)
        if np.abs(f.matrix).max() <= 2.0 ** 500:   # the loop's products would overflow
            assert equal[i] == _witness_index(ref.ae_equal(f, g, omega, side), d), (i, side)
            assert det[i] == _witness_index(ref.ae_deterministic(f, omega, side), d), (i, side)
    return equal, det


def test_stacked_ae_verdicts_match_the_verifiers(exact_norms):
    groups = {}
    for f, g, omega in _stacked_ae_cases():
        groups.setdefault((f.domain, f.codomain), []).append((f, g, omega))
    for trials in groups.values():
        for side in ("left", "right"):
            _check_stacked(trials, side)
    assert len(groups) > 5 and sum(exact_norms) > 0
    one_sided = groups[(AlgebraShape((2,)), AlgebraShape((2,)))][-2:]
    assert _stacked_failures(one_sided, "left") == ([None, None], [None, None])
    assert _stacked_failures(one_sided, "right") == ([None, 2], [4, None])


def test_stacked_ae_witnesses_hold_in_mixed_batches(monkeypatch):
    """One batch on M_2 holds a certified pass, a grid pass, failures in the first and
    in a later chunk of rows, and a 1e200 map whose pair grid overflows: only that
    trial is compared scaled, and each trial keeps the index its own call finds."""
    m2 = AlgebraShape((2,))
    rng = np.random.default_rng(5)
    omega = state_from_density(alg.random_density(m2, rng))
    corner = state_from_density(AlgElement(m2, (np.diag([1.0, 0.0]),)))
    ident = channel_from_action(m2, m2, lambda b: b)
    p = alg.unit(m2) - alg.unvec(m2, [0, 0, 0, 1])
    right = channel_from_action(m2, m2, lambda b: alg.mul(b, p))   # left a.e. deterministic
    doubled = Channel(m2, m2, np.diag([1.0, 1.0, 1.0, 2.0]))       # F(E21 E12) = 2 F(E21) F(E12)
    moved = Channel(m2, m2, np.diag([1.0, 1.0, 1.5, 1.0]))         # differs from F at E21 only
    huge = Channel(m2, m2, 1e200 * np.eye(4))
    trials = [(ident, ident, omega), (right, right, corner), (transpose_channel(m2), ident, omega),
              (doubled, moved, omega), (huge, huge, omega)]
    eq = state.DEFAULT_TOL.eq
    assert [_grid.gram_bound(f, True, o.support, "left", eq) <= eq for f, _, o in trials] == [
        True, False, False, False, False]   # only the first is certified
    units, chunks, real = [], [], _grid.first_failure

    def grid(codomain, rows, cols, operands, *args, **kw):
        if len(args) > 3 and cols > 1:   # the floors of the pair grids, passed by position
            units.append(np.atleast_1d(args[3]))

        def counted(live, r0, r1):   # codomain entries per operand, and the rows, of a chunk
            chunks.append((len(live) * (r1 - r0) * cols * codomain.coord_dim, r1 - r0))
            return operands(live, r0, r1)

        return real(codomain, rows, cols, counted, *args, **kw)

    monkeypatch.setattr(_grid, "first_failure", grid)
    for chunk in (_grid._CHUNK, 16):   # 16: one row of the pair grid per chunk
        monkeypatch.setattr(_grid, "_CHUNK", chunk)
        assert _check_stacked(trials, "left") == ([None, None, 1, 2, None], [None, None, 1, 5, 0])
        assert _check_stacked(trials, "right") == ([None, None, 1, 2, None], [None, 4, 1, 5, 0])
        # at most _CHUNK entries over the live trials, or one row
        assert all(n <= chunk or r == 1 for n, r in chunks) and any(r > 1 for _, r in chunks)
        chunks.clear()
    # the overflowing run again with the huge map's own exponent, and 0 for the others
    assert any(len(u) > 1 and (u == 1.0).sum() == len(u) - 1 for u in units)


def _pair_index(report, d: int) -> int | None:
    """The row-major index of an S-positivity report's failing pair."""
    w = report.witness
    return None if w is None else w["outer_index"] * d + w["inner_index"]


def test_stacked_s_positivity_witnesses_hold_in_mixed_batches(monkeypatch):
    """One batch of pairs (F, G) on M_2 holds passes, failures in the first and in a
    later row of the grid F(G(E_c) E_b) = F(G(E_c)) F(E_b), and a 1e200 pair whose
    grid overflows: each trial keeps the index of its own call, and of the loop."""
    m2 = AlgebraShape((2,))
    ident, t = identity_channel(m2), transpose_channel(m2)
    doubled = Channel(m2, m2, np.diag([1.0, 1.0, 1.0, 2.0]))
    cpu = props.random_cpu_channel(2, 2, np.random.default_rng(11))
    huge = Channel(m2, m2, 1e200 * np.eye(4))
    pairs = [(ident, ident), (t, t), (doubled, ident), (cpu, cpu), (ident, doubled), (huge, huge)]
    units, real = [], _grid.first_failure

    def grid(*args, **kw):
        units.append(np.atleast_1d(kw["unit"]))
        return real(*args, **kw)

    monkeypatch.setattr(_grid, "first_failure", grid)
    for chunk in (_grid._CHUNK, 16):   # 16: one row of the grid per chunk
        monkeypatch.setattr(_grid, "_CHUNK", chunk)
        bad = _s_positivity_failures((m2, m2, m2), np.array([f.matrix for f, _ in pairs]),
                                     np.array([g.matrix for _, g in pairs]), state.DEFAULT_TOL)
        assert bad == [None, 1, 7, 0, None, 0]
        for i, (f, g) in enumerate(pairs):
            assert bad[i] == _pair_index(s_positivity_equation(f, g), 4), i
            if np.abs(f.matrix).max() <= 2.0 ** 250:   # the loop's products would overflow
                assert bad[i] == _pair_index(ref.s_positivity_equation(f, g), 4), i
    # the overflowing batch again with the huge pair's own exponents, and 0 for the others
    assert any(len(u) == len(pairs) and (u == 1.0).sum() == len(pairs) - 1 for u in units)
