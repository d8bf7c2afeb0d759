"""The Cholesky certificate against the spectral PSD test it stands in for.

`algebra._psd_pass` proves lambda_min(H) >= -tol.psd * lo for Hermitian
stacks by one Cholesky factorization of H + (tol.psd * lo - r) I; it only
ever decides passes.  Every pass it certifies must be a pass of
`loop_reference.psd_by_spectrum` (eigvalsh), and the checks that use it,
`is_cp`, the sampled checks, `is_positive_elem` and `state_from_density`,
must give the reports of their spectral references bit for bit.  The
boundary cases put lambda_min at -c tol.psd lo on either side of the bound,
and one 144 x 144 case makes the rounding allowance r decide.  A batch whose
every skew exceeds tol.herm times the Frobenius bound on its scale fails with
no spectrum at all, as the Bayes candidates of CPU channels on M_8 and M_12 do.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

import loop_reference as ref
from qmarkov import _grid, corpus, props
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.bayes import bayes_candidate, bayes_problem
from qmarkov.channel import (
    Channel,
    identity_channel,
    is_cp,
    is_positive_sampled,
    is_schwarz_sampled,
    kraus_channel,
    mult_map,
    transpose_channel,
)
from qmarkov.errors import NotSelfAdjoint
from qmarkov.state import state_from_density
from qmarkov.tolerances import DEFAULT_TOL, Tolerance

TOL = DEFAULT_TOL


@pytest.fixture
def verdicts(monkeypatch):
    """Records the result of every call of the certificate."""
    seen = []
    certify = alg._psd_pass

    def recording(hs, lo, tol):
        seen.append(certify(hs, lo, tol))
        return seen[-1]

    monkeypatch.setattr(alg, "_psd_pass", recording)
    return seen


def _choi_hermitian(f: Channel):
    """Per domain-block group: the Hermitian parts of its Choi stacks and the floor lo."""
    out = []
    for ys, stacks in _grid.choi_blocks(f.domain, f.codomain, f.matrix):
        hs = [0.5 * (c + alg._dagger(c)) for c in stacks]
        out.append((hs, np.maximum(1.0, alg._lower(hs))))
    return out


def _spectral(hs, lo) -> bool:
    return all(ref.psd_by_spectrum(h, lo[y]) for x in hs for y in range(len(x)) for h in x[y])


def _from_choi(c: np.ndarray, n: int, m: int) -> Channel:
    """The map M_n ~> M_m whose single Choi block is c."""
    mat = c.reshape(n, m, n, m).transpose(1, 3, 0, 2).reshape(m * m, n * n)
    return Channel(AlgebraShape((n,)), AlgebraShape((m,)), mat)


def _families(rng):
    """(label, channel): CPU, CP, star-preserving, raw, transposed, classical and corpus maps."""
    out = [(f"cpu-{n}-{m}", props.random_cpu_channel(n, m, rng))
           for n, m in ((1, 1), (2, 2), (2, 3), (3, 2), (4, 4), (6, 6))]
    for blocks in ((2,), (3,), (12,), (1, 2), (2, 1, 3), (1, 2, 2, 3), (1,) * 8):
        s = AlgebraShape(blocks)
        out += [(f"identity-{blocks}", identity_channel(s)),
                (f"transpose-{blocks}", transpose_channel(s))]
    for dom, cod in (((1, 2), (2, 1)), ((2, 1, 3), (1, 1, 2)), ((1, 1, 1), (2,))):
        dom, cod = AlgebraShape(dom), AlgebraShape(cod)
        out.append((f"star-{dom}", props._random_star_preserving(dom, cod, rng)))
        out.append((f"raw-{dom}", Channel(dom, cod, 0.3 * rng.standard_normal(
            (cod.coord_dim, dom.coord_dim)))))
    k = [rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)) for _ in range(2)]
    out.append(("kraus-3-4", kraus_channel(AlgebraShape((3,)), AlgebraShape((4,)), k)))
    c = AlgebraShape((1,) * 6)
    stoch = rng.random((6, 6))
    out.append(("classical", Channel(c, c, stoch / stoch.sum(axis=0))))
    out.append(("classical-negative", Channel(c, c, stoch - 0.1)))
    _, _, kl_f, kl_g = corpus.kl_channels(0.5)
    out += [("knill-laflamme-f", kl_f), ("knill-laflamme-g", kl_g),
            ("mult-m2", mult_map(AlgebraShape((2,)))), ("epr", corpus.epr_conditional()[0])]
    return out


FAMILIES = _families(np.random.default_rng(41))


@pytest.mark.parametrize("label,f", FAMILIES, ids=[label for label, _ in FAMILIES])
def test_certified_passes_are_spectral_passes_and_reports_are_unchanged(label, f, verdicts):
    for hs, lo in _choi_hermitian(f):
        if alg._psd_pass([h.copy() for h in hs], lo, TOL):
            assert _spectral(hs, lo), label
    for tol in (TOL, Tolerance(herm=1e-3)):
        got = is_cp(Channel(f.domain, f.codomain, f.matrix), tol)
        assert got.to_dict() == ref.is_cp_spectral(f, tol).to_dict(), label
        want = ref.is_cp(f, tol)
        assert (got.verdict, (got.witness or {}).get("domain_block")) == (
            want.verdict, (want.witness or {}).get("domain_block")), label


def test_the_families_reach_both_outcomes(verdicts):
    for _, f in FAMILIES:
        is_cp(Channel(f.domain, f.codomain, f.matrix))
    assert {True, False} <= set(verdicts)


@pytest.mark.parametrize("blocks", [(2,), (3,), (12,), (2, 1, 3), (1,) * 16])
def test_identity_channels_pass_without_a_spectrum(blocks, monkeypatch):
    """Rank-one Choi blocks are PSD with no margin, yet the shift certifies them."""
    def no_spectrum(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    assert is_cp(identity_channel(AlgebraShape(blocks))).passed


def test_transpose_falls_back_to_the_spectrum(verdicts):
    for blocks in ((2,), (3,), (2, 1, 3)):
        f = transpose_channel(AlgebraShape(blocks))
        got = is_cp(f)
        assert not got.passed and got.to_dict() == ref.is_cp_spectral(f).to_dict()
    # every group of blocks of size > 1 falls back; (2, 1, 3) has a PSD group of 1 x 1 blocks
    assert verdicts == [False, False, False, True, False]


def test_classical_blocks_compare_with_the_bound_directly():
    """1 x 1 blocks: an entry at -t is certified, one just below is not."""
    c = AlgebraShape((1,) * 4)
    for entry, certified in ((-1e-9, True), (-1e-9 * (1 + 1e-6), False), (0.0, True)):
        mat = np.eye(4)
        mat[1, 2] = entry
        f = Channel(c, c, mat)
        (hs, lo), = _choi_hermitian(f)
        assert alg._psd_pass(hs, lo, TOL) is certified
        assert is_cp(f).to_dict() == ref.is_cp_spectral(f).to_dict()


def _boundary(n: int, m: int, c: float, rng, big: float = 4.0) -> np.ndarray:
    """A Hermitian n m x n m matrix with largest entry `big`, on the diagonal, so that
    lo = big (1 - _SLACK), and smallest eigenvalue -c tol.psd lo along a unit vector v
    orthogonal to the first axis; every other eigenvalue is `big`."""
    size = n * m
    v = np.zeros(size, dtype=complex)
    v[1:] = rng.standard_normal(size - 1) + 1j * rng.standard_normal(size - 1)
    v /= np.linalg.norm(v)
    lo = big * (1 - alg._SLACK)
    return big * np.eye(size) - (big + c * TOL.psd * lo) * np.outer(v, v.conj())


@pytest.mark.parametrize("c", [0.5, 0.99, 1.01, 2.0])
@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 2)])
def test_boundary_blocks_certify_below_the_bound_and_fall_back_above(n, m, c, verdicts):
    rng = np.random.default_rng(int(100 * c) + n * m)
    h = _boundary(n, m, c, rng)
    low = np.linalg.eigvalsh(h)[0]
    lo = 4.0 * (1 - alg._SLACK)
    assert abs(low + c * TOL.psd * lo) <= 1e-6 * TOL.psd * lo   # the construction is accurate
    f = _from_choi(h, n, m)
    got = is_cp(f)
    assert verdicts == [c < 1]
    assert got.to_dict() == ref.is_cp_spectral(f).to_dict()
    assert got.passed is (c < 1)   # ||C|| = 4 is the scale, within _SLACK of lo
    a = AlgElement(AlgebraShape((n * m,)), (h,))
    assert alg.is_positive_elem(a) is ref.is_positive_elem(a) is (c < 1)
    assert verdicts == [c < 1, c < 1]


def test_skew_exactly_at_the_hermiticity_bound_is_certified(verdicts):
    """Skew tol.herm * lo passes the skew test at lo; one ulp more skips the certificate."""
    rng = np.random.default_rng(5)
    k = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    h = k @ k.conj().T
    h = (h + h.conj().T) / (8 * np.abs(h).max())   # exactly Hermitian, entries at most 1/4
    h[0, 1] = h[1, 0] = 0.0                     # a change of norm at most 1/4 ...
    h += 0.5 * np.eye(6)                       # ... that this margin absorbs; lo = 1
    for x, certified in ((TOL.herm / 2, True), (np.nextafter(TOL.herm / 2, 1.0), None)):
        c = h.copy()
        c[0, 1], c[1, 0] = x, -x                # C - C* has entries +-2x, H is unchanged
        f = _from_choi(c, 2, 3)
        hs, lo = _choi_hermitian(f)[0]
        assert np.array_equal(hs[0][0, 0], h) and lo[0] == 1.0
        verdicts.clear()
        got = is_cp(f)
        assert got.to_dict() == ref.is_cp_spectral(f).to_dict()
        assert verdicts == ([] if certified is None else [True])


def test_the_rounding_allowance_decides_a_144_by_144_block(verdicts):
    """At N = 144 the rounding allowance r is about 2 % of t:
    lambda_min = -0.999 t is left to the spectrum, -0.95 t is certified; both pass."""
    n = m = 12
    size = n * m
    lo = 4.0 * (1 - alg._SLACK)
    t = TOL.psd * lo
    r = 8 * (size + 2) * size * 2.0 ** -53 * (lo / (1 - alg._SLACK) + t)   # the allowance
    assert 0.01 * t < r < 0.03 * t
    for c, certified in ((0.999, False), (0.95, True)):
        h = _boundary(n, m, c, np.random.default_rng(7))
        f = _from_choi(h, n, m)
        verdicts.clear()
        got = is_cp(f)
        assert verdicts == [certified]
        assert got.passed and got.to_dict() == ref.is_cp_spectral(f).to_dict()


def _shift(n: int, t: float) -> Channel:
    """X |-> X - t tr(X) / n 1 on M_n: positive fails only on inputs with a small eigenvalue."""
    s = AlgebraShape((n,))
    u = alg.vec(alg.unit(s))
    return Channel(s, s, np.eye(s.coord_dim) - t / n * np.outer(u, u))


def _mix(n: int, d: float) -> Channel:
    """(1 - d) id + d transpose on M_n: a Schwarz gap that dips below -tol.psd on few inputs."""
    s = AlgebraShape((n,))
    return Channel(s, s, (1 - d) * identity_channel(s).matrix + d * transpose_channel(s).matrix)


@pytest.mark.parametrize("check,loop,f,trials,seed,first", [
    (is_positive_sampled, ref.is_positive_sampled, _shift(8, 1e-4), 64, 0, 62),
    (is_positive_sampled, ref.is_positive_sampled, _shift(8, 1e-4), 256, 3, 132),
    (is_schwarz_sampled, ref.is_schwarz_sampled, _mix(8, 5e-11), 64, 1, 11),
    (is_schwarz_sampled, ref.is_schwarz_sampled, _mix(8, 3e-11), 500, 5, 459),
], ids=["positive-one-batch", "positive-two-batches", "schwarz-one-batch", "schwarz-four-batches"])
def test_a_batch_with_one_failing_trial_falls_back_whole(check, loop, f, trials, seed, first,
                                                          verdicts):
    """numpy's Cholesky raises for the whole batch; the spectral path then finds the
    first failing trial, its input and its eigenvalue, as the trial loop does."""
    batch = _grid._CHUNK // f.domain.coord_dim
    got, want = check(f, trials, seed), loop(f, trials, seed)
    assert got.witness["trial"] == want.witness["trial"] == first
    assert got.witness["min_eigenvalue"] == want.witness["min_eigenvalue"]
    assert alg.vec(got.witness["input"]).tolist() == alg.vec(want.witness["input"]).tolist()
    assert got.to_dict() == want.to_dict()
    assert verdicts == [True] * (first // batch) + [False]   # earlier batches were certified


@pytest.mark.parametrize("c", [0.5, 1.5])
def test_sampled_checks_certify_at_the_lower_scale(c, verdicts):
    """F(x) = x A from C to M_10: every image is |b|^2 A, whose smallest eigenvalue is
    -c tol.psd times its norm, and whose Frobenius norm is 3 times its norm."""
    a = _boundary(2, 5, c, np.random.default_rng(13), big=100.0)
    f = Channel(AlgebraShape((1,)), AlgebraShape((10,)), a.reshape(-1, 1))
    got, want = is_positive_sampled(f, 64, 0), ref.is_positive_sampled(f, 64, 0)
    assert got.to_dict() == want.to_dict() and got.passed is (c < 1)
    if c < 1:
        assert verdicts == [True]


def test_a_non_self_adjoint_image_with_a_positive_hermitian_part_fails():
    """The certificate reads H only, so the skew test gates it."""
    skewed = np.eye(3) + 1e-6 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    f = Channel(AlgebraShape((1,)), AlgebraShape((3,)), skewed.reshape(-1, 1))
    got, want = is_positive_sampled(f, 8, 0), ref.is_positive_sampled(f, 8, 0)
    assert not got.passed and got.to_dict() == want.to_dict()
    with pytest.raises(NotSelfAdjoint, match="element is not self-adjoint within tolerance"):
        alg.is_positive_elem(AlgElement(AlgebraShape((3,)), (skewed,)))


def test_nothing_is_certified_when_the_rounding_allowance_exceeds_the_slack():
    """With tol.psd far below the rounding of a factorization, even 2 I is left to the
    spectrum, which passes it."""
    tol = Tolerance(psd=1e-15)
    h = 2.0 * np.eye(6, dtype=complex)
    assert not alg._psd_pass([h[None]], np.array(1.0), tol)
    assert alg._psd_pass([h[None]], np.array(1.0), TOL)
    assert alg.is_positive_elem(AlgElement(AlgebraShape((6,)), (h,)), tol)


def test_a_passing_sampled_check_needs_no_spectrum(monkeypatch):
    """Only ||F(1)||, the factor of the Schwarz inequality, takes an eigvalsh."""
    calls = []
    spectrum = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h.shape) or spectrum(h))
    f = props.random_cpu_channel(4, 4, np.random.default_rng(3))
    assert is_positive_sampled(f, 300, 2).passed and not calls
    assert is_schwarz_sampled(f, 300, 2).passed and calls == [(1, 4, 4)]


def test_is_positive_elem_falls_back_for_non_self_adjoint_and_large_elements():
    s = AlgebraShape((2, 3))
    rng = np.random.default_rng(9)
    b = alg.random_element(s, rng)
    with pytest.raises(NotSelfAdjoint, match="element is not self-adjoint within tolerance"):
        alg.is_positive_elem(b)
    p = alg.mul(alg.adjoint(b), b)
    for a in (p, alg.unvec(AlgebraShape((2,)), [1.0, 2.0, 2.0, 1.0])):
        assert alg.is_positive_elem(a) is ref.is_positive_elem(a)
    # entries above 2^500 are left to the spectrum, which scales them
    assert alg.is_positive_elem(p * 1e200)
    assert alg.is_positive_elem(alg.unvec(AlgebraShape((2,)), [1e306, 0, 0, 1e306]))


def _state_error(rho: AlgElement, tol: Tolerance):
    try:
        state_from_density(rho, tol)
    except (ValueError, NotSelfAdjoint) as exc:
        return type(exc), str(exc)
    return None, None


def _densities(rng):
    for n in (2, 5):
        v = np.zeros(n, dtype=complex)
        v[1:] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        v /= np.linalg.norm(v)
        for c in (0.5, 0.99, 1.01, 2.0):   # lambda_min = -c tol.psd at scale 1, trace 1
            h = (np.eye(n) - np.outer(v, v.conj())) / (n - 1) - c * TOL.psd * np.outer(v, v.conj())
            h[0, 0] += c * TOL.psd
            yield AlgElement(AlgebraShape((n,)), (h,)), TOL
    s = AlgebraShape((1, 2, 2))
    yield alg.random_density(s, rng), TOL
    rho = alg.random_density(s, rng)
    yield rho + alg.unvec(s, 1e-9j * (alg.vec(alg.unit(s)) - 1) * (np.arange(9) % 2)), TOL
    yield rho * 1.01, TOL


def test_state_from_density_fails_as_before():
    for rho, tol in _densities(np.random.default_rng(11)):
        assert _state_error(rho, tol) == ref.state_error(rho, tol)


def test_state_from_density_takes_the_exact_norm_only_between_the_bounds(monkeypatch):
    """Eigenvalues (1.5, -0.5) with tol.psd = 0.33: the PSD test fails at ||H|| = 1.5
    and passes at ||H|| + ||K||_F once the skew K is large enough, so only that case
    pays for the exact norm; the outcome is the one of the exact test either way."""
    calls = []
    exact = alg._op_norm
    monkeypatch.setattr(alg, "_op_norm", lambda xs: calls.append(1) or exact(xs))
    tol = Tolerance(psd=0.33, herm=0.5)
    h = np.array([[0.5, 1.0], [1.0, 0.5]])
    outcomes = set()
    for k, opened in ((0.0, False), (0.1, True), (0.3, True)):
        rho = AlgElement(AlgebraShape((2,)), (h + k * np.array([[0, 1], [-1, 0]]),))
        calls.clear()
        got = _state_error(rho, tol)
        assert bool(calls) is opened
        assert got == ref.state_error(rho, tol)
        outcomes.add(got[0])
    assert outcomes == {ValueError, None}


# ---------------------------------------------------------------------------
# the one rule: every caller of alg._psd_verdicts against its oracle at the threshold
# ---------------------------------------------------------------------------

def _straddling() -> np.ndarray:
    """x = H + K on C^6 with tr x = 1, lambda_min(H) = -0.05, ||H|| = 0.4 and K skew with
    zero diagonal and largest entry 1.5: its norm s lies well inside both pairs of
    scale bounds, (max(1, ||H||), ||H|| + ||K||_F) and (max|x_ij|, ||x||_F)."""
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    h = (q * np.array([-0.05, 0.05, 0.1, 0.2, 0.3, 0.4])) @ q.conj().T
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    k = a - a.conj().T
    np.fill_diagonal(k, 0.0)
    x = 0.5 * (h + h.conj().T) + 1.5 * k / np.abs(k).max()
    s = np.linalg.norm(x, 2)
    herm = 0.5 * (x + x.conj().T)
    frob = np.linalg.norm(x - x.conj().T) / 2
    for lo, hi in ((max(1.0, np.linalg.norm(herm, 2)), np.linalg.norm(herm, 2) + frob),
                   (np.abs(x).max(), np.linalg.norm(x))):
        assert 1.01 * lo < s < 0.99 * hi and hi < 10 * s
    return x


X = _straddling()


def _at(c: float, skew: bool) -> Tolerance:
    """The Tolerance that puts the skew of X (skew) or lambda_min of its Hermitian part
    at c times its bound at the scale ||X||, and the other test far inside its bound."""
    s = np.linalg.norm(X, 2)
    if skew:
        return Tolerance(herm=np.abs(X - X.conj().T).max() / (c * s), psd=1.0)
    low = np.linalg.eigvalsh(0.5 * (X + X.conj().T))[0]
    return Tolerance(herm=10.0, psd=-low / (c * s))


def _raised(call):
    try:
        return call()
    except NotSelfAdjoint as exc:
        return NotSelfAdjoint, str(exc)


def _elem(x):
    return AlgElement(AlgebraShape((x.shape[0],)), (x,))


def test_the_threshold_inputs_straddle_the_rule():
    below, above = _at(1 - 1e-6, True), _at(1 + 1e-6, True)
    assert ref.is_hermitian(X, below) and not ref.is_hermitian(X, above)
    below, above = _at(1 - 1e-6, False), _at(1 + 1e-6, False)
    assert ref.is_positive_elem(_elem(X), below) and not ref.is_positive_elem(_elem(X), above)


def _image_map(x):
    """C ~> M_6, b |-> b 1000 x: the images of the trials are |b|^2 1000 x."""
    return Channel(AlgebraShape((1,)), AlgebraShape((6,)), 1000 * x.reshape(-1, 1))


_CALLERS = {
    "is_cp": (
        lambda x, tol: is_cp(_from_choi(x, 2, 3), tol).to_dict(),
        lambda x, tol: ref.is_cp_spectral(_from_choi(x, 2, 3), tol).to_dict(),
        lambda f=identity_channel(AlgebraShape((3,))): is_cp(f),
    ),
    "sampled": (
        lambda x, tol: is_positive_sampled(_image_map(x), 64, 0, tol).to_dict(),
        lambda x, tol: ref.is_positive_sampled(_image_map(x), 64, 0, tol).to_dict(),
        lambda f=props.random_cpu_channel(4, 4, np.random.default_rng(3)): is_positive_sampled(f),
    ),
    "is_positive_elem": (
        lambda x, tol: _raised(lambda: alg.is_positive_elem(_elem(x), tol)),
        lambda x, tol: _raised(lambda: ref.is_positive_elem(_elem(x), tol)),
        lambda a=alg.random_positive(AlgebraShape((2, 3)), np.random.default_rng(4)):
            alg.is_positive_elem(a),
    ),
    "is_self_adjoint_elem": (
        lambda x, tol: alg.is_self_adjoint_elem(_elem(x), tol),
        lambda x, tol: ref.is_hermitian(x, tol),
        lambda a=alg.random_self_adjoint(AlgebraShape((2, 3)), np.random.default_rng(5)):
            alg.is_self_adjoint_elem(a),
    ),
    "state_from_density": (
        lambda x, tol: _state_error(_elem(x), tol),
        lambda x, tol: ref.state_error(_elem(x), tol),
        lambda a=alg.random_density(AlgebraShape((3, 3)), np.random.default_rng(6)):
            state_from_density(a),
    ),
}


def _counted(calls: dict, name: str, real):
    def counting(*args):
        calls[name] += 1
        return real(*args)

    return counting


@pytest.mark.parametrize("caller", list(_CALLERS))
def test_every_caller_decides_the_rule_at_the_threshold_as_its_oracle(caller, monkeypatch):
    """Skew at tol.herm s (1 +- 1e-6) and lambda_min at -tol.psd s (1 +- 1e-6), with the norm
    s strictly between the cheap bounds: each takes the exact norm and gets the oracle's
    verdict and witness.  c = 10 fails at both bounds with no exact norm, except in
    `is_self_adjoint_elem`, which takes the norm for every skew above tol.herm.  A skew at
    c = 10 also exceeds tol.herm times the Frobenius bound on the scale, so `is_cp`, the
    sampled checks and `is_positive_elem` take no eigvalsh at all, where at 1 +- 1e-6 they
    take the spectrum of H.  A certified pass takes no spectrum (a state takes the one eigh
    it keeps)."""
    run, oracle, certified = _CALLERS[caller]
    skew_only = caller == "is_self_adjoint_elem"
    ladder = caller in ("is_cp", "sampled", "is_positive_elem")   # pass no spectrum of their own
    calls = dict.fromkeys(("_op_norm", "_eigvalsh", "eigvalsh", "eigh"), 0)
    for owner, name in ((alg, "_op_norm"), (alg, "_eigvalsh"), (np.linalg, "eigvalsh"),
                        (np.linalg, "eigh")):
        monkeypatch.setattr(owner, name, _counted(calls, name, getattr(owner, name)))
    for skew in (True,) if skew_only else (True, False):
        for c, exact in ((1 - 1e-6, True), (1 + 1e-6, True), (10.0, skew_only)):
            tol = _at(c, skew)
            calls.update(dict.fromkeys(calls, 0))
            got = run(X, tol)
            assert (calls["_op_norm"] > 0) is exact, (skew, c)
            if skew and ladder:
                assert (calls["eigvalsh"] > 0) is (calls["_eigvalsh"] > 0) is exact, (skew, c)
            assert got == oracle(X, tol), (skew, c)
    calls.update(dict.fromkeys(calls, 0))
    certified()
    assert calls == {"_op_norm": 0, "_eigvalsh": 0, "eigvalsh": 0,
                     "eigh": int(caller == "state_from_density")}


def test_the_skew_rung_settles_just_above_its_bound_and_defers_just_below(monkeypatch):
    """At skew = tol.herm (||H||_F + ||K||_F)(1 + _SLACK) (1 +- 1e-6), the bound of the
    rung itself, the verdict is "not self-adjoint" on either side; only above it is it
    reached with no spectrum."""
    xs = [X[None]]
    hs, diff = alg._hermitian(xs), [x - alg._dagger(x) for x in xs]
    bound = float((alg._upper(hs) + 0.5 * alg._upper(diff)) * (1 + alg._SLACK))
    skew = float(alg._max_abs(diff))
    spectra = []
    monkeypatch.setattr(alg, "_eigvalsh", lambda hs, real=alg._eigvalsh: spectra.append(1) or
                        real(hs))
    for c, settled in ((1 + 1e-6, True), (1 - 1e-6, False)):
        tol = Tolerance(herm=skew / (c * bound), psd=1.0)
        spectra.clear()
        got = _raised(lambda: alg.is_positive_elem(_elem(X), tol))
        assert got == _raised(lambda: ref.is_positive_elem(_elem(X), tol))
        assert got[0] is NotSelfAdjoint and (not spectra) is settled, c


@pytest.mark.parametrize("n", [8, 12])
def test_the_bayes_candidate_of_a_cpu_channel_takes_no_spectrum(n, monkeypatch):
    """The Bayes candidate of a random CPU channel on M_n with a random full-rank prior is
    not star-preserving, so its Choi matrix fails on its skew alone: no eigvalsh."""
    rng = np.random.default_rng([n, 10])
    prob = bayes_problem(props.random_cpu_channel(n, n, rng),
                         state_from_density(alg.random_density(AlgebraShape((n,)), rng)))
    calls = []
    spectrum = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h.shape) or spectrum(h))
    result = bayes_candidate(prob)
    assert not calls
    skew = result.cp.witness["skew_norm"]
    assert result.cp.to_dict() == ref.is_cp(result.candidate).to_dict()
    assert result.cp.detail == f"Choi matrix of domain block 0 is not Hermitian (skew {skew:.3g})"
    assert f"cp: {result.cp.detail}" in result.notes


# the rule is decided in `algebra._psd_verdicts` and its certificate `_psd_pass`, its
# skew half alone in `algebra.is_self_adjoint_elem`; the pullback's skew test (2 tol.herm
# against the norm of the skew part, in the stacked core `state._pullback`) and the
# NotPSD test of linalg (scale max(1, lambda_max)) keep rules of their own
_TOLERANCE_PLACES = {("algebra", "_psd_verdicts"), ("algebra", "_psd_pass"),
                     ("algebra", "is_self_adjoint_elem"),
                     ("state", "_pullback"), ("linalg", "_decompose")}


def _tolerance_comparisons(source: str, attrs=("psd", "herm")) -> set[str | None]:
    """The top-level functions and classes (None outside any) of source holding a
    comparison with an operand that reads an attribute named in attrs."""
    found = set()
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare) and any(
                    isinstance(a, ast.Attribute) and a.attr in attrs for a in ast.walk(sub)):
                found.add(getattr(node, "name", None))
    return found


def test_tolerance_guard_sees_every_comparison_form():
    for bad in ("x <= tol.herm", "-tol.psd * s > low", "ok = a < b < 2 * self.tol.herm",
                "def f(t):\n    def g():\n        return (low\n                < -t.psd)",
                "class C:\n    def m(self, tol):\n        return x >= tol.psd * s"):
        assert _tolerance_comparisons(bad), bad
        assert not _tolerance_comparisons(bad, ("eq",)), bad
    for fine in ("x = tol.psd * s", "_report('cp', True, tol.psd)", "x <= tol.eq * s",
                 "# low < -tol.psd * s", "'low < -tol.psd * s'"):
        assert not _tolerance_comparisons(fine), fine
    assert _tolerance_comparisons("x <= tol.eq * s", ("eq",)) == {None}


def _sources():
    return sorted((Path(__file__).resolve().parents[1] / "src" / "qmarkov").glob("*.py"))


def test_only_the_rule_compares_against_the_psd_and_herm_tolerances():
    places = {(path.stem, name) for path in _sources()
              for name in _tolerance_comparisons(path.read_text())}
    assert places == _TOLERANCE_PLACES


# the equality rule is `algebra.failing_entries`, in every module; three places compare
# against tol.eq on their own: the Gram certificate's cap in `_grid.multiplicative_failure`
# (a bound on every entry of a pair grid, below which the grid need not run),
# `bayes._bayes_report`, whose entrywise bound also finds the worst pair the report names,
# and `props._compressed`, whose weight test decides which trials draw an element: it sets
# the draws of a suite, not a verdict
_EQ_PLACES = {("algebra", "failing_entries"), ("_grid", "multiplicative_failure"),
              ("bayes", "_bayes_report"), ("props", "_compressed")}
_EQ_MODULES = {path.stem for path in _sources()}


def test_only_the_rule_compares_against_the_eq_tolerance():
    places = {(path.stem, name) for path in _sources() if path.stem in _EQ_MODULES
              for name in _tolerance_comparisons(path.read_text(), ("eq",))}
    assert places == _EQ_PLACES
