"""The Gram certificate of the multiplicativity grids against the grid it stands in for.

`_grid.gram_bound` bounds every entry of the pair grids of `is_deterministic`
and `ae_deterministic` by one Kadison-Schwarz Gram sum, and
`_grid.multiplicative_failure` skips the grid when that bound is within
tol.eq.  A certified pass must be a pass of the grid as computed, and every
report must be the loop oracle's (`loop_reference.py`), verdict and witness.
Each error term of the bound is held to the quantity it bounds, measured
directly or in extended precision, on an instance where that quantity is
not zero, so dropping any one term fails a test here.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import _grid, corpus, props
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.channel import (
    Channel,
    channel_from_action,
    conjugation_by,
    identity_channel,
    is_cp,
    is_deterministic,
    transpose_channel,
)
from qmarkov.state import ae_deterministic, state_from_density
from qmarkov.tolerances import DEFAULT_TOL

pytestmark = pytest.mark.filterwarnings("ignore:ae_deterministic called")

TOL = DEFAULT_TOL
SIDES = (("det", False, "right"), ("ae-right", True, "right"), ("ae-left", True, "left"))
EXTENDED = np.finfo(np.longdouble).eps < 2.0 ** -60


def _fresh(f: Channel) -> Channel:
    return Channel(f.domain, f.codomain, f.matrix)


def _bound(f, adjoint, omega=None, side="right", cap=np.inf) -> float:
    return _grid.gram_bound(f, adjoint, omega.support if adjoint else None, side, cap)


def _terms(f, adjoint, omega=None, side="right") -> tuple[float, dict]:
    """The bound and its error terms by name."""
    return _grid._gram_bound(f, adjoint, omega.support if adjoint else None, side, np.inf)


def _grid_only(f, adjoint, omega, side, monkeypatch):
    """The first failing pair with the certificate switched off."""
    with monkeypatch.context() as m:
        m.setattr(_grid, "gram_bound", lambda *args: np.inf)
        return _grid.multiplicative_failure([f], TOL, adjoint,
                                            [omega.support] if adjoint else None, side)[0]


def _grid_deviation(f, adjoint, omega=None, side="right") -> float:
    """The largest deviation the grid computes: max-abs entry with no support, else
    the operator norm of the product with the support, as `first_failure` measures it."""
    d = f.domain.coord_dim
    img = alg._stacks(f.codomain, f.matrix.T)
    prod = alg.product_index(f.domain)
    lhs_units = prod[alg.adjoint_index(f.domain) if adjoint else np.arange(d)]
    diff = []
    for x in img:
        padded = np.concatenate([x, np.zeros_like(x[:1])])   # unit d is the product 0
        diff.append(padded[lhs_units.ravel()] - _grid.products(x, x, adjoint))
    if not adjoint:
        return float(alg._max_abs(diff).max())
    proj = alg._element_stacks(omega.support)
    return float(alg._op_norm([alg._with_support(x, p, side)
                               for x, p in zip(diff, proj)]).max())


def _report_key(report):
    items = tuple(sorted((k, tuple(b.tobytes() for b in v.blocks))
                         for k, v in (report.witness or {}).items()))
    return report.prop, report.verdict, items


def _reports(f, omega):
    """(fast, loop) report pairs of every pair-grid check of f."""
    yield is_deterministic(_fresh(f)), ref.is_deterministic(f)
    for side in ("right", "left"):
        yield ae_deterministic(_fresh(f), omega, side), ref.ae_deterministic(f, omega, side)


def _depolarized(n: int, lam: float) -> Channel:
    """(1 - lam) id + lam tr(.) 1 / n on M_n: CPU, and multiplicative only at lam = 0."""
    one = np.eye(n).ravel()
    return Channel(AlgebraShape((n,)), AlgebraShape((n,)),
                   (1 - lam) * np.eye(n * n) + lam / n * np.outer(one, one))


def _from_choi(c: np.ndarray, n: int, m: int) -> Channel:
    """The map M_n ~> M_m whose single Choi block is c."""
    mat = c.reshape(n, m, n, m).transpose(1, 3, 0, 2).reshape(m * m, n * n)
    return Channel(AlgebraShape((n,)), AlgebraShape((m,)), mat)


# ---------------------------------------------------------------------------
# what the certificate certifies, and that it certifies only grid passes
# ---------------------------------------------------------------------------

def _chain_shapes(max_dim: int = 6) -> dict:
    """Every (domain blocks, codomain blocks) that props.disintegration_instance
    draws per family, as the consequence-chain benchmark round draws them."""
    dims = range(2, max_dim + 1)
    return {
        "unitary": {((n,), (n,)) for n in dims},
        "padded-block": {((n,), (n, k)) for n in range(2, max_dim) for k in range(1, max_dim + 1)},
        "classical": {((1,) * ny, (1,) * nx) for nx in dims for ny in dims},
    }


@pytest.mark.parametrize("kind", ["unitary", "padded-block", "classical"])
def test_every_chain_shape_is_certified(kind, monkeypatch):
    rng = np.random.default_rng([7, len(kind)])
    want = _chain_shapes()[kind]
    grid_calls = []
    original = _grid.first_failure
    monkeypatch.setattr(_grid, "first_failure",
                        lambda *args, **kw: grid_calls.append(1) or original(*args, **kw))
    seen = set()
    for _ in range(100 * len(want)):
        f, omega, g = props.disintegration_instance(kind, rng, max_dim=6)
        key = (f.domain.blocks, f.codomain.blocks)
        if key in seen:
            continue
        seen.add(key)
        for side in ("right", "left"):
            assert _bound(f, True, omega, side, TOL.eq) <= TOL.eq, (key, side)
            calls = len(grid_calls)
            assert ae_deterministic(_fresh(f), omega, side).passed
            assert len(grid_calls) == calls, key   # no pair grid, and the star pass needs none
        if kind != "padded-block":   # the padded inclusions are not deterministic
            assert _bound(f, False, cap=TOL.eq) <= TOL.eq, key
        if seen == want:
            break
    assert seen == want


def test_m16_passes_on_the_operator_norm_of_the_support(monkeypatch):
    """On M_16 the first pass, with ||P||_F for ||P||, does not certify a rank-deficient
    support; the operator norms of P and F(1) then do, and the 65536-pair grid never runs."""
    s = AlgebraShape((16,))
    f = conjugation_by(AlgElement(s, (props.random_unitary(16, np.random.default_rng(16)),)))
    omega = props.random_rank_deficient_state(s, np.random.default_rng(17))
    assert omega.support != alg.unit(s)
    for side in ("right", "left"):
        assert _bound(f, True, omega, side) > TOL.eq >= _bound(f, True, omega, side, TOL.eq)
    monkeypatch.setattr(_grid, "first_failure", lambda *args, **kw: pytest.fail("grid ran"))
    assert _grid.multiplicative_failure([f], TOL) == [None]
    for side in ("right", "left"):
        assert _grid.multiplicative_failure([f], TOL, True, [omega.support], side) == [None]


def test_a_non_unital_homomorphism_passes_on_the_operator_norm_of_f1(monkeypatch):
    """M_2 into the corner of M_3: F(1) is a projection, so ||F(1) - 1||_F = 1 spoils the
    first pass while ||F(1)|| = 1 certifies, and the grid never runs."""
    def corner(b):
        out = np.zeros((3, 3), dtype=complex)
        out[:2, :2] = b.block(0)
        return AlgElement(AlgebraShape((3,)), (out,))

    f = channel_from_action(AlgebraShape((2,)), AlgebraShape((3,)), corner)
    omega = state_from_density(alg.random_density(f.codomain, np.random.default_rng(23)))
    assert _bound(f, False) > TOL.eq >= _bound(f, False, cap=TOL.eq)
    monkeypatch.setattr(_grid, "first_failure", lambda *args, **kw: pytest.fail("grid ran"))
    assert _grid.multiplicative_failure([f], TOL) == [None]
    for side in ("right", "left"):
        assert _grid.multiplicative_failure([f], TOL, True, [omega.support], side) == [None]


def _families(rng):
    """(label, channel, state): instances, perturbed instances, homomorphisms on
    several blocks, depolarized identities, CPU maps and corpus channels."""
    out = []
    for i in range(18):
        kind = ("unitary", "padded-block", "classical")[i % 3]
        f, omega, g = props.disintegration_instance(kind, rng, max_dim=5)
        out.append((kind, f, omega))
        out.append((f"{kind}-inverse", g, state_from_density(alg.random_density(g.codomain, rng))))
        for eps in (1e-12, 1e-10, 5e-10, 2e-9):
            noise = rng.standard_normal(f.matrix.shape) + 1j * rng.standard_normal(f.matrix.shape)
            out.append((f"{kind}-noise-{eps:g}",
                        Channel(f.domain, f.codomain, f.matrix + eps * noise / np.abs(noise).max()),
                        omega))
    for blocks in ((1, 2), (2, 2, 1), (3, 1, 3), (2, 1, 2)):
        s = AlgebraShape(blocks)
        u = alg._join(s, [np.stack([props.random_unitary(m, rng) for _ in ids])
                          for m, ids, *_ in s._layout.groups])
        omega = state_from_density(alg.random_density(s, rng))
        out += [(f"unitary-{blocks}", conjugation_by(alg._adopt(s, u)), omega),
                (f"identity-{blocks}", identity_channel(s), omega)]
    for n, lam in ((2, 1e-13), (3, 1e-11), (3, 1e-10), (4, 1e-9)):
        s = AlgebraShape((n,))
        out.append((f"depolarized-{n}-{lam:g}", _depolarized(n, lam),
                    props.random_rank_deficient_state(s, rng, full=False)))
    for n, m in ((2, 2), (2, 3), (3, 2)):
        f = props.random_cpu_channel(n, m, rng)
        out.append((f"cpu-{n}-{m}", f, state_from_density(alg.random_density(f.codomain, rng))))
    f, g = corpus.unreasonable_pair()
    corner = np.zeros((4, 4), dtype=complex)
    corner[0, 0] = 1.0
    omega = state_from_density(AlgElement(AlgebraShape((4,)), (corner,)))
    out += [("not-det-reasonable-f", f, omega), ("not-det-reasonable-g", g, omega)]
    _, _, kl_f, kl_g = corpus.kl_channels(0.5)
    kl_omega = state_from_density(alg.random_density(kl_g.codomain, rng))
    out.append(("knill-laflamme-g", kl_g, kl_omega))
    return out


FAMILIES = _families(np.random.default_rng(2024))


@pytest.mark.parametrize("label,f,omega", FAMILIES, ids=[label for label, *_ in FAMILIES])
def test_certified_passes_are_grid_passes(label, f, omega, monkeypatch):
    for name, adjoint, side in SIDES:
        b = _bound(f, adjoint, omega, side, TOL.eq)
        if b <= TOL.eq:
            assert _grid_only(f, adjoint, omega, side, monkeypatch) is None, (label, name)
            assert _grid_deviation(f, adjoint, omega, side) <= b, (label, name)
    for got, want in _reports(f, omega):
        assert _report_key(got) == _report_key(want), label


def test_the_families_reach_both_outcomes():
    outcomes = {_bound(f, adjoint, omega, side, TOL.eq) <= TOL.eq
                for _, f, omega in FAMILIES for _, adjoint, side in SIDES}
    verdicts = {ae_deterministic(_fresh(f), omega, side).verdict
                for _, f, omega in FAMILIES for side in ("right", "left")}
    assert outcomes == {True, False} and verdicts == {"pass", "fail"}


# ---------------------------------------------------------------------------
# the boundary, and the maps the certificate must leave to the grid
# ---------------------------------------------------------------------------

def _at(c: float, n: int, adjoint: bool, omega) -> Channel:
    """The depolarized identity of M_n whose bound is c tol.eq, found by secant steps
    on lam (the bound is affine in lam to far better than the accuracy asked)."""
    def excess(lam):
        return _bound(_depolarized(n, lam), adjoint, omega) - c * TOL.eq

    lo, hi = 1e-14, 1e-11
    for _ in range(4):
        e_lo, e_hi = excess(lo), excess(hi)
        if e_hi == e_lo:
            break
        lo, hi = hi, hi - e_hi * (hi - lo) / (e_hi - e_lo)
    f = _depolarized(n, hi)
    assert abs(_bound(f, adjoint, omega) / TOL.eq - c) <= 1e-3 * c   # the construction is accurate
    return f


@pytest.mark.parametrize("c", [0.5, 0.99, 1.01, 2.0])
@pytest.mark.parametrize("name,adjoint,side", SIDES)
def test_bound_at_c_tol_eq_certifies_below_and_falls_back_above(c, name, adjoint, side,
                                                                monkeypatch):
    n = 3
    omega = props.random_rank_deficient_state(AlgebraShape((n,)), np.random.default_rng(3))
    f = _at(c, n, adjoint, omega)
    grid_calls = []
    original = _grid.first_failure
    monkeypatch.setattr(_grid, "first_failure",
                        lambda *args, **kw: grid_calls.append(args[2]) or original(*args, **kw))
    got = (is_deterministic(_fresh(f)) if not adjoint
           else ae_deterministic(_fresh(f), omega, side))
    want = ref.is_deterministic(f) if not adjoint else ref.ae_deterministic(f, omega, side)
    assert _report_key(got) == _report_key(want) and got.passed   # the deviation is ~ c tol.eq / n
    pair_grids = [cols for cols in grid_calls if cols == f.domain.coord_dim]   # star grid: 1
    # below the bound the grid is skipped; above it the pair grid decides
    assert len(pair_grids) == (0 if c < 1 else 1)


def test_choi_eigenvalue_of_minus_half_tol_psd_is_left_to_the_grid(monkeypatch):
    """id - eta tr(.) 1 on M_3 has the Choi eigenvalue -eta = -tol.psd / 2: CP for `is_cp`,
    not for the certificate, whose shift is far smaller; the grid passes it."""
    n, eta = 3, TOL.psd / 2
    one = np.eye(n).ravel()
    f = Channel(AlgebraShape((n,)), AlgebraShape((n,)), np.eye(n * n) - eta * np.outer(one, one))
    (_, ((h, _),)), = _grid.choi_parts(f.domain, f.codomain, f.matrix)
    assert abs(np.linalg.eigvalsh(h[0, 0])[0] + eta) <= 1e-3 * eta
    assert is_cp(_fresh(f)).passed
    assert _grid._choi_floor(f) is None
    omega = props.random_rank_deficient_state(AlgebraShape((n,)), np.random.default_rng(9))
    for name, adjoint, side in SIDES:
        assert _bound(f, adjoint, omega, side) == np.inf, name
        assert _grid_only(f, adjoint, omega, side, monkeypatch) is None, name
    for got, want in _reports(f, omega):
        assert _report_key(got) == _report_key(want) and got.passed


@pytest.mark.parametrize("blocks", [(2,), (3,), (8,), (2, 1, 3)])
def test_the_transpose_is_left_to_the_grid(blocks):
    s = AlgebraShape(blocks)
    f = transpose_channel(s)
    omega = state_from_density(alg.random_density(s, np.random.default_rng(len(blocks))))
    for name, adjoint, side in SIDES:
        assert _bound(f, adjoint, omega, side) == np.inf, name
    for got, want in _reports(f, omega):
        assert _report_key(got) == _report_key(want) and not got.passed


def _over_unital(n: int, eta: float) -> Channel:
    """alpha z + beta tr(z) 1 on M_n with alpha = 1 + eta and beta > 0 chosen so that
    T = sum_a D(E_a, E_a) vanishes: CP, ||F(1)|| = alpha + n beta > 1, not multiplicative."""
    alpha = 1 + eta
    p, q = n * n - 2 * alpha, n * (alpha * alpha - alpha)   # n beta^2 - p beta + q = 0
    beta = 2 * q / (p + np.sqrt(p * p - 4 * n * q))
    one = np.eye(n).ravel()
    return Channel(AlgebraShape((n,)), AlgebraShape((n,)),
                   alpha * np.eye(n * n) + beta * np.outer(one, one))


def test_unit_above_one_is_in_the_bound():
    """The Gram sum of this map vanishes while its grid fails: only the term for
    ||F(1)|| > 1 keeps the bound above the deviation."""
    n = 3
    f = _over_unital(n, 4 * TOL.eq)
    omega = props.random_rank_deficient_state(AlgebraShape((n,)), np.random.default_rng(4))
    one = (f.matrix @ alg.vec(alg.unit(f.domain))).reshape(n, n)
    b, terms = _terms(f, False)
    assert terms["unit"] >= np.linalg.norm(one, 2) - 1 > 0
    dev = _grid_deviation(f, False)
    assert b >= dev > TOL.eq
    for name, adjoint, side in SIDES:
        assert _bound(f, adjoint, omega, side) >= _grid_deviation(f, adjoint, omega, side), name
        assert _bound(f, adjoint, omega, side, TOL.eq) > TOL.eq, name
    got, want = next(_reports(f, omega))
    assert _report_key(got) == _report_key(want) and not got.passed


# ---------------------------------------------------------------------------
# each error term against the quantity it bounds
# ---------------------------------------------------------------------------

def test_choi_term_covers_the_negative_eigenvalue():
    """A Choi block with lambda_min = -0.9 s, s the certificate's shift, factors after
    the shift; the Choi term must still cover the negative eigenvalue."""
    n = m = 6
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((n * m, n * m))
                        + 1j * rng.standard_normal((n * m, n * m)))
    values = np.ones(n * m)
    shift = 0.25 * _grid._gamma(n * m) * (n * m - 1)
    values[0] = -0.9 * shift
    f = _from_choi((q * values) @ q.conj().T, n, m)
    (_, ((h, _),)), = _grid.choi_parts(f.domain, f.codomain, f.matrix)
    low = np.linalg.eigvalsh(h[0, 0])[0]
    assert -low > 0.5 * shift                       # negative well beyond rounding
    b, terms = _terms(f, False)
    assert b < np.inf   # the shifted block factors
    assert terms["choi"] >= -low


@pytest.mark.skipif(not EXTENDED, reason="needs an extended-precision long double")
def test_choi_term_covers_the_backward_error_of_the_factorization():
    """R*R - fl(H + s I), the backward error of the Cholesky factor, in extended precision,
    for the rank-one Choi block of a unitary conjugation of M_5."""
    n = 5
    s = AlgebraShape((n,))
    f = conjugation_by(AlgElement(s, (props.random_unitary(n, np.random.default_rng(2)),)))
    (_, ((h, _),)), = _grid.choi_parts(f.domain, f.codomain, f.matrix)
    a = h[0, 0].copy()
    a[np.diag_indices(n * n)] += 0.25 * _grid._gamma(n * n) * np.trace(a).real + _grid._TINY
    r = np.linalg.cholesky(a).astype(np.clongdouble)
    error = np.linalg.norm((r @ r.conj().T - a.astype(np.clongdouble)).astype(complex), 2)
    b, terms = _terms(f, False)
    assert b < np.inf
    assert terms["backward"] >= error > 0


def _skewed(n: int, sigma: float, rng) -> Channel:
    """id + sigma (R - R#) / 2 on M_n, R# = R(.*)*: a Hermitian Choi part that is the
    identity's, and a skew part of size sigma: star-preserving only to sigma."""
    s = AlgebraShape((n,))
    raw = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    adj = alg.adjoint_index(s)
    sharp = raw[adj][:, adj].conj()                 # the matrix of z -> R(z*)*
    return Channel(s, s, np.eye(n * n) + sigma * (raw - sharp) / 2)


def _images(f: Channel) -> list[np.ndarray]:
    """F(E_a) for every unit a, as dense blocks of one codomain block."""
    (m,) = f.codomain.blocks
    return [f.matrix[:, a].reshape(m, m) for a in range(f.domain.coord_dim)]


def test_skew_and_star_terms_cover_the_star_deviation():
    n = 3
    f = _skewed(n, 1e-11, np.random.default_rng(8))
    img, adj = _images(f), alg.adjoint_index(f.domain)
    star = [img[a] - img[adj[a]].conj().T for a in range(len(img))]
    b, terms = _terms(f, False)
    assert b < np.inf
    # ||F(E_a) - F_H(E_a)||, F_H the map of the Hermitian parts of the Choi blocks
    assert terms["skew"] >= max(np.linalg.norm(x, 2) for x in star) / 2 > 0
    assert terms["star"] >= max(np.linalg.norm(x @ y, 2) for x in star for y in img) > 0
    omega = props.random_rank_deficient_state(f.codomain, np.random.default_rng(8))
    for name, adjoint, side in SIDES:
        assert _bound(f, adjoint, omega, side) >= _grid_deviation(f, adjoint, omega, side), name


@pytest.mark.skipif(not EXTENDED, reason="needs an extended-precision long double")
def test_rounding_of_t_is_covered():
    """T of a unitary conjugation is 0 up to rounding, so the measured error of the
    computed T is all rounding, and the term must cover it."""
    n = 4
    s = AlgebraShape((n,))
    f = conjugation_by(AlgElement(s, (props.random_unitary(n, np.random.default_rng(1)),)))
    img = _images(f)
    weights = n * alg.vec(alg.unit(s)).real

    def t_of(dtype):
        mat = f.matrix.astype(dtype)
        big = (mat @ weights.astype(dtype)).reshape(n, n)
        return big - sum(x.astype(dtype).conj().T @ x.astype(dtype) for x in img)

    error = np.linalg.norm((t_of(np.clongdouble) - t_of(complex)).astype(complex))
    b, terms = _terms(f, False)
    assert b < np.inf
    assert terms["t_round"] >= error > 0


@pytest.mark.skipif(not EXTENDED, reason="needs an extended-precision long double")
def test_rounding_of_the_products_is_covered():
    """The grid's entries fl(F(E_a)* F(E_b)) and fl(diff P), and P* T P, against the same
    products in extended precision, for a random CPU map and a rank-deficient support."""
    n = 3
    rng = np.random.default_rng(12)
    f = props.random_cpu_channel(n, n, rng)
    omega = props.random_rank_deficient_state(f.codomain, rng)
    p = alg.vec(omega.support).reshape(n, n)
    bound, terms = _terms(f, True, omega)
    assert bound < np.inf
    img = _images(f)
    worst_pair, worst_product = 0.0, 0.0
    prod = alg.product_index(f.domain)[alg.adjoint_index(f.domain)]
    for a, x in enumerate(img):
        for b, y in enumerate(img):
            c = prod[a, b]
            left = f.matrix[:, c].reshape(n, n) if c < len(img) else np.zeros((n, n))
            diff = left - x.conj().T @ y
            exact = left.astype(np.clongdouble) - x.astype(np.clongdouble).conj().T @ y.astype(
                np.clongdouble)
            worst_pair = max(worst_pair, np.linalg.norm((diff - exact).astype(complex)))
            with_p = diff.astype(np.clongdouble) @ p.astype(np.clongdouble)
            worst_product = max(worst_product, np.linalg.norm(
                (diff @ p - with_p).astype(complex)))
    assert terms["grid_round"] >= worst_pair > 0
    assert terms["product_round"] * np.linalg.norm(p, 2) >= worst_product > 0
    t = f.matrix @ (n * alg.vec(alg.unit(f.domain)).real)
    t = t.reshape(n, n) - sum(x.conj().T @ x for x in img)
    ptp = p.conj().T @ t @ p
    exact = p.astype(np.clongdouble).conj().T @ t.astype(np.clongdouble) @ p.astype(np.clongdouble)
    error = np.linalg.norm((ptp - exact).astype(complex))
    assert terms["p_round"] * np.linalg.norm(p, 2) ** 2 * np.linalg.norm(t) >= error > 0


# ---------------------------------------------------------------------------
# entries above 2^500
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1e200, 1e300, 2.0 ** 501])
def test_huge_entries_fail_at_the_first_pair_without_overflow(scale):
    """numpy RuntimeWarnings are errors under pytest, so an overflow would raise here."""
    s = AlgebraShape((2,))
    f = Channel(s, s, scale * np.eye(4))
    omega = state_from_density(AlgElement(s, (np.diag([0.5, 0.5]).astype(complex),)))
    assert _bound(f, False) == np.inf and _bound(f, True, omega) == np.inf
    for got in (is_deterministic(_fresh(f)),
                ae_deterministic(_fresh(f), omega, "right"),
                ae_deterministic(_fresh(f), omega, "left")):
        assert not got.passed
        units = {k: int(np.flatnonzero(alg.vec(v))[0]) for k, v in got.witness.items()}
        assert units == {"left_input": 0, "right_input": 0}


def test_the_scaled_grid_finds_the_first_failing_pair():
    """Above 2^500 the grid compares operands scaled by a power of two: on C^2 with
    F(E_0) = E_0 and F(E_1) = 2^510 E_1 the pairs of E_0 pass and (1, 1) fails."""
    s = AlgebraShape((1, 1))
    f = Channel(s, s, np.diag([1.0, 2.0 ** 510]))
    got = is_deterministic(f)
    assert not got.passed
    units = {k: int(np.flatnonzero(alg.vec(v))[0]) for k, v in got.witness.items()}
    assert units == {"left_input": 1, "right_input": 1}
