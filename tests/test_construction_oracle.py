"""Differential oracle: the closed-form constructions against their loops.

`choi`, `tensor`, `mult_map` and `transpose_channel` only copy or multiply
single entries, so they must match the loops in `loop_reference.py`
exactly.  `ad_channel`, `conjugation_by`, `kraus_channel`, the Bayes and
Petz candidates, the column-product sides of the Bayes condition and the
commutative disintegration sum in another order, so they must match to
1e-13 * max(1, ||M||); `kraus_channel` and `ad_channel` must also equal
the sums of `np.kron` products bit for bit.  `is_cp` must give the same verdict and witness
block as the loop that decides the full Choi matrix of each domain block,
and `verify_bayes` the same verdict and witness pair as the loop over
pairs of units.  The column products run one BLAS call per block size, so the
shapes cover the sizes BLAS takes (M_8, M_12, C^32), interleaved block sizes,
and 1 x 1 blocks whose broadcast products make signed zeros.
"""
import tracemalloc

import numpy as np
import pytest

import loop_reference as ref
from qmarkov import _grid, corpus, props
from qmarkov import algebra as alg
from qmarkov import finstoch as fs
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.bayes import _bayes_report, _bayes_sides, bayes_candidate, bayes_problem
from qmarkov.bayes import commutative_disintegration, petz_recovery, verify_bayes
from qmarkov.bayes import verify_disintegration
from qmarkov.channel import (
    Channel,
    _kron,
    _tensor_matrix,
    ad_channel,
    channel_from_action,
    choi,
    compose,
    conjugation_by,
    is_cp,
    kraus_channel,
    mult_map,
    tensor,
    transpose_channel,
)
from qmarkov.state import state_from_density
from qmarkov.tolerances import Tolerance

SHAPES = [(1,), (2,), (3,), (1, 1, 1), (1, 2), (2, 1, 3), (1, 2, 2, 3)]
# (domain, codomain) pairs at the sizes one BLAS call per block size takes, and with the
# block sizes of both interleaved
BLAS_PAIRS = [((8,), (8,)), ((12,), (12,)), ((1,) * 32, (1,) * 32), ((2, 1, 2), (1, 3, 1)),
              ((1, 3, 1), (2, 1, 2))]


def _shape(blocks) -> AlgebraShape:
    return AlgebraShape(tuple(blocks))


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    scale = max(1.0, np.linalg.norm(want, 2)) if want.size else 1.0
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale


def _random_cp(dom: AlgebraShape, cod: AlgebraShape, rng) -> Channel:
    """B |-> pinch(V* B V) for a random V: CP between any two shapes, and
    unital when V is an isometry, which it is when dom is the larger."""
    v = rng.standard_normal((dom.total_dim, cod.total_dim)) \
        + 1j * rng.standard_normal((dom.total_dim, cod.total_dim))
    if dom.total_dim >= cod.total_dim:
        v = np.linalg.qr(v)[0]
    ends = np.cumsum(cod.blocks)

    def act(b):
        big = v.conj().T @ alg.block_embed(b) @ v
        return AlgElement(cod, tuple(big[e - n:e, e - n:e] for n, e in zip(cod.blocks, ends)))

    return channel_from_action(dom, cod, act)


def _random_star(dom: AlgebraShape, cod: AlgebraShape, rng) -> Channel:
    """A random star-preserving map: Hermitian Choi blocks, almost never PSD."""
    return props._random_star_preserving(dom, cod, rng)


def _random_map(dom: AlgebraShape, cod: AlgebraShape, rng) -> Channel:
    shape = (cod.coord_dim, dom.coord_dim)
    return Channel(dom, cod, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _with_block(f: Channel, g: Channel, y: int) -> Channel:
    """f with the columns of domain block y taken from g."""
    off, n = f.domain.offsets()[y], f.domain.blocks[y]
    mat = f.matrix.copy()
    mat[:, off:off + n * n] = g.matrix[:, off:off + n * n]
    return Channel(f.domain, f.codomain, mat)


def _channels(rng):
    """(label, channel) over CPU, transposed, non-CP and mixed multi-block maps."""
    out = []
    for n_dom, n_cod in ((1, 1), (2, 2), (2, 3), (3, 2), (4, 4)):
        out.append((f"cpu-{n_dom}-{n_cod}", props.random_cpu_channel(n_dom, n_cod, rng)))
    for blocks in SHAPES:
        out.append((f"transpose-{blocks}", transpose_channel(_shape(blocks))))
    pairs = [((1, 2, 2, 3), (2, 1, 3)), ((2, 1, 3), (1, 2, 2, 3)), ((1, 1, 1), (2,)),
             ((2,), (1, 1, 1)), ((1, 2), (1, 2))]
    for dom, cod in pairs:
        dom, cod = _shape(dom), _shape(cod)
        cp = _random_cp(dom, cod, rng)
        out += [(f"cp-{dom}-{cod}", cp),
                (f"star-{dom}-{cod}", _random_star(dom, cod, rng)),
                (f"raw-{dom}-{cod}", _random_map(dom, cod, rng))]
        for y in range(1, len(dom.blocks)):
            out.append((f"cp-but-{y}-{dom}-{cod}", _with_block(cp, _random_star(dom, cod, rng), y)))
    _, _, kl_f, kl_g = corpus.kl_channels(0.5)
    out += [("knill-laflamme-f", kl_f), ("knill-laflamme-g", kl_g),
            ("mult-m2", mult_map(AlgebraShape((2,)))),
            ("epr", corpus.epr_conditional()[0])]
    return out


def test_choi_tensor_mult_transpose_are_bitwise_identical():
    rng = np.random.default_rng(31)
    channels = _channels(rng)
    for label, f in channels:
        for got, want in zip(choi(f), ref.choi(f), strict=True):
            assert np.array_equal(got, want), label
    small = [(label, f) for label, f in channels if f.domain.coord_dim * f.codomain.coord_dim <= 100]
    for (la, f), (lb, g) in zip(small, small[::-1]):
        assert np.array_equal(tensor(f, g).matrix, ref.tensor(f, g).matrix), (la, lb)
    for blocks in SHAPES:
        s = _shape(blocks)
        assert np.array_equal(mult_map(s).matrix, ref.mult_map(s).matrix), blocks
        assert np.array_equal(transpose_channel(s).matrix, ref.transpose_channel(s).matrix), blocks


@pytest.mark.parametrize("dims", [((4,), (4,), (4,), (4,)), ((5,), (5,), (3,), (3,)),
                                  ((1, 2), (3, 2), (3, 2), (3, 2)),
                                  ((2, 1, 3), (3, 2), (3, 2), (1, 2))])
def test_tensor_above_one_chunk_is_bitwise_the_loop(dims):
    # domains and codomains of F and G: every entry of F (x) G is one product,
    # whichever row chunk of the output writes it
    df, cf, dg, cg = (_shape(d) for d in dims)
    rng = np.random.default_rng(sum(map(sum, dims)))
    f, g = _random_map(df, cf, rng), _random_map(dg, cg, rng)
    for a, b in ((f, g), (g, f)):
        got = tensor(a, b).matrix
        assert got.size > _grid._CHUNK
        assert np.array_equal(got, ref.tensor(a, b).matrix), dims


@pytest.mark.parametrize("lead, dims", [((3,), ((3,), (3,), (3,), (3,))),
                                        ((2, 3), ((3,), (1, 2), (3,), (2, 1))),
                                        ((40,), ((4,), (1,), (4,), (1,)))])
def test_stacked_tensor_matrix_is_one_tensor_per_entry(lead, dims):
    # domains and codomains of F and G; the stacks span several row chunks, and the
    # last has rows wider than a chunk
    df, cf, dg, cg = (_shape(d) for d in dims)
    rng = np.random.default_rng(len(lead) + lead[-1])
    fm = rng.standard_normal(lead + (cf.coord_dim, df.coord_dim)) + 1j * rng.standard_normal(
        lead + (cf.coord_dim, df.coord_dim))
    gm = rng.standard_normal(lead + (cg.coord_dim, dg.coord_dim)) + 1j * rng.standard_normal(
        lead + (cg.coord_dim, dg.coord_dim))
    got = _tensor_matrix((cf, cg), (df, dg), fm, gm)
    assert got.size > _grid._CHUNK
    for i in np.ndindex(*lead):
        want = tensor(Channel(df, cf, fm[i]), Channel(dg, cg, gm[i])).matrix
        assert np.array_equal(got[i], want), i


def test_tensor_allocates_little_beyond_its_output():
    # the product is written in row chunks into the one output: no full-size gathers
    rng = np.random.default_rng(35)
    f = props.random_cpu_channel(5, 5, rng)
    out = tensor(f, f).matrix.nbytes   # warms the index tables
    tracemalloc.start()
    try:
        tensor(f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * out, (peak, out)


def test_bayes_sides_agree_with_product_form():
    # the dense form: lhs and rhs as products with T[i, j] = state(E_i E_j)
    rng = np.random.default_rng(32)
    pairs = [(dom, cod) for dom in SHAPES for cod in ((2,), (1, 2), (2, 1, 2))] + BLAS_PAIRS
    for dom, cod in pairs:
        dom_s, cod_s = _shape(dom), _shape(cod)
        f, g = _random_map(dom_s, cod_s, rng), _random_map(cod_s, dom_s, rng)
        for full in (True, False):
            xi = props.random_rank_deficient_state(dom_s, rng, full=full)
            omega = props.random_rank_deficient_state(cod_s, rng, full=full)
            t_xi, t_omega = ref.product_form(xi), ref.product_form(omega)
            want = {"left": (g.matrix.T @ t_xi, t_omega @ f.matrix),
                    "right": ((t_xi @ g.matrix).T, (f.matrix.T @ t_omega).T)}
            for side, (lhs, rhs) in want.items():
                got = _bayes_sides(f, g, alg.vec(xi.density), alg.vec(omega.density), side)
                assert _close(got[0], lhs) and _close(got[1], rhs), (dom, cod, side)


def test_conjugations_and_kraus_agree_with_loops():
    rng = np.random.default_rng(33)
    for blocks in SHAPES:
        e = alg.random_element(_shape(blocks), rng)
        assert _close(conjugation_by(e).matrix, ref.conjugation_by(e).matrix), blocks
    for p, q in ((1, 1), (2, 3), (3, 2), (4, 4)):
        v = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        assert _close(ad_channel(v).matrix, ref.ad_channel(v).matrix), (p, q)
    for n, m, k in ((1, 1, 1), (2, 3, 2), (3, 2, 3), (4, 4, 5)):
        ops = [rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)) for _ in range(k)]
        dom, cod = AlgebraShape((n,)), AlgebraShape((m,))
        assert _close(kraus_channel(dom, cod, ops).matrix,
                      ref.kraus_channel(dom, cod, ops).matrix), (n, m, k)


@pytest.mark.parametrize("n, m, k", [(1, 1, 1), (2, 3, 2), (3, 2, 3), (8, 8, 4)])
def test_kraus_and_ad_channels_are_bitwise_the_kron_sums(n, m, k):
    # the broadcast products are np.kron's own products, summed in the same order
    rng = np.random.default_rng(100 * n + 10 * m + k)
    ops = [rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)) for _ in range(k)]
    got = kraus_channel(AlgebraShape((n,)), AlgebraShape((m,)), ops).matrix
    assert np.array_equal(got, ref.kron_channel_matrix(ops))
    v = ops[-1]
    assert np.array_equal(ad_channel(v).matrix, np.kron(v, v.conj()))
    for a, b in ((v, ops[0].T), (v[0], ops[0][:, 0]), (v[:1, :1], v)):
        assert np.array_equal(_kron(a, b), np.kron(a, b))


def _problems(rng):
    """Bayes problems with full and deficient priors, single and multi-block."""
    out = []
    for n_dom, n_cod in ((2, 2), (2, 3), (3, 2)):
        f = props.random_cpu_channel(n_dom, n_cod, rng)
        for full in (True, False):
            out.append(bayes_problem(f, props.random_rank_deficient_state(f.codomain, rng, full)))
    for dom, cod in (((1, 2, 3), (2, 1, 3)), ((1, 2, 2, 3), (2, 1, 3)), ((2, 1), (1, 1, 1))):
        f = _random_cp(_shape(dom), _shape(cod), rng)
        for full in (True, False):
            out.append(bayes_problem(f, props.random_rank_deficient_state(f.codomain, rng, full)))
    for kind in ("unitary", "padded-block", "classical"):
        f, omega, _ = props.disintegration_instance(kind, rng, max_dim=4)
        out.append(bayes_problem(f, omega))
    kern = fs.stochastic(rng.dirichlet(np.ones(5), size=4).T.tolist())
    out.append(bayes_problem(fs.embed(kern), fs.embed_prob(fs.prob_vector([0.5, 0.5, 0, 0]))))
    return out + _blas_problems(rng)


def _blas_problems(rng):
    """Bayes problems on the BLAS_PAIRS shapes: CPU channels of M_8 and M_12 with
    faithful priors, a dense kernel on 32 points, and the interleaved pairs with full
    and deficient priors."""
    out = [bayes_problem(props.random_cpu_channel(n, n, rng),
                         state_from_density(alg.random_density(AlgebraShape((n,)), rng)))
           for n in (8, 12)]
    kern = fs.stochastic(rng.dirichlet(np.ones(32), size=32).T.tolist())
    out.append(bayes_problem(fs.embed(kern),
                             fs.embed_prob(fs.prob_vector(rng.dirichlet(np.ones(32)).tolist()))))
    for dom, cod in BLAS_PAIRS[3:]:
        f = _random_cp(_shape(dom), _shape(cod), rng)
        for full in (True, False):
            out.append(bayes_problem(f, props.random_rank_deficient_state(f.codomain, rng, full)))
    return out


def test_bayes_and_petz_candidates_agree_with_loops():
    rng = np.random.default_rng(34)
    problems = _problems(rng)
    assert len(problems) >= 16
    for prob in problems:
        label = (prob.channel.domain, prob.channel.codomain)
        assert _close(bayes_candidate(prob).candidate.matrix,
                      ref.bayes_candidate_channel(prob).matrix), label
        assert _close(petz_recovery(prob).matrix, ref.petz_recovery(prob).matrix), label


def _bayes_key(report):
    w = report.witness or {}
    pair = tuple(int(alg.vec(w[k]).argmax()) for k in ("a_input", "b_input") if k in w)
    return report.verdict, pair


def _bayes_instances(rng):
    """(f, omega, xi, g): Bayes candidates, which pass on the left, the transpose
    channel, and candidates perturbed past the tolerance, on many shapes."""
    shapes = [_shape(b) for b in SHAPES] + [_shape((2, 1, 2)), AlgebraShape((1,) * 16)]
    shapes.sort(key=lambda s: s.total_dim)   # _random_cp is unital into a smaller algebra
    problems = []
    for i, (dom, cod) in enumerate(zip(shapes, shapes[:1] + shapes[:-1])):
        full = bool(i % 2)
        problems.append(bayes_problem(_random_cp(dom, cod, rng),
                                      props.random_rank_deficient_state(cod, rng, full)))
    for blocks in ((2,), (1, 2), (2, 1, 2)):
        s = _shape(blocks)
        problems.append(bayes_problem(transpose_channel(s),
                                      props.random_rank_deficient_state(s, rng, True)))
    for i, prob in enumerate(problems):
        f, omega, xi = prob.channel, prob.prior, prob.pullback
        g = bayes_candidate(prob).candidate
        noise = (1e-3, 1e-6)[i % 2] * _random_map(g.domain, g.codomain, rng).matrix
        yield f, omega, xi, g
        yield f, omega, xi, Channel(g.domain, g.codomain, g.matrix + noise)
    prob = bayes_problem(props.random_cpu_channel(12, 12, rng),
                         state_from_density(alg.random_density(AlgebraShape((12,)), rng)))
    yield prob.channel, prob.prior, prob.pullback, bayes_candidate(prob).candidate


def _tied(inst, side, got, want) -> bool:
    """Whether the loop's two witness pairs fail by the same excess over their
    bounds up to rounding, as pairs related by a symmetry of the problem do."""
    lhs, rhs = ref.bayes_sides(*inst, side)
    tol = Tolerance()

    def excess(key):
        u, v = lhs[key[1][0]][key[1][1]], rhs[key[1][0]][key[1][1]]
        return abs(u - v) - tol.eq * max(1.0, abs(u), abs(v)), max(1.0, abs(u), abs(v))

    (e_got, scale), (e_want, _) = excess(_bayes_key(got)), excess(_bayes_key(want))
    return got.verdict == want.verdict == "fail" and abs(e_got - e_want) <= 1e-13 * scale


def test_verify_bayes_agrees_with_loop():
    rng = np.random.default_rng(39)
    keys = set()
    for f, omega, xi, g in _bayes_instances(rng):
        for side in ("left", "right"):
            got, want = verify_bayes(f, omega, xi, g, side), ref.verify_bayes(f, omega, xi, g, side)
            label = (f.domain, f.codomain, side)
            assert _bayes_key(got) == _bayes_key(want) or _tied((f, omega, xi, g), side, got,
                                                                want), label
            keys.add((side, got.verdict))
            if not got.passed:
                for k in ("lhs", "rhs"):
                    assert abs(got.witness[k] - want.witness[k]) <= 1e-13 * max(
                        1.0, abs(want.witness[k])), label
    assert keys == {(side, v) for side in ("left", "right") for v in ("pass", "fail")}


def _signed_zero_instance(rng):
    """(f, omega, xi, g) on C^6 with real signed maps and priors zero on four points:
    sigma_b G(E_a)_b is -0.0 where sigma_b = 0 and the entry is negative."""
    s = AlgebraShape((1,) * 6)
    f, g = (Channel(s, s, rng.standard_normal((6, 6))) for _ in range(2))
    omega, xi = (state_from_density(alg.unvec(s, p)) for p in ([0.5, 0.5, 0, 0, 0, 0],
                                                               [0, 0.25, 0, 0.75, 0, 0]))
    return f, omega, xi, g


def test_verify_bayes_agrees_with_loop_at_blas_sizes():
    rng = np.random.default_rng(40)
    instances = []
    for prob in _blas_problems(rng):
        g = bayes_candidate(prob).candidate
        instances.append((prob.channel, prob.prior, prob.pullback, g))
        if g.domain.total_dim <= 8:   # the loop takes a second on M_12 and on C^32
            noise = 1e-6 * _random_map(g.domain, g.codomain, rng).matrix
            instances.append((prob.channel, prob.prior, prob.pullback,
                              Channel(g.domain, g.codomain, g.matrix + noise)))
    inst = _signed_zero_instance(rng)
    lhs = _bayes_sides(inst[0], inst[3], alg.vec(inst[2].density), alg.vec(inst[1].density),
                       "left")[0]
    assert np.signbit(lhs.real[lhs.real == 0]).any()   # the case makes signed zeros
    instances.append(inst)
    keys = set()
    for f, omega, xi, g in instances:
        for side in ("left", "right"):
            got, want = verify_bayes(f, omega, xi, g, side), ref.verify_bayes(f, omega, xi, g, side)
            label = (f.domain, f.codomain, side)
            assert _bayes_key(got) == _bayes_key(want) or _tied((f, omega, xi, g), side, got,
                                                                want), label
            keys.add((side, got.verdict))
    assert keys == {(side, v) for side in ("left", "right") for v in ("pass", "fail")}


def test_verify_bayes_decides_overflowing_sides_scaled():
    # F = 1.7e308 ones(9, 9) of M_3 and a pure state xi = omega: the sides overflow, and
    # inf - inf read as a NaN deviation, which passed.  They are decided scaled by 2^-e,
    # as the loop decides the problem with F and G scaled by 2^-e
    s = AlgebraShape((3,))
    v = np.array([0.8, 0.42, 0.42]) / np.linalg.norm([0.8, 0.42, 0.42])
    xi = state_from_density(AlgElement(s, (np.outer(v, v),)))
    f = Channel(s, s, 1.7e308 * np.ones((9, 9)))
    for g in (f, Channel(s, s, 1.6e308 * np.ones((9, 9)))):
        e = int(max(alg.scale_exponent(f.matrix, 500), alg.scale_exponent(g.matrix, 500)))
        f_e, g_e = (Channel(s, s, h.matrix * 2.0 ** -e) for h in (f, g))
        for side in ("left", "right"):
            got, want = verify_bayes(f, xi, xi, g, side), ref.verify_bayes(f_e, xi, xi, g_e, side)
            assert got.verdict == want.verdict == "fail", side
            assert _bayes_key(got) == _bayes_key(want) or _tied((f_e, xi, xi, g_e), side, got, want)
            assert got.witness["scale_exponent"] == -e
            for k in ("lhs", "rhs"):
                assert got.witness[k] == pytest.approx(want.witness[k], rel=1e-13)


def test_verify_bayes_runs_unscaled_below_an_overflow():
    # entries near 2^499: no side overflows, so the report reads the unscaled sides
    rng = np.random.default_rng(41)
    prob = _problems(rng)[0]
    f = Channel(prob.channel.domain, prob.channel.codomain, 2.0 ** 499 * prob.channel.matrix)
    g = bayes_candidate(prob).candidate
    g = Channel(g.domain, g.codomain, 2.0 ** 499 * (g.matrix + 1e-3))
    sigma, rho = alg.vec(prob.pullback.density), alg.vec(prob.prior.density)
    for side in ("left", "right"):
        got = verify_bayes(f, prob.prior, prob.pullback, g, side)
        assert got.verdict == "fail" and "scale_exponent" not in got.witness
        lhs, rhs = _bayes_sides(f, g, sigma, rho, side)
        a, b = _bayes_key(got)[1]
        assert (got.witness["lhs"], got.witness["rhs"]) == (lhs[a, b], rhs[a, b])


def test_bayes_report_fails_a_nan_deviation():
    # `nan > tol.eq` is false, so a grid whose largest deviation is NaN used to pass
    prob = _problems(np.random.default_rng(42))[0]
    g = bayes_candidate(prob).candidate
    sigma = alg.vec(prob.pullback.density).copy()
    sigma[0] = np.nan
    for side in ("left", "right"):
        rep = _bayes_report(prob.channel, g, sigma, alg.vec(prob.prior.density), side, Tolerance())
        assert rep.verdict == "fail", side

def test_verify_bayes_bounds_a_deviation_above_tol_eq_by_its_scale():
    # lhs and rhs near 1e6, so a deviation above tol.eq can be within tol.eq |lhs|
    s, tol = AlgebraShape((2,)), Tolerance()
    omega = state_from_density(alg.unvec(s, [0.5, 0, 0, 0.5]))
    f = Channel(s, s, 2e6 * np.eye(4))
    for dev, verdict in ((1e-5, "pass"), (5e-4, "pass"), (1e-2, "fail")):
        g = Channel(s, s, 2e6 * np.eye(4) + np.diag([2 * dev, 0, 0, 0]))
        got = verify_bayes(f, omega, omega, g, "left", tol)
        assert got.verdict == verdict and _bayes_key(got) == _bayes_key(
            ref.verify_bayes(f, omega, omega, g, "left", tol)), dev
        if verdict == "pass":
            assert tol.eq < float(got.detail.split()[-1]) == pytest.approx(dev, rel=1e-3)


def _commutative_instances(rng, draws: int = 12):
    """Commutative codomains read through scalar domain blocks on their support;
    matrix blocks of the domain, and blocks no support point reads, are dead."""
    for _ in range(draws):
        dom = _shape(rng.choice([1, 1, 2, 3], size=int(rng.integers(2, 6))))
        scalar = [y for y, n in enumerate(dom.blocks) if n == 1] or [None]
        if scalar == [None]:
            continue
        nx = int(rng.integers(2, 7))
        cod = AlgebraShape((1,) * nx)
        func = rng.choice(scalar, size=nx)
        weights = rng.integers(0, 3, size=nx).astype(float)
        weights[0] = max(weights[0], 1.0)

        def act(b, func=func, cod=cod, weights=weights):
            vals = [b.blocks[y][0, 0] if w > 0 else np.trace(b.blocks[-1]) / b.blocks[-1].shape[0]
                    for y, w in zip(func, weights)]
            return AlgElement(cod, tuple(np.array([[v]]) for v in vals))

        f = channel_from_action(dom, cod, act)
        omega = state_from_density(AlgElement(
            cod, tuple(np.array([[w / weights.sum()]]) for w in weights)))
        yield f, omega


def test_commutative_disintegration_agrees_with_loop():
    rng = np.random.default_rng(35)
    cases = list(_commutative_instances(rng))
    for kind in ("classical",) * 4:
        f, omega, _ = props.disintegration_instance(kind, rng, max_dim=6)
        cases.append((f, omega))
    assert len(cases) >= 10
    for f, omega in cases:
        got = commutative_disintegration(f, omega)
        assert _close(got.matrix, ref.commutative_disintegration(f, omega).matrix), f.domain


def test_commutative_disintegration_is_the_bayes_candidate():
    """The constructor is the Bayes candidate of an a.e. deterministic map, with the
    normalized trace completion, and that candidate disintegrates the map: on mixed
    domains with dead matrix blocks, zero-weight points and embedded functions."""
    rng = np.random.default_rng(36)
    cases = list(_commutative_instances(rng, 150))
    for _ in range(20):
        f, omega, _ = props.disintegration_instance("classical", rng, max_dim=6)
        cases.append((f, omega))
    assert len(cases) >= 120
    for f, omega in cases:
        got = commutative_disintegration(f, omega)
        want = bayes_candidate(bayes_problem(f, omega)).candidate
        assert _close(got.matrix, want.matrix), f.domain
        assert verify_disintegration(f, omega, got).passed, f.domain


def _cp_key(report):
    return report.verdict, (report.witness or {}).get("domain_block")


@pytest.fixture
def exact_norms(monkeypatch):
    """Counts the domain blocks whose Choi scale needed an exact norm."""
    seen = []
    exact = alg._op_norm

    def counting(xs):
        seen.append(len(xs[0]))
        return exact(xs)

    monkeypatch.setattr(alg, "_op_norm", counting)
    return seen


def test_is_cp_agrees_with_loop():
    rng = np.random.default_rng(36)
    verdicts = set()
    for label, f in _channels(rng):
        for tol in (Tolerance(), Tolerance(herm=1e-3)):
            got = is_cp(Channel(f.domain, f.codomain, f.matrix), tol)
            want = ref.is_cp(f, tol)
            assert _cp_key(got) == _cp_key(want), label
            verdicts.add(_cp_key(got))
    # passes, and failures at the first and at later domain blocks
    assert {("pass", None), ("fail", 0), ("fail", 1), ("fail", 2)} <= verdicts


def _from_choi(c: np.ndarray, n: int, m: int) -> Channel:
    """The map M_n ~> M_m whose single Choi block is c."""
    mat = c.reshape(n, m, n, m).transpose(1, 3, 0, 2).reshape(m * m, n * n)
    return Channel(AlgebraShape((n,)), AlgebraShape((m,)), mat)


def _near_threshold(rng, herm: float, sign: float, margin: float) -> tuple[Channel, Tolerance]:
    """A map whose Choi minimum eigenvalue sits a relative `margin` beyond
    (sign +1) or inside (sign -1) the PSD bound, with an anti-Hermitian part
    that makes the two cheap scale bounds straddle the bound."""
    n, m = 2, 3
    k = rng.standard_normal((n * m, n * m - 1)) + 1j * rng.standard_normal((n * m, n * m - 1))
    h0 = k @ k.conj().T                                     # PSD with a kernel vector
    kernel = np.linalg.eigh(h0)[1][:, 0]
    a = rng.standard_normal(h0.shape) + 1j * rng.standard_normal(h0.shape)
    skew = 0.5 * (a - a.conj().T)
    skew *= 0.1 * herm * np.linalg.norm(h0, 2) / np.abs(skew).max()
    c0 = h0 + skew
    eps = 1e-9 * np.linalg.norm(c0, 2) * (1 + sign * margin)
    c = c0 - eps * np.outer(kernel, kernel.conj())
    return _from_choi(c, n, m), Tolerance(herm=herm)


def test_is_cp_near_threshold_takes_the_exact_norm(exact_norms):
    rng = np.random.default_rng(37)
    verdicts = []
    for herm in (1e-3, 1e-1):
        for sign in (1.0, -1.0):
            for margin in (1e-5, 1e-4):
                for _ in range(3):
                    f, tol = _near_threshold(rng, herm, sign, margin)
                    got, want = is_cp(f, tol), ref.is_cp(f, tol)
                    assert _cp_key(got) == _cp_key(want), (herm, sign, margin)
                    verdicts.append(got.verdict)
    assert sum(exact_norms) > 0          # the cheap bounds left some blocks open
    assert {"pass", "fail"} <= set(verdicts)


def test_composed_and_tensored_cp_maps_stay_cp():
    rng = np.random.default_rng(38)
    f = _random_cp(_shape((1, 2)), _shape((2, 1)), rng)
    g = _random_cp(_shape((2, 1)), _shape((1, 2)), rng)
    for h in (compose(f, g), tensor(f, g), tensor(transpose_channel(_shape((1, 2))), f)):
        assert _cp_key(is_cp(h)) == _cp_key(ref.is_cp(h))
    assert is_cp(tensor(f, g)).passed and not is_cp(tensor(transpose_channel(_shape((2,))), f)).passed
