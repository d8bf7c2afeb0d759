"""Differential oracle: classical kernels on arrays against per-entry loops.

`finstoch` runs each operation once on numpy arrays (object arrays of
Fractions, or floats) under one zero threshold; `loop_reference.py` keeps
the versions that visit every entry with one branch for Fractions and one
for floats.  Exact results must be equal and hold nothing but Fractions,
float results must be bitwise equal, and verdicts, witnesses and error
messages must be the same.  The inputs are random rational kernels and
priors with zero rows and null points, their float copies, mixed
exact/float operands, and float entries within 1e-3 (relative) of each
tol.eq threshold, on either side.
"""
import ast
import dataclasses
import inspect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import loop_reference as ref
from qmarkov import algebra as alg
from qmarkov import finstoch as fs
from qmarkov.errors import QmarkovError
from qmarkov.tolerances import DEFAULT_TOL, Tolerance

EPS = DEFAULT_TOL.eq
SIDES = (1 - 1e-3, 1 + 1e-3)


def _lowest_terms(v) -> bool:
    """The numerators an exact v carries are in lowest terms over its denominator, and
    int64 when they fit."""
    nums = v._num.ravel().tolist()
    fits = max(map(abs, nums), default=0) < 2**63
    return math.gcd(v._den, *nums) == 1 and v._den > 0 and (v._num.dtype == np.int64) == fits


def _outcome(fn, *args):
    """A comparable form of fn's value, or the type and message of what it raised."""
    try:
        v = fn(*args)
    except (QmarkovError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(v, (fs.StochasticMatrix, fs.ProbVector)):
        e = v.entries
        if e.dtype == object:
            return ("exact", v.exact, e.shape, {type(x) for x in e.flat} <= {Fraction}, e.tolist(),
                    _lowest_terms(v))
        return "float", v.exact, e.dtype.str, e.shape, e.tobytes()
    return "value", v


class Oracle:
    def __init__(self):
        self.mismatches = []
        self.seen = []

    def same(self, label, new, old, *args):
        got, want = _outcome(new, *args), _outcome(old, *args)
        self.seen.append((label, got))
        if got != want:
            self.mismatches.append(f"{label}: {got!r} != {want!r}")
        if got[0] == "exact" and not got[3]:
            self.mismatches.append(f"{label}: exact result holds a non-Fraction entry")
        if got[0] == "exact" and not got[5]:
            self.mismatches.append(f"{label}: exact result not in lowest terms")
        return got

    def kernels(self, label, f, p, g=None, h=None):
        """Every operation on kernel f and prior p, with g composable after f and h
        shaped like f; returns the outcomes."""
        out = [
            self.same(f"{label} is_deterministic", fs.StochasticMatrix.is_deterministic,
                      ref.classical_is_deterministic, f),
            self.same(f"{label} nullset", fs.ProbVector.nullset, ref.classical_nullset, p),
            self.same(f"{label} push", fs.push, ref.classical_push, f, p),
            self.same(f"{label} bayes_inverse", fs.bayes_inverse,
                      ref.classical_bayes_inverse, f, p),
            self.same(f"{label} is_ae_deterministic", fs.is_ae_deterministic,
                      ref.classical_is_ae_deterministic, f, p),
        ]
        if g is not None:
            out.append(self.same(f"{label} compose", fs.compose, ref.classical_compose, g, f))
            out.append(self.same(f"{label} product", fs.product, ref.classical_product, f, g))
        if h is not None:
            out.append(self.same(f"{label} ae_equal", fs.ae_equal, ref.classical_ae_equal,
                                 f, h, p))
        return out


def _rational_columns(rng, ny, nx, zero_rows=0):
    w = rng.integers(0, 5, size=(ny, nx))
    w[ny - zero_rows:] = 0
    w[0, w.sum(axis=0) == 0] = 1
    return [[Fraction(int(w[y, x]), int(w[:, x].sum())) for x in range(nx)] for y in range(ny)]


def _rational_prior(rng, n):
    w = rng.integers(0, 4, size=n) * (rng.random(n) < 0.7)
    w[0] += w.sum() == 0
    return [Fraction(int(v), int(w.sum())) for v in w]


def _indicator_columns(rng, ny, nx, rows):
    """Random 0/1 columns, except that a few take the columns of rows."""
    image = rng.integers(0, ny, size=nx)
    keep = rng.random(nx) < 0.3
    return [[rows[y][x] if keep[x] else Fraction(int(image[x] == y)) for x in range(nx)]
            for y in range(ny)]


def _floats(rows):
    return [[float(v) for v in row] for row in rows]


def _mixed_literals(rows, rng):
    """The same rationals as Fractions, "p/q" strings or ints."""
    def lit(v):
        k = rng.integers(0, 3)
        if k == 1:
            return str(v)
        return int(v) if k == 2 and v.denominator == 1 else v
    return [[lit(v) for v in row] for row in rows]


def test_random_rational_float_and_mixed_inputs_match_the_loops():
    rng = np.random.default_rng(0)
    oracle = Oracle()
    for trial in range(40):
        nx, ny, nz = (int(v) for v in rng.integers(1, 7, size=3))
        rows = _rational_columns(rng, ny, nx, zero_rows=int(rng.integers(0, ny)))
        other = _rational_columns(rng, ny, nx)
        swap = rng.random(nx) < 0.3     # h takes these columns from another kernel
        h_rows = [[(other if swap[x] else rows)[y][x] for x in range(nx)] for y in range(ny)]
        d_rows = _indicator_columns(rng, ny, nx, rows)
        g_rows = _rational_columns(rng, nz, ny)
        prior = _rational_prior(rng, nx)
        kinds = {}
        for label, convert in (("exact", lambda r: _mixed_literals(r, rng)), ("float", _floats)):
            built = {}
            for name, r in (("f", rows), ("h", h_rows), ("d", d_rows), ("g", g_rows)):
                oracle.same(f"{trial} {label} stochastic {name}", fs.stochastic,
                            ref.classical_stochastic, convert(r))
                built[name] = fs.stochastic(convert(r))
            oracle.same(f"{trial} {label} prob_vector", fs.prob_vector,
                        ref.classical_prob_vector, convert([prior])[0])
            built["p"] = fs.prob_vector(convert([prior])[0])
            for name in ("f", "d"):
                oracle.kernels(f"{trial} {label} {name}", built[name], built["p"],
                               built["g"], built["h"])
            kinds[label] = built
        # mixed operands: each float operand in turn, with the others exact
        for name in ("f", "d", "g", "h", "p"):
            ops = {k: kinds["float" if k == name else "exact"][k] for k in kinds["exact"]}
            oracle.kernels(f"{trial} mixed {name}", ops["f"], ops["p"], ops["g"], ops["h"])
            oracle.kernels(f"{trial} mixed {name} d", ops["d"], ops["p"], ops["g"], ops["h"])
    assert oracle.mismatches == []
    results = [got for _, got in oracle.seen]
    assert any(r[0] == "exact" for r in results) and any(r[0] == "float" for r in results)
    verdicts = {r[1].passed for r in results if r[0] == "value" and hasattr(r[1], "passed")}
    assert verdicts == {True, False}


def _near_threshold_cases(e):
    """(family, rows, prior) in Fractions, with one quantity at e or off 1 by e."""
    half, ident = Fraction(1, 2), [[1, 0], [0, 1]]
    differ = [[half, Fraction(3, 10) + e], [half, Fraction(7, 10) - e]]
    yield "negative entry", [[half, 1 + e], [half, -e]], [half, half]
    yield "negative prior entry", ident, [1 + e, -e]
    for sign in (1, -1):
        yield f"column sum {sign}", [[half, half], [half, half + sign * e]], [half, half]
        yield f"prior sum {sign}", ident, [half, half + sign * e]
    yield "null prior point", [[Fraction(1, 4), 1], [Fraction(3, 4), 0]], [1 - e, e]
    yield "null output", [[1, 1 - e], [0, e]], [0, 1]
    yield "indicator near 0", [[1 - e, 0], [e, 1]], [half, half]
    yield "indicator near 1", [[0, 1 - e], [1, e]], [half, half]
    yield "columns differ", differ, [half, half]
    yield "columns differ off a null point", differ, [1 - e, e]


def test_near_threshold_entries_match_the_loops():
    oracle = Oracle()
    exact_base = fs.stochastic([["1/2", "3/10"], ["1/2", "7/10"]])
    float_base = fs.stochastic(_floats(exact_base.entries))
    signatures = {}
    for side in SIDES:
        for family, rows, prior in _near_threshold_cases(Fraction(EPS * side)):
            for kind, base, convert in (("float", float_base, float), ("exact", exact_base, Fraction)):
                r, p = [[convert(v) for v in row] for row in rows], [convert(v) for v in prior]
                outcomes = [
                    oracle.same(f"{family} {side} {kind} stochastic", fs.stochastic,
                                ref.classical_stochastic, r),
                    oracle.same(f"{family} {side} {kind} prob_vector", fs.prob_vector,
                                ref.classical_prob_vector, p),
                ]
                if outcomes[0][0] == outcomes[1][0] == kind:
                    outcomes += oracle.kernels(f"{family} {side} {kind}", fs.stochastic(r),
                                               fs.prob_vector(p), g=base, h=base)
                signatures.setdefault((family, kind), set()).add(repr(
                    [o[1] if o[0] == "value" else o[:2] for o in outcomes if o[0] != kind]))
    assert oracle.mismatches == []
    # floats decide differently on the two sides of tol.eq (exact entries are
    # nonzero on both, so there the oracle alone has to agree)
    for (family, kind), sig in signatures.items():
        assert kind == "exact" or len(sig) == 2, (family, sig)


def test_invalid_inputs_raise_the_same_errors():
    oracle = Oracle()
    cases = [
        [["1/2", "1/2", "1/5"], ["2/5", "1/2", "1/5"]],     # columns 0 and 2 off 1
        [["1/2", "3/2", "1/5"], ["1/2", "-1/2", "1/5"]],    # negative in 1, sum off in 2
        [["1/2", "1/2"], ["1/2", "1/2"], ["0", "-1/3"]],    # negative entry, sum off too
        [],
        [[]],
    ]
    for rows in cases:
        for kind in (Fraction, float):
            r = [[kind(Fraction(v)) for v in row] for row in rows]
            oracle.same(f"{rows} {kind.__name__}", fs.stochastic, ref.classical_stochastic, r)
            for row in r:
                oracle.same(f"{row} {kind.__name__}", fs.prob_vector,
                            ref.classical_prob_vector, row)
    assert oracle.mismatches == []
    assert all(got[0] is ValueError for _, got in oracle.seen[:12])


def test_long_float_columns_add_up_in_order():
    # pairwise summation would round some of these sums differently
    rng = np.random.default_rng(1)
    oracle = Oracle()
    for n in range(2, 40):
        w = rng.random(n)
        for values in (w / w.sum(), 1.5 * w / w.sum(), w):
            oracle.same(f"{n} column", fs.stochastic, ref.classical_stochastic,
                        [[v] for v in values])
            oracle.same(f"{n} prior", fs.prob_vector, ref.classical_prob_vector, list(values))
    assert oracle.mismatches == []


def test_column_sum_threshold_scales_with_the_sum():
    # |total - 1| <= eq * max(1, |total|): visible only with a loose eq
    loose = Tolerance(eq=0.1)
    oracle = Oracle()
    verdicts = set()
    for side in SIDES:
        t = loose.eq * side
        d = t / (1 - t)            # |d| = t (1 + d): the scaled threshold sits at t
        got = oracle.same(f"{side} column", fs.stochastic, ref.classical_stochastic,
                          [[0.5], [0.5 + d]], loose)
        oracle.same(f"{side} prior", fs.prob_vector, ref.classical_prob_vector,
                    [0.5, 0.5 + d], loose)
        verdicts.add(got[0])
    assert oracle.mismatches == []
    assert verdicts == {"float", ValueError}


# Exact sums and products run on Python-int numerators over one common
# denominator per operand.  The cases below stress that integer kernel: lcms
# past 2**64, negative numerators, empty operands, null columns of q and the
# Hamming round trip.  Oracle.same also fails any exact result that holds an
# int or a float.

MERSENNE = [2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1]


def _split(rng, den, n):
    """n nonnegative numerators adding up to den (rng a random.Random: den may pass 2**64)."""
    bounds = [0, *sorted(rng.randrange(den) for _ in range(n - 1)), den]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def test_pairwise_coprime_denominators_past_2_64():
    # each column of f and g has its own Mersenne-prime denominator, so the
    # common denominators are products of primes far past 2**64
    rng = random.Random(2)
    oracle = Oracle()
    primes = MERSENNE
    f_cols = [_split(rng, primes[x], 3) for x in range(4)]
    f_cols[3] = [0, 0, primes[3]]          # row 2 only reached from the null point 3
    for x in range(3):
        f_cols[x][0] += f_cols[x][2]
        f_cols[x][2] = 0
    f_rows = [[Fraction(f_cols[x][y], primes[x]) for x in range(4)] for y in range(3)]
    g_cols = [_split(rng, primes[4 - y], 2) for y in range(3)]
    g_rows = [[Fraction(v, primes[4 - y]) for y, v in enumerate(row)] for row in zip(*g_cols)]
    h_rows = [row[:] for row in f_rows]
    h_rows[0][3], h_rows[2][3] = Fraction(1, primes[5]), Fraction(primes[5] - 1, primes[5])
    prior = [Fraction(v, primes[5]) for v in _split(rng, primes[5], 3)] + [Fraction(0)]
    assert math.lcm(*(v.denominator for row in f_rows for v in row)) > 2**64
    assert math.lcm(*(v.denominator for row in g_rows for v in row)) > 2**64
    for name, rows in (("f", f_rows), ("g", g_rows), ("h", h_rows)):
        oracle.same(f"stochastic {name}", fs.stochastic, ref.classical_stochastic, rows)
    oracle.same("prob_vector", fs.prob_vector, ref.classical_prob_vector, prior)
    f, g, h = fs.stochastic(f_rows), fs.stochastic(g_rows), fs.stochastic(h_rows)
    p = fs.prob_vector(prior)
    oracle.kernels("coprime", f, p, g, h)
    # q vanishes at row 2, so the inverse has a uniform column there
    inverse = fs.bayes_inverse(f, p)
    assert list(inverse.entries[:, 2]) == [Fraction(1, 4)] * 4
    assert fs.push(f, p).entries[2] == 0
    # a column sum off 1 by 1/(2**61 - 1) is seen and reported as that Fraction
    off = [[Fraction(1, primes[0]) + Fraction(1, primes[1])],
           [1 - Fraction(1, primes[0])]]
    got = oracle.same("sum off 1", fs.stochastic, ref.classical_stochastic, off)
    assert got == (ValueError, f"column 0 sums to {1 + Fraction(1, primes[1])}, expected 1")
    assert oracle.mismatches == []


def test_negative_numerators_in_direct_kernels():
    # StochasticMatrix and ProbVector built directly skip validation, so the
    # kernel sees negative numerators, sums that vanish and negative q
    rng = np.random.default_rng(3)
    oracle = Oracle()
    seen_negative = seen_null = False

    def fractions(shape):
        nums = rng.integers(-6, 7, size=shape)
        dens = rng.choice([1, 2, 3, 5, 7, 12, 2**70 + 1], size=shape)
        out = np.empty(shape, dtype=object)
        for i in np.ndindex(*shape):
            out[i] = Fraction(int(nums[i]), int(dens[i]))
        return out

    for trial in range(30):
        nx, ny, nz = (int(v) for v in rng.integers(1, 5, size=3))
        f = fs.StochasticMatrix(fractions((ny, nx)), True)
        g = fs.StochasticMatrix(fractions((nz, ny)), True)
        h = fs.StochasticMatrix(fractions((ny, nx)), True)
        p = fs.ProbVector(fractions((nx,)), True)
        oracle.kernels(f"negative {trial}", f, p, g, h)
        seen_negative = seen_negative or any(v < 0 for v in fs.push(f, p).entries)
        seen_null = seen_null or any(v == 0 for v in fs.push(f, p).entries)
    assert seen_negative and seen_null
    assert oracle.mismatches == []


def test_empty_operands():
    oracle = Oracle()
    # what the parser allows: no columns, with or without rows
    for rows in (0, 1, 2):
        got = oracle.same(f"stochastic {rows}x0", fs.stochastic, ref.classical_stochastic,
                          [[]] * rows)
        assert got[0] == "exact"
    f00, f10, f20 = (fs.stochastic([[]] * rows) for rows in (0, 1, 2))
    for label, g, f in (("1x0 . 0x0", f10, f00), ("0x1 . 1x0", fs.StochasticMatrix(
            np.empty((0, 1), dtype=object), True), f10)):
        oracle.same(f"compose {label}", fs.compose, ref.classical_compose, g, f)
    for a, b in ((f00, f20), (f20, f10), (f10, f00)):
        oracle.same(f"product {a.n_rows}x0 {b.n_rows}x0", fs.product,
                    ref.classical_product, a, b)
    # built directly: an empty inner dimension sums to Fraction(0), not to int 0
    g = fs.StochasticMatrix(np.empty((2, 0), dtype=object), True)
    f = fs.StochasticMatrix(np.empty((0, 3), dtype=object), True)
    p = fs.ProbVector(np.array([Fraction(1, 3)] * 3, dtype=object), True)
    got = oracle.same("compose 2x0 . 0x3", fs.compose, ref.classical_compose, g, f)
    assert got[2] == (2, 3) and got[4] == [[0] * 3] * 2
    oracle.same("push 2x0 on ()", fs.push, ref.classical_push, g,
                fs.ProbVector(np.empty(0, dtype=object), True))
    oracle.kernels("0 rows", f, p)
    assert oracle.mismatches == []


def test_hamming_round_trip_matches_the_loops():
    from qmarkov import corpus

    oracle = Oracle()
    f = corpus._hamming_error_kernel(Fraction(1, 100))
    g = fs.deterministic_kernel(corpus.hamming_decode, 128, 16)
    p = fs.prob_vector([Fraction(1, 16)] * 16)
    got = oracle.same("round trip", fs.compose, ref.classical_compose, g, f)
    assert got[3] and got[4] == np.eye(16, dtype=int).tolist()
    # reduced by the gcd: the identity and the decoder are over 1, in int64
    for k in (fs.compose(g, f), fs.bayes_inverse(f, p)):
        assert k._den == 1 and k._num.dtype == np.int64
    for name, new, old in (("push", fs.push, ref.classical_push),
                           ("bayes_inverse", fs.bayes_inverse, ref.classical_bayes_inverse)):
        got = oracle.same(name, new, old, f, p)
        assert got[0] == "exact" and got[3]
    oracle.same("error kernel", fs.stochastic, ref.classical_stochastic, f.entries.tolist())
    assert oracle.mismatches == []


def _hamming_rows(eps):
    """The single-error channel of the Hamming code as rows of Fractions."""
    from qmarkov import corpus

    rows = [[Fraction(0)] * 16 for _ in range(128)]
    for x in range(16):
        y0 = corpus.hamming_encode(x)
        rows[y0][x] = 1 - 7 * eps
        for i in range(7):
            rows[y0 ^ (1 << i)][x] = eps
    return rows


@pytest.mark.parametrize("eps", [Fraction(1, 100), Fraction(1, 7), Fraction(0),
                                 Fraction(3, 2**40 + 1)])
def test_hamming_error_kernel_is_the_kernel_of_its_fraction_rows(eps):
    from qmarkov import corpus

    got, want = corpus._hamming_error_kernel(eps), fs.stochastic(_hamming_rows(eps))
    assert (got._den, got._num.dtype) == (want._den, want._num.dtype)
    assert np.array_equal(got._num, want._num)
    assert got.entries.tolist() == want.entries.tolist()


# An exact kernel carries its entries as numerators over one denominator, and
# builds `entries` only when it is read.  The tests below hold that form to
# the loops: a kernel built directly or rebuilt by `dataclasses.replace` runs
# on the entries it was given, both dtypes of the numerators (int64 and Python
# ints) run at the int64 bound, and every float made from an exact entry is
# float(Fraction), also past 2**53.

def _embed_by_loop(k):
    return np.array([[complex(float(v)) for v in row] for row in k.entries]).T


def test_direct_and_replaced_kernels_run_on_their_own_entries():
    rng = np.random.default_rng(11)
    oracle = Oracle()
    changed = 0
    for trial in range(30):
        nx, ny, nz = (int(v) for v in rng.integers(1, 6, size=3))
        f = fs.stochastic(_rational_columns(rng, ny, nx))
        other = fs.stochastic(_rational_columns(rng, ny, nx, zero_rows=int(rng.integers(0, ny))))
        g = fs.stochastic(_rational_columns(rng, nz, ny))
        p = fs.prob_vector(_rational_prior(rng, nx))
        for k in (f, other, g, p):   # every operation has run on them before any replace
            fs.push(f, p), fs.compose(g, f), fs.bayes_inverse(f, p)
        direct = fs.StochasticMatrix(other.entries.copy(), True)
        replaced = dataclasses.replace(f, entries=other.entries)
        scaled = dataclasses.replace(f, entries=f.entries * Fraction(10001, 10000))
        prior = dataclasses.replace(p, entries=p.entries[::-1])
        changed += not np.array_equal(replaced.entries, f.entries)
        for label, k, q in (("direct", direct, p), ("replaced", replaced, p),
                            ("scaled", scaled, p), ("prior", f, prior)):
            oracle.kernels(f"{trial} {label}", k, q, g, h=f)
            oracle.same(f"{trial} {label} reverse ae_equal", fs.ae_equal, ref.classical_ae_equal,
                        f, k, q)
            assert fs.embed(k).matrix.tobytes() == _embed_by_loop(k).tobytes()
            assert fs.push(k, q).entries.tolist() == ref.classical_push(k, q).entries.tolist()
    assert changed > 20 and oracle.mismatches == []


def test_exact_entries_are_a_read_only_snapshot():
    rows = [[Fraction(1, 3), 1], [Fraction(2, 3), 0]]
    given = np.array(rows, dtype=object)
    k = fs.StochasticMatrix(given, True)
    given[0, 0] = Fraction(1, 2)          # the caller's array, not the kernel's
    assert k.entries[0, 0] == Fraction(1, 3)
    assert fs.push(k, fs.prob_vector([1, 0])).entries.tolist() == [Fraction(1, 3), Fraction(2, 3)]
    for built in (k, fs.stochastic(rows), fs.compose(k, fs.deterministic_kernel(int, 2, 2)),
                  fs.prob_vector(["1/2", "1/2"])):
        with pytest.raises(ValueError, match="read-only"):
            built.entries[0] = 0


def test_float_entries_are_a_read_only_snapshot():
    rows = [[0.5, 1.0], [0.5, 0.0]]
    # lists construct, as they do for exact entries
    k, p = fs.StochasticMatrix(rows, False), fs.ProbVector([0.5, 0.5], False)
    assert (k.n_rows, k.n_cols, p.size) == (2, 2, 2)
    assert k.entries.dtype == p.entries.dtype == np.float64
    # the caller's arrays, not the kernel's
    given, prior = np.array(rows), np.array([0.5, 0.5])
    k, p = fs.StochasticMatrix(given, False), fs.ProbVector(prior, False)
    given[0, 0], prior[0] = 0.9, 0.9
    assert fs.push(k, p).entries.tolist() == [0.75, 0.25]
    replaced = dataclasses.replace(k, entries=given)
    given[0, 0] = 0.5
    assert replaced.entries[0, 0] == 0.9
    exact = fs.stochastic([["1/2", "1"], ["1/2", "0"]])
    built = [fs.stochastic(rows), fs.prob_vector([0.5, 0.5]), fs.compose(k, k), fs.product(k, k),
             fs.push(k, p), fs.bayes_inverse(k, p), fs.compose(exact, k), fs.push(exact, p)]
    for v in [k, p, replaced, fs.StochasticMatrix(rows, False)] + built:
        with pytest.raises(ValueError, match="read-only"):
            v.entries[0] = 0
        assert v._num is v.entries and v._den == 1


@pytest.fixture
def dtypes(monkeypatch):
    """The dtypes `_ints` picks, in call order."""
    seen, real = [], fs._ints

    def ints(bound, *nums):
        out = real(bound, *nums)
        seen.append(out[0].dtype)
        return out

    monkeypatch.setattr(fs, "_ints", ints)
    return seen


def _direct(rows, den=1):
    return fs.StochasticMatrix(np.array([[Fraction(v, den) for v in row] for row in rows],
                                        dtype=object), True)


def _vector(values, den=1):
    return fs.ProbVector(np.array([Fraction(v, den) for v in values], dtype=object), True)


# 3037000499 * 3037000500 < 2**63 < 3037000500 * 3037000501
_ROOT = 3037000499


def _picks(dtypes, fn, *args):
    """Whether each `_ints` call of fn(*args) picks int64."""
    dtypes.clear()
    fn(*args)
    return [d == np.int64 for d in dtypes]


@pytest.mark.parametrize("above", [False, True])
def test_both_dtypes_at_the_int64_bound(dtypes, above):
    oracle = Oracle()
    a, b = 2**31, 2**31 - 1 + above          # 2 a b is 2**63 - 2**32, or 2**63
    # the inner sums of two terms a b; one product 2a b, of Fractions over
    # denominators near 2**32
    cases = [("compose", fs.compose, ref.classical_compose, _direct([[a, a]]),
              _direct([[b], [b]])),
             ("push", fs.push, ref.classical_push, _direct([[a, -a]]), _vector([b, -b])),
             ("product", fs.product, ref.classical_product, _direct([[2 * a, 1]], 2**32 + 15),
              _direct([[b], [3]], 2**31 + 11))]
    for name, new, old, x, y in cases:
        got = oracle.same(name, new, old, x, y)
        assert got[0] == "exact" and got[3]
        assert _picks(dtypes, new, x, y) == [not above], name
    # q = (t + 1, t), so the lcm of its entries is t (t + 1), and f has entries near t:
    # q in int64, then the numerators over the lcm in int64 below the bound only
    t = _ROOT + above
    f, p = _direct([[t, 1], [t - 1, 1]]), _vector([1, 1], 2)
    got = oracle.same("bayes_inverse", fs.bayes_inverse, ref.classical_bayes_inverse, f, p)
    assert got[0] == "exact" and got[3]
    assert _picks(dtypes, fs.bayes_inverse, f, p) == [True, not above]
    oracle.kernels("lcm", f, p, g=_direct([[1, 1]]), h=f)
    assert oracle.mismatches == []


@pytest.mark.parametrize("above", [False, True])
def test_both_dtypes_at_the_subtracting_bounds(dtypes, above):
    oracle = Oracle()
    # column sums: |total - den| of a column of n numerators up to m over den is at
    # most m n + den; here 2 a + d is 2**63 - 1, or 2**63.  The parse picks first.
    d = 2**62 - 1 - above
    a = (2**63 - 1 + above - d) // 2
    rows = [[Fraction(a, d)], [Fraction(d - a, d)]]
    for name, new, old, arg in (("stochastic", fs.stochastic, ref.classical_stochastic, rows),
                                ("prob_vector", fs.prob_vector, ref.classical_prob_vector,
                                 [v for [v] in rows])):
        got = oracle.same(name, new, old, arg)
        assert got[0] == "exact" and got[3]
        assert _picks(dtypes, new, arg) == [True, not above], name
    off = [[Fraction(a, d)], [Fraction(d - a - 1, d)]]
    got = oracle.same("sum off 1", fs.stochastic, ref.classical_stochastic, off)
    assert got == (ValueError, f"column 0 sums to {Fraction(d - 1, d)}, expected 1")
    dtypes.clear()
    with pytest.raises(ValueError):
        fs.stochastic(off)
    assert [t == np.int64 for t in dtypes] == [True, not above]
    # the indicator mask: |num - den| is at most max|num| + den; -(d - 1) and 1 over
    # d = 2**62 give 2**63 - 1, and -d and 1 give num - den = -2**63
    d = 2**62
    f, p = _direct([[-(d - 1 + above), 1]], d), _vector([1, 1], 2)
    # ae_equal: |a d_h - h d_a| is at most max|a| d_h + max|h| d_a; the entries 1 and
    # 1/a against -1 and 1/b give a b + b a = 2**63 - 2**32, or 2**63
    a, b = 2**31, 2**31 - 1 + above
    one, minus_one = _direct([[a, 1]], a), _direct([[-b, 1]], b)
    for name, new, old, args in (
            ("is_deterministic", fs.StochasticMatrix.is_deterministic,
             ref.classical_is_deterministic, (f,)),
            ("is_ae_deterministic", fs.is_ae_deterministic, ref.classical_is_ae_deterministic,
             (f, p)),
            ("ae_equal", fs.ae_equal, ref.classical_ae_equal, (one, minus_one, p))):
        got = oracle.same(name, new, old, *args)
        assert got[0] == "value"
        assert _picks(dtypes, new, *args) == [not above], name
    assert not fs.ae_equal(one, minus_one, p).passed
    assert not fs.is_ae_deterministic(f, p).passed
    assert oracle.mismatches == []


@pytest.mark.parametrize("den", [2**63 - 25, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 13])
def test_denominators_at_the_int64_bound(den):
    oracle = Oracle()
    rows = [[Fraction(1, den), 1], [1 - Fraction(1, den), 0]]
    off = [[Fraction(2, den)], [1 - Fraction(1, den)]]
    prior = [1 - Fraction(3, den), Fraction(3, den)]
    oracle.same("stochastic", fs.stochastic, ref.classical_stochastic, rows)
    got = oracle.same("sum off 1", fs.stochastic, ref.classical_stochastic, off)
    assert got == (ValueError, f"column 0 sums to {1 + Fraction(1, den)}, expected 1")
    oracle.same("prob_vector", fs.prob_vector, ref.classical_prob_vector, prior)
    f, p = fs.stochastic(rows), fs.prob_vector(prior)
    d = fs.deterministic_kernel(lambda x: 0, 2, 2)
    oracle.kernels("den", f, p, g=f, h=d)
    oracle.kernels("indicator", d, p, g=f, h=f)
    assert oracle.mismatches == []


_PAST_2_53 = [Fraction(2**53 + 1, 2**54 + 3), Fraction(1, 3 * 2**53), Fraction(2**53 - 1, 2**53),
              Fraction(2**60 + 7, 2**61 + 1), Fraction(2**53 + 1, 2**53 + 3),
              Fraction(2**70 + 1, 3 * 2**70 + 5)]


def test_floats_past_2_53_are_float_of_the_fraction():
    oracle = Oracle()
    for v in _PAST_2_53:
        rows = [[v, Fraction(1, 7)], [1 - v, Fraction(6, 7)]]
        prior = [v, 1 - v]
        f, p = fs.stochastic(rows), fs.prob_vector(prior)
        want = [[float(x) for x in row] for row in rows]
        assert fs.embed(f).matrix.tobytes() == np.array(want).T.astype(complex).tobytes()
        coords = alg.vec(fs.embed_prob(p).density)
        assert coords.tobytes() == np.array([float(x) for x in prior], dtype=complex).tobytes()
        # mixed operands run in floats made from the exact entries
        floats = fs.stochastic(_floats(rows))
        for label, a, b in (("float after exact", floats, f), ("exact after float", f, floats)):
            oracle.same(f"{v} compose {label}", fs.compose, ref.classical_compose, a, b)
            oracle.same(f"{v} product {label}", fs.product, ref.classical_product, a, b)
        oracle.kernels(f"{v} mixed", floats, p, g=f, h=f)
        oracle.kernels(f"{v} mixed prior", f, fs.prob_vector(_floats([prior])[0]), g=f, h=floats)
        # the witness of a supported column that is no indicator
        rep = fs.is_ae_deterministic(f, fs.prob_vector([1, 0]))
        assert rep.witness["value"].hex() == float(v).hex()
    assert oracle.mismatches == []


# A branch on exactness is an `if`, a conditional expression, a `while` or a
# comprehension filter whose test reads a name or an attribute `exact`.  Each check
# is one formula on numerators over a denominator, so the only branch allowed in
# one is an `_ints` widening: `if exact:` with no `else`, assigning the values of
# `_ints` calls and nothing else.  Other branches belong where the arithmetic
# itself differs: the parse, the constructor and its dispatch `_carry`, the float
# conversion and `_combine`; and one branch each, found by a name it holds, in
# bayes_inverse (the lcm step), _first_bad_column (the Fraction of the column-sum
# message) and is_ae_deterministic (the witness value).
_FORK_FUNCTIONS = {"_parse_array", "_Carried.__post_init__", "_Carried._carry",
                   "_Carried._floats", "_combine"}
_FORK_PLACES = {"bayes_inverse": "lcm", "_first_bad_column": "Fraction",
                "is_ae_deterministic": "value"}


def _reads_exact(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "exact"
               or isinstance(n, ast.Attribute) and n.attr == "exact" for n in ast.walk(node))


def _is_widening(node) -> bool:
    return isinstance(node, ast.If) and not node.orelse and all(
        isinstance(s, ast.Assign) and isinstance(s.value, ast.Call)
        and isinstance(s.value.func, ast.Name) and s.value.func.id == "_ints" for s in node.body)


def _names(node, parent) -> set[str]:
    """The names and attributes node reads, and those it is assigned to."""
    nodes = [node, *(parent.targets if isinstance(parent, ast.Assign) else [])]
    return {n.id if isinstance(n, ast.Name) else n.attr for m in nodes for n in ast.walk(m)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _exactness_forks(source: str) -> set[str | None]:
    """The qualified names of the functions and classes (None outside any) of source
    holding a branch on exactness that is not an `_ints` widening or an allowed fork."""
    found = set()

    def visit(node, qual, parent):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qual = f"{qual}.{node.name}" if qual else node.name
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            tests = [node.test]
        else:
            tests = node.ifs if isinstance(node, ast.comprehension) else []
        if (any(_reads_exact(t) for t in tests) and not _is_widening(node)
                and qual not in _FORK_FUNCTIONS
                and _FORK_PLACES.get(qual) not in _names(node, parent)):
            found.add(qual or None)
        for child in ast.iter_child_nodes(node):
            visit(child, qual, node)

    visit(ast.parse(source), "", None)
    return found


def test_fork_guard_sees_every_branch_form():
    for bad, where in (
            ("def f(x, exact):\n    if exact:\n        return x\n    return -x", "f"),
            ("def f(v):\n    return v._num if v.exact else v._floats()", "f"),
            ("class C:\n    def m(self):\n        while self.exact:\n            pass", "C.m"),
            ("def f(vs):\n    return [v for v in vs if v.exact]", "f"),
            ("def f(n, exact):\n    if exact:\n        [n] = _ints(1, n)\n    else:\n"
             "        n = -n", "f"),
            ("def f(n, exact):\n    if exact:\n        [n] = _ints(1, n)\n        n = n + 1",
             "f"),
            ("def f(n, exact):\n    if not exact:\n        [n] = _ints(1, n)\n"
             "    return n if exact else -n", "f"),
            ("def bayes_inverse(q, exact):\n    if exact:\n        den = 1", "bayes_inverse"),
            ("if exact:\n    x = 1", None)):
        assert _exactness_forks(bad) == {where}, bad
    for fine in ("def f(n, exact):\n    if exact:\n        [n] = _ints(1, n)\n    return n",
                 "def f(a, b, exact):\n    if exact:\n        a, b = _ints(1, a, b)",
                 "def _combine(o):\n    return 1 if o.exact else 2",
                 "def bayes_inverse(q, exact):\n    if exact:\n        den = math.lcm(*q)",
                 "def is_ae_deterministic(f):\n    value = 1 if f.exact else 2",
                 "def f(os):\n    exact = all(o.exact for o in os)\n    return exact",
                 "def f(n):\n    if n.dtype == object:\n        return n",
                 "# if exact: n = -n", "'n if exact else -n'"):
        assert _exactness_forks(fine) == set(), fine


def test_only_the_arithmetic_forks_on_exactness():
    assert _exactness_forks(inspect.getsource(fs)) == set()
