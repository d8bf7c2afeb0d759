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
from fractions import Fraction

import numpy as np

import loop_reference as ref
from qmarkov import finstoch as fs
from qmarkov.errors import QmarkovError
from qmarkov.tolerances import DEFAULT_TOL, Tolerance

EPS = DEFAULT_TOL.eq
SIDES = (1 - 1e-3, 1 + 1e-3)


def _outcome(fn, *args):
    """A comparable form of fn's value, or the type and message of what it raised."""
    try:
        v = fn(*args)
    except (QmarkovError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(v, (fs.StochasticMatrix, fs.ProbVector)):
        e = v.entries
        if e.dtype == object:
            return "exact", v.exact, e.shape, {type(x) for x in e.flat} <= {Fraction}, e.tolist()
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
