"""The one equality rule, `algebra.failing_entries`, at its threshold in every caller.

Each caller below decides max|x - y| (or ||(x - y) P|| under a support P)
against tol.eq max(1, ||x||, ||y||) through the rule.  The deviation is put at
c times that bound, with c on either side of 1, and each verdict and witness
must be those of `loop_reference`.  The scale s lies well inside the rule's
cheap bounds on it, (max|entry|, ||.||_F), so the exact operator norm must
decide.  For a scalar, a 1 x 1 element, the cheap bounds are its modulus
within `algebra._SLACK`, so its deviation is put within that slack: c = 1 +- 2^-43.
"""
import numpy as np
import pytest

import loop_reference as ref
from qmarkov import algebra as alg
from qmarkov.algebra import AlgebraShape, AlgElement
from qmarkov.bayes import verify_disintegration
from qmarkov.channel import Channel, is_star_preserving, is_unital
from qmarkov.state import NullspaceTest, ae_equal, state_from_density
from qmarkov.tolerances import Tolerance

M3 = AlgebraShape((3,))
C1 = AlgebraShape((1,))
MATRIX, SCALAR = 1e-6, 2.0 ** -43   # c = 1 -+ these


def _straddling() -> np.ndarray:
    """A 3 x 3 complex x with 1 < max|x_ij| and ||x|| well inside (max|x_ij|, ||x||_F)."""
    x = np.random.default_rng(29).standard_normal((3, 3, 2)) @ [1.0, 1j]
    x *= 1.5 / np.abs(x).max()
    s = np.linalg.norm(x, 2)
    assert 1.01 * np.abs(x).max() < s < 0.99 * np.linalg.norm(x)
    return x


X = _straddling()
DELTA = 1e-3 * np.eye(1, 9, 0).reshape(3, 3)     # moves the (0, 0) entry
HALF = state_from_density(AlgElement(M3, (np.diag([0.5, 0.5, 0.0]),)))   # support diag(1, 1, 0)


def _norm(*xs) -> float:
    return max([1.0] + [np.linalg.norm(x, 2) for x in xs])


def _tol(dev: float, scale: float, c: float) -> Tolerance:
    """The Tolerance that puts dev at c times tol.eq * scale."""
    return Tolerance(eq=dev / (c * scale))


def _key(got):
    """A report, a boolean or a raised error, with its witness by value."""
    if not hasattr(got, "verdict"):
        return got
    return got.verdict, {k: tuple(b.tobytes() for b in v.blocks) if isinstance(v, AlgElement)
                         else v for k, v in (got.witness or {}).items()}


def _elem(x) -> AlgElement:
    return AlgElement(M3, (x,))


# each case returns the call under test and its oracle, at c times the bound

def _elem_equal(c):
    a, b = _elem(X), _elem(X + DELTA)
    tol = _tol(np.abs((X + DELTA) - X).max(), _norm(X, X + DELTA), c)
    return lambda: alg.elem_equal(a, b, tol), lambda: ref.elem_equal(a, b, tol)


def _is_unital(c):
    # F(E_00) = X and every other unit to 0, so F(1) = X
    f = Channel(M3, M3, np.outer(X.reshape(-1), np.eye(1, 9, 0)))
    tol = _tol(np.abs(X - np.eye(3)).max(), _norm(X), c)
    return lambda: is_unital(f, tol), lambda: ref.is_unital(f, tol)


def _is_star_preserving(c):
    # F(E_01) = X and F(E_10) = X* + DELTA: units 1 and 2 deviate by DELTA, the others by 0
    lhs = X.conj().T + DELTA
    m = np.zeros((9, 9), dtype=complex)
    m[:, 1], m[:, 3] = X.reshape(-1), lhs.reshape(-1)
    f = Channel(M3, M3, m)
    tol = _tol(np.abs(lhs - X.conj().T).max(), _norm(X, lhs), c)
    return lambda: is_star_preserving(f, tol), lambda: ref.is_star_preserving(f, tol)


def _ae_equal(side):
    def run(c):
        # F and G differ at unit 1 by DELTA, which the support keeps
        fm, gm = np.zeros((9, 9), dtype=complex), np.zeros((9, 9), dtype=complex)
        fm[:, 1], gm[:, 1] = X.reshape(-1), (X - DELTA).reshape(-1)
        f, g = Channel(M3, M3, fm), Channel(M3, M3, gm)
        tol = _tol(np.abs(X - (X - DELTA)).max(), _norm(X, X - DELTA), c)
        return (lambda: ae_equal(f, g, HALF, side, tol),
                lambda: ref.ae_equal(f, g, HALF, side, tol))
    return run


def _nullspace(side):
    def run(c):
        p = np.diag([1.0, 1.0, 0.0])
        tol = _tol(np.linalg.norm(X @ p if side == "right" else p @ X, 2), _norm(X), c)
        a = _elem(X)
        return (lambda: NullspaceTest(side, HALF).contains(a, tol),
                lambda: ref._side_vanishes(a, HALF.support, side, tol, ref.norm(a)))
    return run


def _state_preservation(c):
    # on C: f = id, omega = xi = 1 and G = 1.5, so xi(G(1)) = 1.5 against omega(1) = 1
    f, g = Channel(C1, C1, np.eye(1)), Channel(C1, C1, np.array([[1.5]]))
    omega = state_from_density(alg.unit(C1))
    tol = _tol(0.5, 1.5, c)
    return (lambda: verify_disintegration(f, omega, g, tol),
            lambda: ref.verify_disintegration(f, omega, g, tol))


def _state_trace(c):
    rho = AlgElement(AlgebraShape((2,)), (np.diag([1.0, 0.5]),))   # trace 1.5
    tol = _tol(0.5, 1.5, c)

    def run():
        try:
            state_from_density(rho, tol)
        except ValueError as exc:
            return type(exc), str(exc)
        return None, None

    return run, lambda: ref.state_error(rho, tol)


_CALLERS = {
    "elem_equal": (_elem_equal, MATRIX),
    "is_unital": (_is_unital, MATRIX),
    "is_star_preserving": (_is_star_preserving, MATRIX),
    "ae_equal-right": (_ae_equal("right"), MATRIX),
    "ae_equal-left": (_ae_equal("left"), MATRIX),
    "nullspace-right": (_nullspace("right"), MATRIX),
    "nullspace-left": (_nullspace("left"), MATRIX),
    "verify_disintegration": (_state_preservation, SCALAR),
    "state_from_density": (_state_trace, SCALAR),
}


@pytest.fixture
def exact_steps(monkeypatch):
    """Counts the exact operator norms the rule takes."""
    seen, inside = [], []
    exact, rule = alg._op_norm, alg.failing_entries

    def counting(xs):
        seen.extend(inside)
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


@pytest.mark.parametrize("caller", list(_CALLERS))
def test_every_caller_decides_the_equality_rule_at_the_threshold_as_its_oracle(
        caller, exact_steps):
    case, margin = _CALLERS[caller]
    outcomes = []
    for c in (1 - margin, 1 + margin):
        run, oracle = case(c)
        exact_steps.clear()
        got = run()
        assert exact_steps, c   # the cheap bounds left the entry open
        assert _key(got) == _key(oracle()), c
        outcomes.append(_key(got))
    assert outcomes[0] != outcomes[1]   # a pass below the bound, a failure above it
