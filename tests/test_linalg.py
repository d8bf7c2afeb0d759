"""The dense-matrix entry points against the per-matrix reference copies.

`qmarkov.linalg` runs one-block stacks through the kernel of `algebra` and
`state.Spectrum`; `loop_reference.py` keeps the versions that call LAPACK on
each matrix with their own thresholds.  Values must be equal, and inputs
that raise must raise the same class with the same message.
"""
import numpy as np
import pytest

import loop_reference as ref
import qmarkov
from qmarkov.errors import NotPSD, NotSelfAdjoint
from qmarkov.linalg import herm_eig, op_norm, pinv_psd, sqrt_psd
from qmarkov.tolerances import DEFAULT_TOL, Tolerance


def test_herm_eig_diagonal_sorted_descending():
    w, u = herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    assert np.allclose(u.conj().T @ u, np.eye(3))


def test_herm_eig_pauli_x():
    w, _ = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [1.0, -1.0])


def test_herm_eig_rank_one_projection_doubled():
    p = 0.5 * np.array([[1, -1j], [1j, 1]])
    # oracle: p is idempotent, so 2p has spectrum {2, 0}
    assert np.allclose(p @ p, p)
    w, _ = herm_eig(2 * p)
    assert np.allclose(w, [2.0, 0.0], atol=1e-12)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotSelfAdjoint):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotSelfAdjoint):
        herm_eig(np.ones((2, 3)))


def test_herm_eig_reconstruction_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(32):
        n = int(rng.integers(1, 12))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (m + m.conj().T)
        w, u = herm_eig(h)
        assert np.all(np.diff(w) <= 1e-12)
        resid = op_norm(h - (u * w) @ u.conj().T)
        assert resid <= 1e-11 * max(1.0, op_norm(h))
        assert op_norm(u.conj().T @ u - np.eye(n)) <= 1e-11


def test_pinv_psd_diagonal():
    assert np.allclose(pinv_psd(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pinv_psd(np.eye(3)), np.eye(3))


def test_pinv_psd_thresholds_tiny_eigenvalues():
    # tol.rank (1e-10) decides, as it does for the support of a state
    out = pinv_psd(np.diag([1e-15, 1.0]))
    assert np.allclose(out, np.diag([0.0, 1.0]))
    assert np.allclose(pinv_psd(np.diag([1e-15, 1.0]), Tolerance(rank=1e-16)),
                       np.diag([1e15, 1.0]))


def test_pinv_psd_rejects_indefinite():
    with pytest.raises(NotPSD):
        pinv_psd(np.diag([1.0, -1.0]))


def test_pinv_psd_moore_penrose_on_random_gram_matrices():
    rng = np.random.default_rng(5)
    for _ in range(16):
        n = int(rng.integers(1, 8))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = m.conj().T @ m
        pinv = pinv_psd(sigma)
        assert op_norm(sigma @ pinv @ sigma - sigma) <= 1e-10 * op_norm(sigma)
        assert op_norm(pinv @ sigma @ pinv - pinv) <= 1e-10 * op_norm(pinv)
        proj = sigma @ pinv
        assert op_norm(proj - pinv @ sigma) <= 1e-9 * max(1.0, op_norm(proj))


def test_op_norm_basics():
    assert op_norm(np.zeros((3, 3))) == 0.0
    assert abs(op_norm(np.diag([3.0, -4.0])) - 4.0) <= 1e-12
    e11 = np.zeros((2, 2)); e11[0, 0] = 1
    e12 = np.zeros((2, 2)); e12[0, 1] = 1
    e21 = np.zeros((2, 2)); e21[1, 0] = 1
    witness = np.kron(e11, e11) + np.kron(e12, e21)
    assert abs(op_norm(witness) - 1.0) <= 1e-12


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(11)
    for _ in range(32):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


def test_sqrt_psd():
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(sqrt_psd(np.eye(4)), np.eye(4))
    p = 0.5 * np.array([[1, -1j], [1j, 1]])
    assert np.allclose(p @ p, p)  # idempotent, so it is its own square root
    assert np.allclose(sqrt_psd(p), p, atol=1e-12)
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sigma = m.conj().T @ m
    root = sqrt_psd(sigma)
    assert op_norm(root @ root - sigma) <= 1e-10 * op_norm(sigma)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -0.5]))


def _outcome(fn, *args):
    """fn's value, or the class and message of what it raised."""
    try:
        return "value", fn(*args)
    except (qmarkov.QmarkovError, ValueError) as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    if got[0] != "value" or want[0] != "value":
        return got == want
    pairs = zip(got[1], want[1]) if isinstance(got[1], tuple) else [(got[1], want[1])]
    return all(np.array_equal(g, w) for g, w in pairs)


def _random(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


def _with_eigenvalues(rng, w):
    """u diag(w) u* for a random unitary u."""
    u, _ = np.linalg.qr(_random(rng, len(w), len(w)))
    return (u * np.asarray(w)) @ u.conj().T


def _inputs(rng):
    """Hermitian, PSD and rank-deficient matrices for n = 1..8."""
    for n in range(1, 9):
        for _ in range(4):
            m = _random(rng, n, n)
            yield 0.5 * (m + m.conj().T)
            yield m.conj().T @ m
        cut = DEFAULT_TOL.rank * 3.0   # eigenvalues just around tol.rank * lambda_max
        for side in (1 - 1e-3, 1 + 1e-3):
            yield _with_eigenvalues(rng, [3.0] + [cut * side] * (n - 1))
            if n > 1:
                yield _with_eigenvalues(rng, [3.0, cut * side] + [0.0] * (n - 2))


@pytest.mark.parametrize("name", ["herm_eig", "pinv_psd", "sqrt_psd", "op_norm"])
def test_entry_points_equal_the_per_matrix_reference(name):
    new, old = getattr(qmarkov.linalg, name), getattr(ref, name)
    values = 0
    for m in _inputs(np.random.default_rng(21)):
        got, want = _outcome(new, m), _outcome(old, m)   # indefinite inputs raise NotPSD
        assert _same(got, want), (name, m.shape)
        values += got[0] == "value"
    assert values >= 62, values


def test_pinv_psd_rank_decision_near_the_cutoff():
    rng = np.random.default_rng(22)
    cut = DEFAULT_TOL.rank * 3.0
    for n in (2, 5, 8):
        for side, kept in ((1 - 1e-3, 1), (1 + 1e-3, n)):
            m = _with_eigenvalues(rng, [3.0] + [cut * side] * (n - 1))
            proj = m @ pinv_psd(m)
            assert round(np.trace(proj).real) == kept, (n, side)


def test_op_norm_on_rectangular_and_empty_matrices():
    rng = np.random.default_rng(23)
    for p, q in [(1, 1), (1, 5), (5, 1), (3, 7), (7, 3), (0, 0), (0, 4), (4, 0)]:
        for _ in range(8):
            m = _random(rng, p, q)
            assert op_norm(m) == ref.op_norm(m), (p, q)


def _bad_inputs():
    nan = np.eye(3, dtype=complex)
    nan[1, 2] = np.nan
    inf = np.eye(2)
    inf[0, 0] = np.inf
    skew = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    near_skew = np.eye(2, dtype=complex)
    near_skew[0, 1] = 3e-10   # beyond tol.herm at scale 1
    yield from (np.ones((2, 3)), np.ones((3, 1)), nan, inf, skew, near_skew, np.ones(3),
                np.ones((2, 2, 2)), np.diag([1.0, -1.0]), np.diag([1.0, -0.5]),
                np.diag([-2.0, -3.0]), np.diag([5.0, -4e-9]), np.diag([5.0, -6e-9]))


@pytest.mark.parametrize("name", ["herm_eig", "pinv_psd", "sqrt_psd", "op_norm"])
def test_entry_points_fail_like_the_per_matrix_reference(name):
    new, old = getattr(qmarkov.linalg, name), getattr(ref, name)
    raised = set()
    for m in _bad_inputs():
        got, want = _outcome(new, m), _outcome(old, m)
        assert _same(got, want), (name, m, got, want)
        if got[0] != "value":
            raised.add(got[0])
    want_raised = {"op_norm": {ValueError}, "herm_eig": {ValueError, NotSelfAdjoint}}
    assert raised == want_raised.get(name, {ValueError, NotSelfAdjoint, NotPSD})


def test_old_error_names_are_removed():
    for name in ("NotHermitian", "DimensionMismatch"):
        assert not hasattr(qmarkov, name) and not hasattr(qmarkov.errors, name)


def test_results_are_writable_arrays_of_their_own():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    element = qmarkov.AlgElement(qmarkov.AlgebraShape((2,)), (m,))
    for fn in (lambda x: herm_eig(x)[0], lambda x: herm_eig(x)[1], pinv_psd, sqrt_psd):
        out = fn(m)
        assert out.flags.writeable and out.flags.owndata
        assert not np.shares_memory(out, m) and not np.shares_memory(out, qmarkov.vec(element))
        want = out.copy()
        out[...] = 0.0
        assert np.array_equal(fn(m), want)
