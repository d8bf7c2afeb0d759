"""Dense-matrix entry points to the stacked kernel the verifiers run.

Each function reads its matrix as the one block of an element of M_n (a
stack (1, p, q)) and runs the code that decides elements and states:
`op_norm` is `algebra._op_norm`, self-adjointness is `is_self_adjoint_elem`,
and the eigendecomposition, its rank decision, the pseudo-inverse and the
square root come from `state.Spectrum`.  No threshold is set here.
"""
from __future__ import annotations

import numpy as np

from . import algebra as alg
from .algebra import AlgebraShape, AlgElement, is_self_adjoint_elem
from .errors import NotPSD, NotSelfAdjoint
from .state import Spectrum, _hermitian_part, _spectrum
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = ["op_norm", "herm_eig", "pinv_psd", "sqrt_psd"]


def _block(m) -> np.ndarray:
    """m as a stack (1, p, q); raises ValueError on NaN or Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    alg._finite(a)
    return a[None]


def op_norm(m) -> float:
    """Largest singular value of a p x q matrix; 0 when it is empty."""
    x = _block(m)
    if x.size == 0:
        return 0.0
    if x.shape[1:] == (1, 1):
        return float(abs(x[0, 0, 0]))   # Python's abs; np.abs can differ in the last bit
    return float(alg._op_norm([x]))


def _decompose(m, tol: Tolerance, psd: bool = False) -> Spectrum:
    """Spectrum of m as an element of M_n.

    Raises NotSelfAdjoint unless m is self-adjoint within tol.herm, and with
    psd NotPSD when its least eigenvalue is negative beyond tol.psd.
    """
    x = _block(m)
    n, k = x.shape[1:]
    if n != k:
        raise NotSelfAdjoint(f"matrix is {n}x{k}, not square")
    a = AlgElement(AlgebraShape((n,)), (x[0],))
    if not is_self_adjoint_elem(a, tol):
        dev = np.abs(x - alg._dagger(x)).max()
        raise NotSelfAdjoint(f"anti-Hermitian deviation {dev:.3e} exceeds tolerance")
    spec = _spectrum(a.shape, _hermitian_part([x]), tol)
    w = spec.stacks[0][0][0]
    if psd and w[-1] < -tol.psd * tol.scale(w[0]):
        raise NotPSD(f"minimum eigenvalue {w[-1]:.3e} is negative beyond tolerance")
    return spec


def herm_eig(m, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, u) with w real and sorted descending and u unitary, such that
    m = u @ diag(w) @ u*.  Raises NotSelfAdjoint when m is not self-adjoint
    within tolerance.
    """
    (w, u, _), = _decompose(m, tol).stacks
    return w[0].copy(), u[0].copy()


def pinv_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD Hermitian matrix.

    Eigenvalues <= tol.rank * lambda_max are treated as exact zeros, as for
    the support of a state, so m @ pinv = pinv @ m is the support projection.
    """
    return _decompose(m, tol, psd=True).inverse_power(1.0).block(0).copy()


def sqrt_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """PSD square root of a PSD Hermitian matrix."""
    return _decompose(m, tol, psd=True).sqrt().block(0).copy()
