"""Computation and verification for channels between direct sums of matrix
algebras: states and supports, almost-everywhere relations, Bayes maps,
Petz recovery, disintegrations, and an executable corpus of examples.

Importing the package before numpy sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 where they are unset: on the small
matrices the verifiers take, threaded BLAS only adds start-up stalls.  A
value already set is kept, and so is whatever numpy chose when it was
imported first.
"""
import os as _os
import sys as _sys

if "numpy" not in _sys.modules:   # BLAS reads its thread count when numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")
    del _var
del _os, _sys

from .algebra import (
    AlgebraShape,
    AlgElement,
    adjoint,
    is_positive_elem,
    matrix_units,
    mul,
    tensor_elem,
    tensor_shape,
    trace,
    unit,
    unvec,
    vec,
)
from .bayes import (
    BayesProblem,
    BayesResult,
    bayes_candidate,
    bayes_problem,
    commutative_disintegration,
    modularity_chain,
    petz_exists,
    petz_recovery,
    verify_bayes,
    verify_disintegration,
)
from .channel import (
    Channel,
    PropertyReport,
    apply,
    channel_from_action,
    choi,
    compose,
    conjugation_by,
    hs_adjoint,
    identity_channel,
    invert,
    is_cp,
    is_deterministic,
    is_positive_sampled,
    is_schwarz_sampled,
    is_star_preserving,
    is_unital,
    kraus_channel,
    mult_map,
    tensor,
    transpose_channel,
)
from .errors import (
    NotAeDeterministic,
    NotCommutative,
    NotPSD,
    NotSelfAdjoint,
    PreconditionsUnmet,
    PullbackNotPSD,
    QmarkovError,
    ShapeMismatch,
    Singular,
    SupportNotFull,
    UnknownFixture,
)
from .finstoch import ProbVector, StochasticMatrix, bayes_inverse, embed, embed_prob
from .linalg import herm_eig, op_norm, pinv_psd, sqrt_psd
from .state import (
    NullspaceTest,
    State,
    ae_deterministic,
    ae_equal,
    ae_unital,
    pullback_state,
    state_from_density,
    support,
)
from .tolerances import DEFAULT_TOL, Tolerance

__version__ = "0.1.0"
