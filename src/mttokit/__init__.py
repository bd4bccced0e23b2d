"""Truncated Toeplitz operators with matrix symbols on finite-dimensional
model spaces: construction, membership testing, symbol recovery, and the
supporting model-space machinery."""

from .errors import (
    DimensionMismatchError,
    IdentityCheckError,
    MttoError,
    NotGammaSymmetricError,
    NotInnerError,
    NotMttoError,
    NotProjectionError,
    NotPureError,
    NotUnitaryError,
    ParseError,
)
from .fixtures import FIXTURE_NAMES, fixture
from .laurent import (
    MatLaurent,
    VecLaurent,
    boundary_adjoint,
    evaluate,
    inner_residual,
    is_pure,
    multiply,
    purity_margin,
)
from .model_operator import (
    Conjugation,
    OperatorMatrix,
    action_check,
    c_symmetric,
    conjugation_matrix,
    defect_spaces,
    gamma_symmetric_residual,
    s_theta,
    xhat,
)
from .model_space import (
    InnerFunction,
    ModelSpaceBasis,
    kernel,
    make_inner_potapov,
    tilde_kernel,
)
from .mtto import (
    build,
    finite_rank,
    is_mtto,
    membership_witness,
    mtto_dimension,
    recover_symbol,
    zero_symbol_decompose,
)
from .suite import SuiteConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "Conjugation",
    "DimensionMismatchError",
    "FIXTURE_NAMES",
    "IdentityCheckError",
    "InnerFunction",
    "MatLaurent",
    "ModelSpaceBasis",
    "MttoError",
    "NotGammaSymmetricError",
    "NotInnerError",
    "NotMttoError",
    "NotProjectionError",
    "NotPureError",
    "NotUnitaryError",
    "OperatorMatrix",
    "ParseError",
    "SuiteConfig",
    "VecLaurent",
    "action_check",
    "boundary_adjoint",
    "build",
    "c_symmetric",
    "conjugation_matrix",
    "defect_spaces",
    "evaluate",
    "finite_rank",
    "fixture",
    "gamma_symmetric_residual",
    "inner_residual",
    "is_mtto",
    "is_pure",
    "kernel",
    "make_inner_potapov",
    "membership_witness",
    "mtto_dimension",
    "multiply",
    "purity_margin",
    "recover_symbol",
    "run_suite",
    "s_theta",
    "tilde_kernel",
    "xhat",
    "zero_symbol_decompose",
]
