"""Shape classification and construction for Vasicek term structures."""

from .attain import (
    AttainSolution,
    InadmissibleShapeError,
    RhoOutOfRangeError,
    ShapeTarget,
    construct,
    construct_target,
    solve_key_system,
    verify_solution,
)
from .classify import (
    AdmissibleSet,
    ShapeReport,
    admissible_shapes,
    classify_forward,
    classify_yield,
    one_dim_regions,
    sign_bound,
)
from .descartes import (
    DPolynomial,
    ExpBasis,
    NumericalInconsistencyError,
    eval_basis_fn,
    eval_dpoly,
    interpolate_prescribed_zeros,
    sseq_of_dpoly,
)
from .signseq import Sign, SignSeq, ShapeName, shape_of
from .vasicek import ScaleRegime, VasicekModel, forward_curve, regime, yield_curve
from .verify import (
    SweepConfig,
    SweepReport,
    perturbation_stability_check,
    state_space_map,
    strict_attainability_mc,
    sweep_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "AttainSolution",
    "DPolynomial",
    "ExpBasis",
    "InadmissibleShapeError",
    "NumericalInconsistencyError",
    "RhoOutOfRangeError",
    "ScaleRegime",
    "ShapeName",
    "ShapeReport",
    "ShapeTarget",
    "Sign",
    "SignSeq",
    "SweepConfig",
    "SweepReport",
    "VasicekModel",
    "admissible_shapes",
    "classify_forward",
    "classify_yield",
    "construct",
    "construct_target",
    "eval_basis_fn",
    "eval_dpoly",
    "forward_curve",
    "interpolate_prescribed_zeros",
    "one_dim_regions",
    "perturbation_stability_check",
    "regime",
    "shape_of",
    "sign_bound",
    "solve_key_system",
    "sseq_of_dpoly",
    "state_space_map",
    "strict_attainability_mc",
    "sweep_theorem",
    "verify_solution",
    "yield_curve",
]
