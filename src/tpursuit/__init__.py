"""Greedy low-tubal-rank tensor completion and sensing via the tensor SVD."""

from .errors import (DivergenceDetected, EmptyMask, FileFormatError,
                     NonNegligibleImaginaryPart, NumericalFailure,
                     RankDeficientMap, RankOutOfRange, ShapeMismatch,
                     TpursuitError)
from .measure import (MeasurementMap, SamplingMask, apply, dense_map,
                      gaussian_ensemble, pinv_apply, rademacher_ensemble,
                      random_mask, read_msk, sampling_map, write_msk)
from .pursuit import (PursuitConfig, PursuitResult, PursuitState, check_rate,
                      refine, run, solve_weights_economic,
                      solve_weights_full, update_residual, write_metrics_csv)
from .tensor import (FourierTensor, Tensor3, as_tensor3, bcirc, bdiag,
                     conj_transpose, fft3, fold, frobenius_norm, identity_tensor,
                     ifft3, inner, is_orthogonal, max_tube_norm, read_t3b,
                     rmse, tprod, unfold, write_t3b)
from .trip import (TripStudyConfig, empirical_delta, sample_rank_r_unit,
                   scaling_study, write_study_csv)
from .tsvd import (RankOneAtom, TSVDFactors, leading_atoms, truncated_tsvd,
                   tsvd, tubal_rank)

__version__ = "0.1.0"

__all__ = [
    "DivergenceDetected", "EmptyMask", "FileFormatError", "FourierTensor",
    "MeasurementMap", "NonNegligibleImaginaryPart", "NumericalFailure",
    "PursuitConfig", "PursuitResult", "PursuitState", "RankDeficientMap",
    "RankOneAtom", "RankOutOfRange", "SamplingMask", "ShapeMismatch",
    "TSVDFactors", "Tensor3", "TpursuitError", "TripStudyConfig",
    "apply", "as_tensor3", "bcirc", "bdiag", "check_rate", "conj_transpose",
    "dense_map", "empirical_delta", "fft3", "fold", "frobenius_norm",
    "gaussian_ensemble", "identity_tensor", "ifft3", "inner", "is_orthogonal",
    "leading_atoms", "max_tube_norm", "pinv_apply",
    "rademacher_ensemble", "random_mask", "read_msk", "read_t3b", "refine",
    "rmse", "run", "sample_rank_r_unit", "sampling_map", "scaling_study",
    "solve_weights_economic", "solve_weights_full", "tprod", "truncated_tsvd",
    "tsvd", "tubal_rank", "unfold", "update_residual", "write_metrics_csv",
    "write_msk", "write_study_csv", "write_t3b",
]
