"""Greedy low-tubal-rank tensor completion and sensing via the tensor SVD."""

from .errors import (DivergenceDetected, EmptyMask, FileFormatError,
                     NumericalFailure, RankDeficientMap, RankOutOfRange,
                     ShapeMismatch, TpursuitError)
from .measure import (DenseMap, MeasurementMap, SamplingMap, SamplingMask,
                      apply, dense_map, gaussian_ensemble, pinv_apply,
                      rademacher_ensemble, random_mask, read_msk, sampling_map,
                      whiten, write_msk)
from .pursuit import PursuitConfig, PursuitResult, refine, run
from .tensor import read_t3b, tprod, write_t3b
from .trip import (TripStudyConfig, empirical_delta, sample_rank_r_unit,
                   scaling_study)
from .tsvd import (RankOneAtom, TSVDFactors, leading_atoms, truncated_tsvd,
                   tubal_rank)

__version__ = "0.1.0"

# the README's API, the error types, and the map, config and result types
__all__ = [
    "DenseMap", "DivergenceDetected", "EmptyMask", "FileFormatError",
    "MeasurementMap", "NumericalFailure", "PursuitConfig", "PursuitResult",
    "RankDeficientMap", "RankOneAtom", "RankOutOfRange", "SamplingMap",
    "SamplingMask", "ShapeMismatch", "TSVDFactors", "TpursuitError",
    "TripStudyConfig", "apply", "dense_map", "empirical_delta",
    "gaussian_ensemble", "leading_atoms", "pinv_apply", "rademacher_ensemble",
    "random_mask", "read_msk", "read_t3b", "refine", "run",
    "sample_rank_r_unit", "sampling_map", "scaling_study", "tprod",
    "truncated_tsvd", "tubal_rank", "whiten", "write_msk", "write_t3b",
]
