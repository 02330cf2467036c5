"""The package's public surface: the exports the README documents, and
nothing test-only left in the library."""

import numpy as np
import pytest

import tpursuit
from tpursuit import tensor
from tpursuit.measure import DenseMap, gaussian_ensemble

DOCUMENTED = {
    # errors
    "DivergenceDetected", "EmptyMask", "FileFormatError", "NumericalFailure",
    "RankDeficientMap", "RankOutOfRange", "ShapeMismatch", "TpursuitError",
    # maps, configs and results
    "DenseMap", "MeasurementMap", "PursuitConfig", "PursuitResult",
    "RankOneAtom", "SamplingMap", "SamplingMask", "TSVDFactors",
    "TripStudyConfig",
    # functions
    "apply", "dense_map", "empirical_delta", "gaussian_ensemble",
    "leading_atoms", "pinv_apply", "rademacher_ensemble", "random_mask",
    "read_msk", "read_t3b", "refine", "run", "sample_rank_r_unit",
    "sampling_map", "scaling_study", "tprod", "truncated_tsvd", "tsvd",
    "tubal_rank", "whiten", "write_msk", "write_t3b",
}

# test oracles that live in tests/oracles.py, and functions deleted outright
NOT_IN_TENSOR = (
    "bcirc", "bdiag", "fold", "unfold", "fft3", "ifft3", "FourierTensor",
    "identity_tensor", "is_orthogonal", "inner", "max_tube_norm",
    "ORACLE_DIM_LIMIT",
)


def test_exports_are_the_documented_api():
    assert len(tpursuit.__all__) == len(set(tpursuit.__all__))
    assert set(tpursuit.__all__) == DOCUMENTED
    for name in tpursuit.__all__:
        assert getattr(tpursuit, name) is not None, name


def test_tensor_module_holds_no_oracles():
    present = [name for name in NOT_IN_TENSOR if hasattr(tensor, name)]
    assert present == []
    assert not hasattr(tpursuit.errors, "NonNegligibleImaginaryPart")


def test_refine_rejects_a_dense_map():
    dims = (4, 4, 2)
    phi = gaussian_ensemble(20, dims, seed=5)
    assert isinstance(phi, DenseMap)
    with pytest.raises(ValueError, match="sampling map"):
        tpursuit.refine(np.zeros(phi.m), phi, np.zeros(dims), 2)
