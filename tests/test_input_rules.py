"""One check per input rule: every count, rank and width goes through
tensor.positive_int, every measured vector through measure.whiten, and
the dense entry limit is checked before an ensemble draws anything.

A bad value raises a ValueError subclass at the boundary, never a
TypeError from deep inside numpy and never a silent truncation."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tpursuit import measure as ms  # noqa: E402
from tpursuit import pursuit as pu  # noqa: E402
from tpursuit import trip  # noqa: E402
from tpursuit.errors import RankOutOfRange, ShapeMismatch  # noqa: E402
from tpursuit.tsvd import leading_atoms, truncated_tsvd  # noqa: E402

FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True)

DIMS = (4, 3, 2)
RANK_HIGH = 3    # min(n1, n2)
Y = trip.sample_rank_r_unit(DIMS, 1, np.random.default_rng(5))
SAMPLING = ms.sampling_map(ms.random_mask(DIMS, 0.25, seed=5))
B = ms.apply(SAMPLING, Y)
ENSEMBLE_HIGH = ms.DENSE_ENTRY_LIMIT // 24


def _rng():
    return np.random.default_rng(0)


# name, call on the value, upper bound (None: unbounded), error raised
SITES = [
    ("PursuitConfig.r", lambda v: pu.PursuitConfig(r=v), None, RankOutOfRange),
    ("PursuitConfig.s", lambda v: pu.PursuitConfig(r=3, s=v), 3, ValueError),
    ("run r", lambda v: pu.run(B, SAMPLING, pu.PursuitConfig(r=v)), RANK_HIGH,
     RankOutOfRange),
    ("refine r", lambda v: pu.refine(B, SAMPLING, Y, v), RANK_HIGH, RankOutOfRange),
    ("truncated_tsvd k", lambda v: truncated_tsvd(Y, v), RANK_HIGH, RankOutOfRange),
    ("leading_atoms s", lambda v: leading_atoms(Y, v), RANK_HIGH, RankOutOfRange),
    ("TripStudyConfig.m_grid", lambda v: trip.TripStudyConfig(DIMS, 1, (4, v)), None,
     ValueError),
    ("TripStudyConfig.r", lambda v: trip.TripStudyConfig(DIMS, v, (4,)), RANK_HIGH,
     RankOutOfRange),
    ("TripStudyConfig.n_samples", lambda v: trip.TripStudyConfig(DIMS, 1, (4,), n_samples=v),
     None, ValueError),
    ("TripStudyConfig.trials", lambda v: trip.TripStudyConfig(DIMS, 1, (4,), trials=v), None,
     ValueError),
    ("sample_rank_r_unit r", lambda v: trip.sample_rank_r_unit(DIMS, v, _rng()), RANK_HIGH,
     RankOutOfRange),
    ("empirical_delta n_samples", lambda v: trip.empirical_delta(SAMPLING, DIMS, 1, v, _rng()),
     None, ValueError),
    ("gaussian_ensemble m", lambda v: ms.gaussian_ensemble(v, DIMS, seed=0), ENSEMBLE_HIGH,
     ValueError),
    ("rademacher_ensemble m", lambda v: ms.rademacher_ensemble(v, DIMS, seed=0), ENSEMBLE_HIGH,
     ValueError),
]


def _values(high):
    # small ints around the lower bound, high + 1, bools, floats, numpy
    # scalars of either kind, and values of the wrong type
    ints = st.integers(-3, 10)
    if high is not None:
        ints = st.one_of(ints, st.just(high + 1))
    return st.one_of(
        ints,
        ints.map(np.int64),
        ints.map(np.int32),
        st.sampled_from([True, False, np.True_, 2.0, np.float64(2.0), np.nan, np.inf]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["2", None, (2,)]),
    )


@pytest.mark.parametrize("name, call, high, error", SITES, ids=[s[0] for s in SITES])
def test_every_count_and_rank_takes_whole_numbers_in_range(name, call, high, error):
    @FUZZ
    @given(value=_values(high))
    def check(value):
        valid = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                 and 1 <= value and (high is None or value <= high))
        if valid:
            call(value)
        else:
            with pytest.raises(error):
                call(value)

    check()


# name, call on the dims; every dim goes through positive_int
DIMS_SITES = [
    ("SamplingMask", lambda dims: ms.SamplingMask(dims, [0, 1]).dims),
    ("DenseMap", lambda dims: ms.DenseMap(np.ones((1, 24)), dims).dims),
    ("random_mask", lambda dims: ms.random_mask(dims, 0.5, seed=0).dims),
    ("sample_rank_r_unit", lambda dims: trip.sample_rank_r_unit(dims, 1, _rng()).shape),
    ("TripStudyConfig", lambda dims: trip.TripStudyConfig(dims, 1, (4,)).dims),
]


@pytest.mark.parametrize("name, call", DIMS_SITES, ids=[s[0] for s in DIMS_SITES])
@pytest.mark.parametrize("bad", [True, False, np.True_, 4.0, np.float64(4.0), 2.5, 0, -1, "4",
                                 None])
def test_every_dim_is_a_whole_number(name, call, bad):
    # a bool is not read as 1 nor a float truncated, on any axis
    for axis in range(3):
        dims = list(DIMS)
        dims[axis] = bad
        with pytest.raises(ShapeMismatch, match="dims"):
            call(tuple(dims))
    assert call(tuple(np.int64(d) for d in DIMS)) == DIMS


@pytest.mark.parametrize("phi", [SAMPLING, ms.gaussian_ensemble(12, DIMS, seed=9)],
                         ids=["sampling", "dense"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_measurements_are_refused_on_every_map(phi, bad):
    b = ms.apply(phi, Y)
    b[phi.m // 2] = bad
    with pytest.raises(ValueError, match="finite"):
        ms.pinv_apply(phi, b)
    with pytest.raises(ValueError, match="finite"):
        ms.whiten(phi, b)
    with pytest.raises(ValueError, match="finite"):
        ms.whiten(phi, np.column_stack([np.ones(phi.m), b]))
    with pytest.raises(ValueError, match="finite"):
        pu.run(b, phi, pu.PursuitConfig(r=1))
    with pytest.raises(ValueError, match="finite"):
        pu.refine(b, phi, Y, 1)


def test_an_ensemble_over_the_entry_limit_draws_nothing(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built for a refused request")

    monkeypatch.setattr(ms.np.random, "default_rng", no_generator)
    for make in ms.ENSEMBLES.values():
        with pytest.raises(ValueError, match="entry limit"):
            make(ms.DENSE_ENTRY_LIMIT // 256 + 1, (8, 8, 4), seed=0)
