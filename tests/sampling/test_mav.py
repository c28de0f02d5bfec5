"""Tests for memory-access-vector (MAV) features."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sampling import make_controller, mav_matrix
from repro.sampling.simpoint import (profile_bbv, profile_bbv_mav,
                                     stride_bucket, touch_histograms)
from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark


# ----------------------------------------------------------------------
# stride buckets

def test_stride_bucket_zero_is_its_own_bucket():
    assert stride_bucket(0) == 0


def test_stride_bucket_log2_magnitude():
    assert stride_bucket(1) == 1
    assert stride_bucket(-1) == 1
    assert stride_bucket(2) == 2
    assert stride_bucket(3) == 2
    assert stride_bucket(4) == 3
    assert stride_bucket(7) == 3
    assert stride_bucket(8) == 4


def test_stride_bucket_saturates():
    assert stride_bucket(1 << 40) == 15
    assert stride_bucket(-(1 << 40)) == 15


# ----------------------------------------------------------------------
# touch histograms

def test_touch_histograms_counts_pages_and_strides():
    pages, strides = touch_histograms([7, 7, 8, 7])
    assert pages == {7: 3, 8: 1}
    # deltas: 0 (7->7), 1 (7->8), 1 (8->7 magnitude)
    assert strides == {0: 1, 1: 2}


def test_touch_histograms_empty():
    assert touch_histograms([]) == ({}, {})


# ----------------------------------------------------------------------
# matrix construction

def test_mav_matrix_rows_are_l1_normalized_per_block():
    pages = [{1: 3, 2: 1}, {2: 4}]
    strides = [{0: 2}, {0: 1, 3: 1}]
    matrix = mav_matrix(pages, strides)
    assert matrix.shape == (2, 2 + 2)  # pages {1,2} + buckets {0,3}
    # each half of each row sums to 1 (touched rows)
    np.testing.assert_allclose(matrix[:, :2].sum(axis=1), [1.0, 1.0])
    np.testing.assert_allclose(matrix[:, 2:].sum(axis=1), [1.0, 1.0])


def test_mav_matrix_weight_scales_everything():
    pages = [{1: 1}]
    strides = [{0: 1}]
    np.testing.assert_allclose(mav_matrix(pages, strides, weight=0.25),
                               0.25 * mav_matrix(pages, strides))


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 50), st.integers(1, 9),
                        min_size=1, max_size=6),
        st.dictionaries(st.integers(0, 15), st.integers(1, 9),
                        min_size=1, max_size=6)),
    min_size=1, max_size=6),
    st.randoms(use_true_random=False))
def test_mav_matrix_permutation_stable(hists, rng):
    """Dict insertion order must never leak into the feature matrix.

    The MAV columns come from key unions of per-interval dicts; the
    matrix must be identical however those dicts were populated.
    """
    pages = [dict(p) for p, _ in hists]
    strides = [dict(s) for _, s in hists]

    def shuffled(mapping):
        items = list(mapping.items())
        rng.shuffle(items)
        return dict(items)

    baseline = mav_matrix(pages, strides)
    permuted = mav_matrix([shuffled(p) for p in pages],
                          [shuffled(s) for s in strides])
    np.testing.assert_array_equal(baseline, permuted)


def test_mav_matrix_empty_intervals_are_zero_rows():
    matrix = mav_matrix([{1: 1}, {}], [{0: 1}, {}])
    np.testing.assert_allclose(matrix[1], 0.0)


def test_mav_matrix_no_intervals():
    assert mav_matrix([], []).shape[0] == 0


# ----------------------------------------------------------------------
# the profiling pass

@pytest.mark.parametrize("bench, n_cores, intervals",
                         [("gcc", 1, 47), ("lockcnt", 2, 10)])
def test_mav_pass_sees_the_plain_bbv_pass(bench, n_cores, intervals):
    """Riding the MAV histograms on the profiling pass changes none of
    its BBVs, interval starts or charged instructions."""
    def controller():
        kwargs = dict(SUITE_MACHINE_KWARGS)
        if n_cores > 1:
            kwargs["n_cores"] = n_cores
        return make_controller(load_benchmark(bench, size="tiny"),
                               machine_kwargs=kwargs)

    plain_controller, mav_controller = controller(), controller()
    plain = profile_bbv(plain_controller, 1000)
    bbv, mav = profile_bbv_mav(mav_controller, 1000)
    assert len(plain.vectors) == intervals
    assert bbv.vectors == plain.vectors
    assert bbv.starts == plain.starts
    assert len(mav.page_hists) == len(mav.stride_hists) == intervals
    assert mav_controller.breakdown.profile_instructions \
        == plain_controller.breakdown.profile_instructions > 0
