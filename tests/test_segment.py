"""Unit + property tests for segment reductions (the reduceat wrappers)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.segment import (
    expand_segments,
    segment_max,
    segment_softmax,
    segment_sum,
)


def brute_segments(values, indptr, fn, identity):
    out = []
    for i in range(len(indptr) - 1):
        seg = values[indptr[i]: indptr[i + 1]]
        out.append(fn(seg) if len(seg) else identity)
    return np.array(out)


@st.composite
def segmented_values(draw):
    """Random segment structure including empty segments anywhere."""
    lengths = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                 max_size=12)
    )
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    values = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=int(indptr[-1]),
            max_size=int(indptr[-1]),
        )
    )
    return np.asarray(values, dtype=np.float64), indptr


class TestAgainstBruteForce:
    @given(segmented_values())
    @settings(max_examples=60, deadline=None)
    def test_sum(self, case):
        values, indptr = case
        expected = brute_segments(values, indptr, np.sum, 0.0)
        assert np.allclose(segment_sum(values, indptr), expected)

    @given(segmented_values())
    @settings(max_examples=60, deadline=None)
    def test_max(self, case):
        values, indptr = case
        expected = brute_segments(values, indptr, np.max, -np.inf)
        assert np.array_equal(segment_max(values, indptr), expected)


class TestEdgeCases:
    def test_empty_middle_segment_regression(self):
        """The reduceat empty-middle-segment bug that broke SpMM."""
        indptr = np.array([0, 3, 6, 7, 7, 10, 12, 12])
        values = np.arange(12, dtype=np.float64)
        out = segment_sum(values, indptr)
        assert out[3] == 0.0
        assert out[5] == 10 + 11  # the segment after the empty one

    def test_trailing_empty_segments(self):
        indptr = np.array([0, 2, 2, 2])
        values = np.array([1.0, 2.0])
        assert np.allclose(segment_sum(values, indptr), [3.0, 0.0, 0.0])

    def test_all_empty(self):
        indptr = np.zeros(5, dtype=np.int64)
        out = segment_sum(np.empty(0), indptr)
        assert np.allclose(out, 0)

    def test_no_segments(self):
        out = segment_sum(np.empty(0), np.array([0]))
        assert out.shape == (0,)

    def test_2d_values(self, rng):
        values = rng.normal(size=(6, 3))
        indptr = np.array([0, 2, 2, 6])
        out = segment_sum(values, indptr)
        assert out.shape == (3, 3)
        assert np.allclose(out[0], values[:2].sum(0))
        assert np.allclose(out[1], 0)
        assert np.allclose(out[2], values[2:].sum(0))

    def test_expand_segments_inverse_lengths(self):
        indptr = np.array([0, 2, 2, 5])
        out = expand_segments(np.array([10.0, 20.0, 30.0]), indptr)
        assert np.allclose(out, [10, 10, 30, 30, 30])


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        indptr = np.array([0, 3, 3, 8])
        values = rng.normal(size=8)
        out = segment_softmax(values, indptr)
        assert np.isclose(out[:3].sum(), 1.0)
        assert np.isclose(out[3:].sum(), 1.0)

    def test_matches_naive_softmax(self, rng):
        values = rng.normal(size=5)
        indptr = np.array([0, 5])
        expected = np.exp(values) / np.exp(values).sum()
        assert np.allclose(segment_softmax(values, indptr), expected)

    def test_shift_invariance(self, rng):
        values = rng.normal(size=6)
        indptr = np.array([0, 6])
        shifted = segment_softmax(values + 1000.0, indptr)
        assert np.allclose(shifted, segment_softmax(values, indptr))

    def test_numerically_stable_for_large_values(self):
        values = np.array([1e4, 1e4 + 1.0])
        out = segment_softmax(values, np.array([0, 2]))
        assert np.all(np.isfinite(out))
        assert np.isclose(out.sum(), 1.0)

    def test_empty_input(self):
        out = segment_softmax(np.empty(0), np.array([0, 0]))
        assert out.shape == (0,)

    @given(segmented_values())
    @settings(max_examples=40, deadline=None)
    def test_property_rows_normalised(self, case):
        values, indptr = case
        out = segment_softmax(values, indptr)
        for i in range(len(indptr) - 1):
            seg = out[indptr[i]: indptr[i + 1]]
            if len(seg):
                assert np.isclose(seg.sum(), 1.0)
                assert np.all(seg >= 0)
