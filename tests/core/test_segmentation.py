"""Segmentation kernel: vectorized greedy vs reference, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.segmentation import (
    delta_from_percent,
    is_weak_monotonic,
    segment_boundaries,
    segment_greedy_reference,
    step_signs,
)


class TestBasics:
    def test_empty_stream(self):
        assert segment_boundaries(np.array([]), 0.0).tolist() == [0]

    def test_single_element(self):
        assert segment_boundaries(np.array([3.0]), 0.0).tolist() == [0, 1]

    def test_monotonic_stream_is_one_segment(self):
        w = np.arange(100, dtype=float)
        assert segment_boundaries(w, 0.0).tolist() == [0, 100]

    def test_decreasing_stream_is_one_segment(self):
        w = -np.arange(50, dtype=float)
        assert segment_boundaries(w, 0.0).tolist() == [0, 50]

    def test_constant_stream_is_one_segment(self):
        w = np.ones(20)
        assert segment_boundaries(w, 0.0).tolist() == [0, 20]

    def test_v_shape_splits_once(self):
        # strictly down then strictly up: break at the turning step
        w = np.array([3.0, 2.0, 1.0, 2.0, 3.0])
        b = segment_boundaries(w, 0.0)
        assert b.tolist() == [0, 3, 5]

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            segment_boundaries(np.array([1.0, 2.0]), -0.1)

    def test_lengths_sum_to_n(self):
        w = np.random.default_rng(0).normal(size=500)
        b = segment_boundaries(w, 0.05)
        assert np.diff(b).sum() == 500


class TestWorstCaseFig5:
    """The paper's Fig. 5: pairwise-alternating stream."""

    W = np.array([1.0, 0.9, 1.05, 0.95, 1.1, 1.0, 1.15, 1.05])

    def test_strict_sense_degenerates(self):
        b = segment_boundaries(self.W, 0.0)
        # n/2 segments of length 2 each: compression ratio ~ 1
        assert np.diff(b).tolist() == [2, 2, 2, 2]

    def test_weak_sense_collapses_to_one_segment(self):
        # the small back-steps (0.1) fall within delta, the big trend is up
        b = segment_boundaries(self.W, 0.12)
        assert b.tolist() == [0, len(self.W)]


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.5, 2.0])
    def test_gaussian_streams(self, seed, delta):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=rng.integers(2, 300))
        assert np.array_equal(
            segment_boundaries(w, delta), segment_greedy_reference(w, delta)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_discrete_streams_with_ties(self, seed):
        rng = np.random.default_rng(seed + 100)
        w = rng.integers(-3, 4, size=200).astype(float)
        for delta in (0.0, 1.0, 2.0):
            assert np.array_equal(
                segment_boundaries(w, delta), segment_greedy_reference(w, delta)
            )

    def test_alternating_equal_magnitude(self):
        w = np.tile([0.0, 1.0], 50)
        assert np.array_equal(
            segment_boundaries(w, 0.0), segment_greedy_reference(w, 0.0)
        )


class TestProperties:
    @given(
        w=hnp.arrays(
            np.float64,
            st.integers(0, 120),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        delta=st.floats(0, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_covers_exactly(self, w, delta):
        b = segment_boundaries(w, delta)
        assert b[0] == 0 and b[-1] == len(w.ravel()) if len(w) else b.tolist() == [0]
        assert (np.diff(b) > 0).all()

    @given(
        w=hnp.arrays(
            np.float64,
            st.integers(2, 120),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        delta=st.floats(0, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_segment_is_weak_monotonic(self, w, delta):
        b = segment_boundaries(w, delta)
        for i in range(len(b) - 1):
            assert is_weak_monotonic(w[b[i] : b[i + 1]], delta)

    @given(
        w=hnp.arrays(
            np.float64,
            st.integers(2, 100),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        delta=st.floats(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, w, delta):
        assert np.array_equal(
            segment_boundaries(w, delta), segment_greedy_reference(w, delta)
        )

    @given(
        w=hnp.arrays(
            np.float64,
            st.integers(2, 100),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_larger_delta_never_increases_segments(self, w):
        # monotonicity of the segmentation in delta, on a grid
        counts = [
            len(segment_boundaries(w, d)) - 1 for d in (0.0, 1.0, 5.0, 100.0)
        ]
        assert counts == sorted(counts, reverse=True)

    @given(
        w=hnp.arrays(
            np.float64,
            st.integers(2, 80),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_huge_delta_gives_single_segment(self, w):
        span = float(w.max() - w.min()) + 1.0
        assert segment_boundaries(w, span).tolist() == [0, len(w)]


class TestDeltaFromPercent:
    def test_percent_of_range(self):
        w = np.array([-1.0, 3.0])
        assert delta_from_percent(w, 25.0) == pytest.approx(1.0)

    def test_zero_percent(self):
        assert delta_from_percent(np.array([1.0, 2.0]), 0.0) == 0.0

    def test_empty(self):
        assert delta_from_percent(np.array([]), 10.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            delta_from_percent(np.array([1.0]), -1.0)


class TestStepSigns:
    def test_classification(self):
        w = np.array([0.0, 2.0, 1.9, -1.0])
        signs = step_signs(w, delta=0.5)
        assert signs.tolist() == [1, 0, -1]
