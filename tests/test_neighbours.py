from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from straightflow import estimate, neighbours
from straightflow.errors import InvalidArgumentError


def squared_distances(X, i):
    """Squared distances from row ``i`` to every row, summed over the axes in
    order, as the search sums them."""
    d2 = np.zeros(X.shape[0])
    for a in range(X.shape[1]):
        d2 += (X[:, a] - X[i, a]) ** 2
    return d2


def brute_nearest_and_count(X, idx, r):
    """Distance to the nearest other row and count within ``r`` (the query
    included) of each query row, over every sample row."""
    dist, count = [], []
    for i in idx:
        d2 = squared_distances(X, i)
        count.append(int(np.sum(d2 <= r * r)))
        d2[i] = np.inf
        dist.append(np.sqrt(d2.min()))
    return np.array(dist), np.array(count)


def draw_cloud(seed, n, d, decimals, outliers, copies):
    """``n`` standard-normal rows in ``d`` dimensions, rounded to ``decimals``
    (None keeps them) to make ties, the first ``outliers`` pushed 1e2 to 1e4
    times farther out, and the first ``copies`` rows appended again."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if decimals is not None:
        X = np.round(X, decimals)
    X[:outliers] *= 10.0 ** rng.uniform(2, 4, (min(outliers, n), 1))
    return np.concatenate([X, X[:copies]])


class TestNearestAndCount:
    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        d=st.integers(1, 4),
        decimals=st.sampled_from([None, 0, 1]),
        outliers=st.integers(0, 3),
        copies=st.integers(0, 4),
        r=st.sampled_from([1e-3, 0.1, 0.5, 3.0]),
        m=st.integers(1, 40),
    )
    @example(seed=1, n=2, d=1, decimals=None, outliers=0, copies=0, r=0.1, m=2)
    @example(seed=2, n=2, d=4, decimals=0, outliers=1, copies=0, r=1e-3, m=2)
    def test_equals_brute_force(self, seed, n, d, decimals, outliers, copies, r, m):
        X = draw_cloud(seed, n, d, decimals, outliers, copies)
        rng = np.random.default_rng(seed + 1)
        # the outliers' nearest rows lie many cells out: they need the retry
        idx = np.r_[np.arange(min(outliers, n)), rng.choice(X.shape[0], min(m, X.shape[0]),
                                                             replace=False)]
        dist, near, count = neighbours.nearest_and_count(X, idx, r)
        ref_dist, ref_count = brute_nearest_and_count(X, idx, r)
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(count, ref_count)
        # the row found is another row (a duplicate may be) at that distance
        assert np.all(near != idx)
        found = [np.sqrt(squared_distances(X, i)[j]) for i, j in zip(idx, near)]
        np.testing.assert_array_equal(found, dist)
        with mock.patch.object(estimate, "_BLOCK_PAIRS", 3):
            blocked_dist, _, blocked_count = neighbours.nearest_and_count(X, idx, r)
        np.testing.assert_array_equal(blocked_dist, dist)
        np.testing.assert_array_equal(blocked_count, count)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r", [0.1, 0.2, 0.3])
    def test_equals_brute_force_far_from_origin(self, d, r):
        # a lattice of spacing 0.1 at 1e10, where one rounding unit of a
        # coordinate (2e-6) dwarfs the relative margins on the radius
        rng = np.random.default_rng(d)
        X = 1e10 + 0.1 * rng.integers(0, 6, (300, d))
        idx = rng.choice(300, 40, replace=False)
        dist, _, count = neighbours.nearest_and_count(X, idx, r)
        ref_dist, ref_count = brute_nearest_and_count(X, idx, r)
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(count, ref_count)

    def test_duplicate_is_a_neighbour_and_the_query_is_not(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        dist, near, count = neighbours.nearest_and_count(X, np.array([0, 1, 2]), 1.0)
        np.testing.assert_array_equal(dist, [0.0, 0.0, 5.0])
        np.testing.assert_array_equal(near, [1, 0, 0])
        np.testing.assert_array_equal(count, [2, 2, 1])

    def test_one_sample_refused(self):
        with pytest.raises(InvalidArgumentError):
            neighbours.nearest_and_count(np.zeros((1, 2)), np.array([0]), 1.0)
