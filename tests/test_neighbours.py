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


# a cap no count reaches
NO_CAP = 2**62


def brute_nearest_and_count(X, idx, r):
    """Distance to the nearest other row, that row (of equally near rows, the
    lowest-numbered) and count within ``r`` (the query included) of each
    query row, over every sample row."""
    dist, near, count = [], [], []
    for i in idx:
        d2 = squared_distances(X, i)
        count.append(int(np.sum(d2 <= r * r)))
        d2[i] = np.inf
        near.append(int(np.argmin(d2)))
        dist.append(np.sqrt(d2[near[-1]]))
    return np.array(dist), np.array(near), np.array(count)


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
        cap=st.sampled_from([1, 2, 25, NO_CAP]),
    )
    @example(seed=1, n=2, d=1, decimals=None, outliers=0, copies=0, r=0.1, m=2, cap=NO_CAP)
    @example(seed=2, n=2, d=4, decimals=0, outliers=1, copies=0, r=1e-3, m=2, cap=NO_CAP)
    # rows 0.1 apart whose cell places round to 18.999999999999996 and 19.0
    @example(seed=7, n=40, d=2, decimals=1, outliers=0, copies=0, r=0.1, m=40, cap=NO_CAP)
    def test_equals_brute_force(self, seed, n, d, decimals, outliers, copies, r, m, cap):
        X = draw_cloud(seed, n, d, decimals, outliers, copies)
        rng = np.random.default_rng(seed + 1)
        # the outliers' nearest rows lie many cells out: they need the retry
        idx = np.r_[np.arange(min(outliers, n)), rng.choice(X.shape[0], min(m, X.shape[0]),
                                                             replace=False)]
        dist, near, count = neighbours.nearest_and_count(X, idx, r, cap)
        ref_dist, ref_near, ref_count = brute_nearest_and_count(X, idx, r)
        # the cap bounds the count and moves neither the distance nor the row
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(near, ref_near)
        np.testing.assert_array_equal(count, np.minimum(ref_count, cap))
        with mock.patch.object(estimate, "_BLOCK_PAIRS", 3):
            blocked = neighbours.nearest_and_count(X, idx, r, cap)
        for got, want in zip(blocked, (dist, near, count), strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r", [0.1, 0.2, 0.3])
    def test_equals_brute_force_far_from_origin(self, d, r):
        # a lattice of spacing 0.1 at 1e10, where one rounding unit of a
        # coordinate (2e-6) dwarfs the relative margins on the radius.  Capped,
        # most counts end at the sure run; uncapped, every one compares at the
        # ball's rim.
        rng = np.random.default_rng(d)
        X = 1e10 + 0.1 * rng.integers(0, 6, (300, d))
        idx = rng.choice(300, 40, replace=False)
        ref_dist, ref_near, ref_count = brute_nearest_and_count(X, idx, r)
        for cap in (1, 8, NO_CAP):
            dist, near, count = neighbours.nearest_and_count(X, idx, r, cap)
            np.testing.assert_array_equal(dist, ref_dist)
            np.testing.assert_array_equal(near, ref_near)
            np.testing.assert_array_equal(count, np.minimum(ref_count, cap))

    def test_duplicate_is_a_neighbour_and_the_query_is_not(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        dist, near, count = neighbours.nearest_and_count(X, np.array([0, 1, 2]), 1.0, NO_CAP)
        np.testing.assert_array_equal(dist, [0.0, 0.0, 5.0])
        np.testing.assert_array_equal(near, [1, 0, 0])
        np.testing.assert_array_equal(count, [2, 2, 1])

    def test_one_sample_refused(self):
        with pytest.raises(InvalidArgumentError):
            neighbours.nearest_and_count(np.zeros((1, 2)), np.array([0]), 1.0, 1)
