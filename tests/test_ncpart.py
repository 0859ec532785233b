from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv.errors import NTooLarge, OrderTooLarge, OutOfRange
from freeconv.ncpart import (catalan, count_nc_blocks, cumulants_to_moments,
                             enumerate_nc, is_noncrossing,
                             moments_to_cumulants, moments_via_enumeration)


class TestEnumerate:
    def test_n1(self):
        assert enumerate_nc(1) == [[[1]]]

    def test_n3_count(self):
        assert len(enumerate_nc(3)) == 5

    def test_n4_excludes_crossing(self):
        parts = enumerate_nc(4)
        assert len(parts) == 14
        canon = {tuple(tuple(sorted(b)) for b in sorted(p)) for p in parts}
        assert ((1, 3), (2, 4)) not in canon
        assert len(canon) == 14          # no duplicates

    def test_counts_match_catalan(self):
        for n in range(1, 9):
            assert len(enumerate_nc(n)) == catalan(n)

    def test_partitions_are_valid(self):
        for part in enumerate_nc(5):
            flat = sorted(v for blk in part for v in blk)
            assert flat == list(range(1, 6))
            assert is_noncrossing(part)

    def test_bound(self):
        with pytest.raises(NTooLarge):
            enumerate_nc(15)


class TestIsNoncrossing:
    def test_crossing(self):
        assert not is_noncrossing([[1, 3], [2, 4]])

    def test_nested(self):
        assert is_noncrossing([[1, 4], [2, 3]])


class TestBlockCounts:
    def test_single_block(self):
        for n in (1, 5, 40):
            assert count_nc_blocks(n, 1) == 1

    def test_all_singletons(self):
        for n in (1, 5, 40):
            assert count_nc_blocks(n, n) == 1

    def test_4_2(self):
        assert count_nc_blocks(4, 2) == 6

    def test_matches_enumeration(self):
        for n in range(1, 9):
            cnt = Counter(len(p) for p in enumerate_nc(n))
            for s in range(1, n + 1):
                assert count_nc_blocks(n, s) == cnt.get(s, 0)

    def test_row_sums_are_catalan(self):
        for n in range(1, 31):
            assert sum(count_nc_blocks(n, s) for s in range(1, n + 1)) == catalan(n)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            count_nc_blocks(61, 1)
        with pytest.raises(OutOfRange):
            count_nc_blocks(5, 6)
        with pytest.raises(OutOfRange):
            count_nc_blocks(5, 0)


class TestCumulantsToMoments:
    def test_pair_partition_counts(self):
        m = cumulants_to_moments([0, 1, 0, 0, 0, 0])
        assert m == pytest.approx([0, 1, 0, 2, 0, 5])

    def test_first_order(self):
        assert cumulants_to_moments([2.5]) == pytest.approx([2.5])

    def test_third_cumulant_is_third_moment_when_centered(self):
        for t in (-1.0, 0.3, 2.0):
            m = cumulants_to_moments([0, 1, t])
            assert m[2] == pytest.approx(t)

    def test_paths_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            alpha = rng.uniform(-2, 2, 10)
            a = cumulants_to_moments(alpha)
            b = moments_via_enumeration(alpha)
            scale = np.maximum(1.0, np.abs(a))
            assert np.max(np.abs(np.subtract(a, b)) / scale) < 1e-10

    def test_paths_agree_order_12(self):
        rng = np.random.default_rng(11)
        alpha = rng.uniform(-2, 2, 12)
        a = cumulants_to_moments(alpha)
        b = moments_via_enumeration(alpha)
        scale = np.maximum(1.0, np.abs(a))
        assert np.max(np.abs(np.subtract(a, b)) / scale) < 1e-10

    def test_even_moment_dominates_cumulant(self):
        # with odd cumulants zero and even ones nonnegative, every extra
        # partition contributes a nonnegative product
        rng = np.random.default_rng(12)
        for _ in range(10):
            alpha = rng.uniform(0, 2, 8)
            alpha[::2] = 0.0        # zero out odd orders (1-indexed)
            m = cumulants_to_moments(alpha)
            for n in (2, 4, 6, 8):
                assert m[n - 1] >= alpha[n - 1] - 1e-12

    def test_order_limits(self):
        with pytest.raises(OrderTooLarge):
            cumulants_to_moments([0.0] * 33)
        with pytest.raises(OrderTooLarge):
            moments_via_enumeration([0.0] * 15)


class TestMomentsToCumulants:
    def test_semicircle_prefix(self):
        assert moments_to_cumulants([0, 1, 0, 2]) == pytest.approx([0, 1, 0, 0])

    def test_fourth_cumulant_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m3, m4 = rng.uniform(-2, 2, 2)
            alpha = moments_to_cumulants([0, 1, m3, m4])
            assert alpha[3] == pytest.approx(m4 - 2.0)

    def test_first_order(self):
        assert moments_to_cumulants([0.7]) == pytest.approx([0.7])

    def test_low_order_closed_forms(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            m1, m2, m3 = rng.uniform(-2, 2, 3)
            a = moments_to_cumulants([m1, m2, m3])
            assert a[0] == pytest.approx(m1)
            assert a[1] == pytest.approx(m2 - m1**2)
            assert a[2] == pytest.approx(m3 - 3 * m1 * m2 + 2 * m1**3)

    # entries kept in [-1, 1]: round-trip conditioning grows like
    # Catalan(12) * max|alpha|^12, so wider ranges exceed 1e-9 in float64
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=12))
    def test_round_trip(self, alpha):
        back = moments_to_cumulants(cumulants_to_moments(alpha))
        scale = np.maximum(1.0, np.abs(alpha))
        assert np.max(np.abs(np.subtract(back, alpha)) / scale) < 1e-9

    def test_shift_covariance(self):
        # free cumulants beyond the first are invariant under x -> x + c
        rng = np.random.default_rng(15)
        from math import comb
        K = 8
        for c in (0.5, -1.2):
            alpha = rng.uniform(-2, 2, K)
            m = [1.0] + cumulants_to_moments(alpha)       # prepend m_0
            shifted = [sum(comb(n, j) * m[j] * c**(n - j) for j in range(n + 1))
                       for n in range(1, K + 1)]
            a2 = moments_to_cumulants(shifted)
            assert a2[0] == pytest.approx(alpha[0] + c, abs=1e-9)
            for k in range(1, K):
                assert a2[k] == pytest.approx(alpha[k], abs=1e-9)
