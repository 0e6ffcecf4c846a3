"""Rank/linear correlation metrics against scipy oracles and hand anchors."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dcvqe.metrics import (DegenerateInputError, MetricsReport, _average_ranks,
                           compute_report, krcc, median_report, plcc, rmse, srcc)
from oracles import krcc_pairs


def report(s=0.0, k=0.0, p=0.0, r=0.0, n=10):
    return MetricsReport(srcc=s, krcc=k, plcc=p, rmse=r, n=n)


class TestSRCC:
    def test_monotone_is_one(self):
        g = [1.0, 2.0, 5.0, 9.0]
        assert srcc([0.1, 0.5, 0.6, 2.0], g) == 1.0

    def test_reversed_is_minus_one(self):
        g = [1.0, 2.0, 5.0, 9.0]
        assert srcc([2.0, 0.6, 0.5, 0.1], g) == -1.0

    def test_hand_anchor(self):
        # one swapped adjacent pair: 1 - 6*2/(4*15) = 0.8
        assert math.isclose(srcc([1, 2, 3, 4], [1, 3, 2, 4]), 0.8, rel_tol=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateInputError):
            srcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=3, max_value=40))
    def test_matches_scipy_with_ties(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.integers(0, 6, n).astype(float)  # integer grid forces ties
        g = rng.integers(0, 6, n).astype(float)
        if np.all(p == p[0]) or np.all(g == g[0]):
            return
        want = scipy.stats.spearmanr(p, g).statistic
        assert math.isclose(srcc(p, g), want, rel_tol=1e-12, abs_tol=1e-12)


class TestKRCC:
    def test_identical_order(self):
        assert krcc([1, 2, 3], [10, 20, 30]) == 1.0

    def test_hand_anchor(self):
        # 5 concordant, 1 discordant: (5-1)/6
        assert math.isclose(krcc([1, 2, 3, 4], [1, 3, 2, 4]), 4.0 / 6.0, rel_tol=1e-12)

    def test_reversed(self):
        assert krcc([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_all_tied_raises(self):
        with pytest.raises(DegenerateInputError):
            krcc([1.0, 1.0], [1.0, 2.0])

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=3, max_value=40))
    def test_matches_scipy_tau_b(self, seed, n):
        """The row-by-row pair count agrees with scipy's O(n log n) tau-b."""
        rng = np.random.default_rng(seed)
        p = rng.integers(0, 6, n).astype(float)
        g = rng.integers(0, 6, n).astype(float)
        if np.all(p == p[0]) or np.all(g == g[0]):
            return
        want = scipy.stats.kendalltau(p, g, variant="b").statistic
        assert math.isclose(krcc(p, g), want, rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=2, max_value=60),
           st.sampled_from([2, 6, None]))
    def test_bit_identical_to_the_pair_matrix(self, seed, n, levels):
        """The same integer counts as the n x n enumeration, so the same
        tau-b bits, with ties on an integer grid and without them."""
        rng = np.random.default_rng(seed)
        p, g = (rng.normal(size=n) if levels is None
                else rng.integers(0, levels, n).astype(float) for _ in range(2))
        if np.all(p == p[0]) or np.all(g == g[0]):
            return
        assert krcc(p, g) == krcc_pairs(p, g)

    def test_extreme_values_compare_without_overflow(self):
        # differences of these overflow to inf; the row count only compares
        assert krcc([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0]) == 1.0
        assert krcc([1e308, -1e308, 5e-324], [1.0, 2.0, 2.0]) == krcc([2, 0, 1], [1, 2, 2])

    def test_memory_is_linear_in_n(self):
        rng = np.random.default_rng(7)
        p, g = rng.normal(size=3000), rng.integers(0, 50, 3000).astype(float)
        tracemalloc.start()
        try:
            krcc(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6  # the pair matrices took 3000**2 * 8 bytes = 72 MB each


class TestPLCCAndRMSE:
    def test_equal_vectors(self):
        g = [1.0, 2.0, 4.0]
        assert plcc(g, g) == 1.0
        assert rmse(g, g) == 0.0

    def test_constant_shift(self):
        g = np.array([1.0, 2.0, 4.0])
        assert math.isclose(plcc(g + 3.0, g), 1.0, rel_tol=1e-12)
        assert math.isclose(rmse(g + 3.0, g), 3.0, rel_tol=1e-12)

    def test_scalar_loop_oracles(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=100)
        g = rng.normal(size=100)
        mp, mg = sum(p) / 100, sum(g) / 100
        num = sum((a - mp) * (b - mg) for a, b in zip(p, g))
        den = math.sqrt(sum((a - mp) ** 2 for a in p)) * math.sqrt(sum((b - mg) ** 2 for b in g))
        assert math.isclose(plcc(p, g), num / den, rel_tol=1e-12)
        assert math.isclose(rmse(p, g), math.sqrt(sum((a - b) ** 2 for a, b in zip(p, g)) / 100),
                            rel_tol=1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateInputError):
            plcc([2.0, 2.0], [1.0, 3.0])


class TestNonFiniteInput:
    @pytest.mark.parametrize("metric", [srcc, krcc, plcc, rmse, compute_report],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_naming_the_index(self, metric, bad):
        good = [1.0, 2.0, 3.0, 4.0, 5.0]
        hit = [0.1, 0.5, 0.6, bad, 2.0]
        with pytest.raises(DegenerateInputError, match=r"predictions .* at index 3"):
            metric(hit, good)
        with pytest.raises(DegenerateInputError, match=r"ground truths .* at index 3"):
            metric(good, hit)

    def test_average_ranks_terminates_on_nan(self):
        # NaN != NaN: the tie scan must still advance past it
        ranks = _average_ranks(np.array([2.0, math.nan, 1.0, 2.0]))
        assert sorted(ranks.tolist()) == [1.0, 2.5, 2.5, 4.0]


class TestInvariances:
    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_rank_metrics_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=12)
        g = rng.normal(size=12)
        warped = np.exp(0.5 * p) + p ** 3  # strictly increasing
        assert math.isclose(srcc(warped, g), srcc(p, g), rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(krcc(warped, g), krcc(p, g), rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=-50, max_value=50))
    def test_plcc_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=10)
        g = rng.normal(size=10)
        assert math.isclose(plcc(a * p + b, g), plcc(p, g), rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_permutation_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=15)
        g = rng.normal(size=15)
        perm = rng.permutation(15)
        base = compute_report(p, g)
        shuffled = compute_report(p[perm], g[perm])
        for field in ("srcc", "krcc", "plcc", "rmse"):
            assert math.isclose(getattr(base, field), getattr(shuffled, field),
                                rel_tol=1e-12, abs_tol=1e-12)


class TestMedianReport:
    def test_single_report_is_itself(self):
        r = report(s=0.4, k=0.3, p=0.5, r=1.2, n=7)
        assert median_report([r]) == r

    def test_three_reports_middle(self):
        rs = [report(s=0.1), report(s=0.5), report(s=0.9)]
        assert median_report(rs).srcc == 0.5

    def test_four_reports_mean_of_middle_two(self):
        values = [0.9, 0.1, 0.4, 0.6]  # sorted: .1 .4 .6 .9 -> (.4+.6)/2
        rs = [report(s=v, k=v, p=v, r=v) for v in values]
        med = median_report(rs)
        target = (sorted(values)[1] + sorted(values)[2]) / 2
        for field in ("srcc", "krcc", "plcc", "rmse"):
            assert math.isclose(getattr(med, field), target, rel_tol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_report([])
