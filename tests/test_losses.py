"""Loss values against hand computations and scalar-loop oracles, plus the
equivalence between the double-sum and mean-deviation correlation forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcvqe import autodiff as ad
from dcvqe.autodiff import Graph, Tensor, backward
from dcvqe.losses import (LossConfig, correlation_loss, l1_loss, pairwise_ranking_loss,
                          total_loss)
from oracles import correlation_loss_raw


def l1_oracle(p, g):
    return sum(abs(a - b) for a, b in zip(p, g)) / len(p)


def correlation_oracle(p, g):
    """Literal double-sum evaluation, scalar loops only."""
    n = len(p)
    total = 0.0
    for i in range(n):
        sp = sum(p[i] - p[m] for m in range(n))
        sg = sum(g[i] - g[m] for m in range(n))
        total += max(0.0, -(sp * sg))
    return total / n


def pwrl_oracle(p, g):
    terms = []
    for a in range(len(p)):
        for b in range(len(p)):
            if a == b or g[a] == g[b]:
                continue
            s = 1.0 if g[a] > g[b] else -1.0
            terms.append(math.log(1.0 + math.exp(-s * (p[a] - p[b]))))
    return sum(terms) / len(terms)


batches = st.integers(min_value=1, max_value=32).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=n, max_size=n)))


class TestL1:
    def test_zero_at_equality(self):
        assert l1_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).item() == 0.0

    def test_hand_sum(self):
        assert l1_loss([1.0, 2.0], [2.0, 4.0]).item() == 1.5

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-5, 5, 50).tolist()
        g = rng.uniform(-5, 5, 50).tolist()
        assert math.isclose(l1_loss(p, g).item(), l1_oracle(p, g), rel_tol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ad.ShapeError):
            l1_loss([1.0], [1.0, 2.0])


class TestCorrelationLoss:
    def test_reversed_order_anchor(self):
        # deviations (-1,0,1) vs (1,0,-1): hinge terms 1,0,1; times N=3 -> 6
        assert correlation_loss([1, 2, 3], [3, 2, 1]).item() == 6.0
        assert correlation_loss_raw([1, 2, 3], [3, 2, 1]) == 6.0

    def test_single_sample_is_zero(self):
        assert correlation_loss([4.2], [1.0]).item() == 0.0
        assert correlation_loss_raw([4.2], [1.0]) == 0.0

    def test_equal_vectors_zero(self):
        g = [1.0, 3.0, 2.0, 5.0]
        assert correlation_loss(g, g).item() == 0.0

    def test_positive_affine_annihilation_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = rng.uniform(-10, 10, int(rng.integers(2, 12)))
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(-10, 10))
            assert correlation_loss(a * g + b, g).item() == 0.0

    def test_anti_affine_worst_case(self):
        g = np.array([1.0, 2.0, 4.0, 7.0])
        n = len(g)
        expected = n * ((g - g.mean()) ** 2).sum()
        assert math.isclose(correlation_loss(-g, g).item(), expected, rel_tol=1e-12)

    @given(batches)
    def test_equivalence_of_both_forms(self, pg):
        p, g = pg
        raw = correlation_loss_raw(p, g)
        simplified = correlation_loss(p, g).item()
        assert abs(raw - simplified) <= 1e-9 * max(1.0, abs(raw), abs(simplified))

    @given(batches, st.floats(min_value=0.01, max_value=50, allow_nan=False))
    def test_quadratic_scaling(self, pg, c):
        p, g = pg
        base = correlation_loss(p, g).item()
        scaled = correlation_loss(c * np.asarray(p), c * np.asarray(g)).item()
        assert math.isclose(scaled, c * c * base, rel_tol=1e-9, abs_tol=1e-9)

    @given(batches)
    def test_nonnegative(self, pg):
        p, g = pg
        assert correlation_loss(p, g).item() >= 0.0
        assert correlation_loss_raw(p, g) >= 0.0
        assert l1_loss(p, g).item() >= 0.0

    def test_gradient_flows_through_mean(self):
        p = Tensor([[1.0], [2.0], [4.0]], name="p")
        g = [3.0, 2.0, 1.0]

        def f():
            return correlation_loss(p, g)

        report = ad.gradient_check(f, [p], h=1e-6)
        assert report.max_rel_error <= 1e-6


class TestPairwiseRanking:
    def test_large_margin_near_zero(self):
        p = [0.0, 100.0, 200.0]
        g = [1.0, 2.0, 3.0]
        assert pairwise_ranking_loss(p, g).item() < 1e-10

    def test_tied_prediction_pair_gives_log2(self):
        loss = pairwise_ranking_loss([1.0, 1.0], [1.0, 2.0]).item()
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(-3, 3, 10).tolist()
        g = rng.uniform(1, 5, 10).tolist()
        assert math.isclose(pairwise_ranking_loss(p, g).item(), pwrl_oracle(p, g),
                            rel_tol=1e-10)

    def test_tied_pairs_skipped(self):
        p = [1.0, 2.0, 3.0]
        g = [1.0, 1.0, 2.0]  # pair (0,1) tied, skipped
        expected = pwrl_oracle(p, g)
        assert math.isclose(pairwise_ranking_loss(p, g).item(), expected, rel_tol=1e-12)

    @staticmethod
    def value_and_gradient(p, g, cfg):
        pt = Tensor(np.array(p).reshape(-1, 1))
        with Graph() as graph:
            loss = total_loss(pt, g, cfg)
        backward(loss, graph)
        return loss.item(), pt.grad

    def test_all_tied_is_zero(self):
        value, grad = self.value_and_gradient([1.0, 2.0, 3.0], [2.0, 2.0, 2.0],
                                              LossConfig(alpha=0.0, beta=1.0, variant="pwrl"))
        assert value == 0.0 and np.array_equal(grad, np.zeros((3, 1)))

    def test_one_sample_is_zero(self):
        value, grad = self.value_and_gradient([1.0], [1.0],
                                              LossConfig(alpha=0.0, beta=1.0, variant="pwrl"))
        assert value == 0.0 and np.array_equal(grad, np.zeros((1, 1)))

    @pytest.mark.parametrize("p, g", [([1.5], [4.0]), ([1.0, 2.5, 3.0], [2.0, 2.0, 2.0])],
                             ids=["one_sample", "all_tied"])
    def test_without_pairs_only_l1_remains(self, p, g):
        """With nothing to rank the total is the weighted L1 term, bit for bit."""
        got = self.value_and_gradient(p, g, LossConfig(alpha=0.7, beta=0.3, variant="pwrl"))
        want = self.value_and_gradient(p, g, LossConfig(alpha=0.7, beta=0.3, variant="l1"))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_gradient_matches_finite_differences(self):
        p = Tensor([[0.3], [1.1], [-0.4], [2.0]], name="p")
        g = [1.0, 3.0, 2.0, 5.0]

        def f():
            return pairwise_ranking_loss(p, g)

        assert ad.gradient_check(f, [p], h=1e-6).max_rel_error <= 1e-6

    @pytest.mark.parametrize("n, tied", [(2, False), (3, True), (8, False), (33, True)])
    def test_selector_matches_the_double_loop(self, n, tied):
        # the pairs and signs built pair by pair, in row-major order, give
        # the same loss and prediction gradient bit for bit, the gradient
        # mapped to the predictions as (d.T @ select).T
        rng = np.random.default_rng(n)
        pv = rng.normal(size=(n, 1)) * 10.0
        gv = rng.uniform(1, 5, n).round() if tied else rng.uniform(1, 5, n)
        rows, signs = [], []
        for a in range(n):
            for b in range(n):
                if a != b and gv[a] != gv[b]:
                    rows.append(np.eye(n)[a] - np.eye(n)[b])
                    signs.append(-np.sign(gv[a] - gv[b]))
        select, signs = np.array(rows), np.array(signs).reshape(-1, 1)
        z = (select @ pv) * signs
        want_loss = (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))).mean()
        d = np.full(z.shape, 1.0 / z.size) * (1.0 / (1.0 + np.exp(-z))) * signs
        p = Tensor(pv)
        with Graph() as g:
            loss = pairwise_ranking_loss(p, gv)
        backward(loss, g)
        assert loss.item() == want_loss
        assert np.array_equal(p.grad, (d.T @ select).T)

    @pytest.mark.parametrize("gap", [0.0, 709.0, 710.0, 1e3, 1e307])
    def test_large_gaps_raise_no_overflow_warning(self, gap):
        # both pairs of two predictions have z = gap when misranked and -gap
        # when ranked: softplus(gap) is exactly gap from 709 on, and
        # softplus(-gap) exactly 0 once exp(-gap) underflows (at 1e308 the
        # mean of the two pairs would overflow)
        losses = []
        for p in (Tensor([[gap], [0.0]]),
                  Tensor([[0.0], [gap]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with Graph() as g:
                    loss = pairwise_ranking_loss(p, [1.0, 2.0])
                backward(loss, g)
            assert np.isfinite(p.grad).all()
            losses.append(loss.item())
        misranked, ranked = losses
        if gap == 0.0:
            assert misranked == ranked == math.log(2.0)
        else:
            assert misranked == gap and 0.0 <= ranked < 1e-307
            assert ranked == 0.0 or gap < 1e3
        p = Tensor([[0.0], [1e3], [-1e3], [2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Graph() as g:
                loss = pairwise_ranking_loss(p, [1.0, 2.0, 3.0, 4.0])
            backward(loss, g)
        assert math.isfinite(loss.item()) and np.isfinite(p.grad).all()


class TestLargeFiniteTerms:
    """A mean whose plain sum overflows although every term is finite is the
    sum of each term divided by the count; no warning, no inf."""

    @pytest.mark.parametrize("loss, p, g, want", [
        (pairwise_ranking_loss, [[1e308], [0.0]], [1.0, 2.0], 1e308),  # two pairs of 1e308
        (l1_loss, [[1e308], [-1e308]], [0.0, 0.0], 1e308),
        (correlation_loss, [[1e308], [1e308]], [1.0, 2.0], 0.0),  # p constant: no misorder
    ], ids=["pwrl", "l1", "correlation"])
    def test_loss_is_finite(self, loss, p, g, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert loss(p, g).item() == want

    def test_an_infinite_term_stays_infinite(self):
        assert l1_loss([[np.inf], [0.0]], [0.0, 0.0]).item() == np.inf


class TestTotalLoss:
    def test_pure_l1(self):
        cfg = LossConfig(alpha=1.0, beta=0.0)
        p, g = [1.0, 4.0], [2.0, 2.0]
        assert total_loss(p, g, cfg).item() == l1_loss(p, g).item()

    def test_pure_correlation(self):
        cfg = LossConfig(alpha=0.0, beta=1.0)
        p, g = [1.0, 4.0, 2.0], [2.0, 2.0, 5.0]
        assert total_loss(p, g, cfg).item() == correlation_loss(p, g).item()

    def test_weighted_anchor_via_hand_evaluation(self):
        # l1 = (|1-2| + |2-1|)/2 = 1; correlation: deviations (-.5,.5) vs
        # (.5,-.5), hinge terms .25 each, times N=2 -> 1; both forms agree
        p, g = [1.0, 2.0], [2.0, 1.0]
        assert correlation_loss_raw(p, g) == 1.0
        assert correlation_loss(p, g).item() == 1.0
        total = total_loss(p, g, LossConfig(alpha=0.7, beta=0.3)).item()
        assert abs(total - (0.7 * 1.0 + 0.3 * 1.0)) <= 1e-12

    def test_pwrl_variant(self):
        cfg = LossConfig(alpha=0.5, beta=0.5, variant="pwrl")
        p, g = [1.0, 2.0, 0.5], [1.0, 3.0, 2.0]
        expected = 0.5 * l1_oracle(p, g) + 0.5 * pwrl_oracle(p, g)
        assert math.isclose(total_loss(p, g, cfg).item(), expected, rel_tol=1e-12)

    def test_l1_only_variant_ignores_beta(self):
        cfg = LossConfig(alpha=1.0, beta=0.5, variant="l1")
        p, g = [1.0, 2.0], [2.0, 1.0]
        assert total_loss(p, g, cfg).item() == l1_loss(p, g).item()

    def test_gradient_of_total(self):
        p = Tensor([[1.3], [0.2], [4.0]], name="p")
        g = [1.0, 2.0, 3.5]
        cfg = LossConfig(alpha=0.7, beta=0.3)

        def f():
            return total_loss(p, g, cfg)

        assert ad.gradient_check(f, [p], h=1e-6).max_rel_error <= 1e-6


class TestLossNode:
    CASES = pytest.mark.parametrize("variant, alpha, beta", [
        ("correlation", 0.7, 0.3), ("correlation", 0.0, 1.0), ("correlation", 1.0, 0.0),
        ("pwrl", 0.5, 0.5), ("pwrl", 0.0, 1.0), ("pwrl", 1.0, 0.0),
        ("l1", 0.7, 0.3), ("l1", 0.0, 1.0)])

    @CASES
    def test_gradient_check(self, variant, alpha, beta):
        p = Tensor([[1.3], [0.2], [4.0], [2.6], [-0.7]], name="p")
        g = [1.0, 2.0, 3.5, 2.0, 0.5]
        cfg = LossConfig(alpha=alpha, beta=beta, variant=variant)
        report = ad.gradient_check(lambda: total_loss(p, g, cfg), [p], h=1e-6)
        assert report.per_parameter[0].flagged_nonsmooth == 0
        assert report.max_rel_error <= 1e-4

    @CASES
    def test_one_node_on_the_predictions(self, variant, alpha, beta):
        p = Tensor(np.arange(4.0))
        with Graph() as g:
            loss = total_loss(p, Tensor([2.0, 1.0, 4.0, 3.0]), LossConfig(alpha, beta, variant))
        (node,) = g.nodes
        assert node.op == "total_loss" and node.inputs == (p,) and node.outputs == (loss,)
        assert loss.size == 1
        backward(loss, g)
        assert p.grad.shape == (4,)

    def test_correlation_vjp_sums_in_the_documented_order(self):
        # the hinge's gradient h, then h + (-sum(h) / N) through the
        # prediction mean, then the L1 gradient added to it
        rng = np.random.default_rng(3)
        pv, gv = rng.normal(size=(16, 1)), rng.uniform(1, 5, (16, 1))
        dev_g = gv - gv.mean()
        active = (pv - pv.mean()) * dev_g * -1.0 > 0
        h = np.full(pv.shape, 0.3 * 16.0) * active * -1.0 * dev_g
        want = h + np.full(pv.shape, -h.sum() / 16) + np.full(pv.shape, 0.7 / 16) * np.sign(pv - gv)
        p = Tensor(pv)
        with Graph() as g:
            loss = total_loss(p, gv, LossConfig(0.7, 0.3))
        backward(loss, g)
        assert active.any() and not active.all()
        assert np.array_equal(p.grad, want)

    @pytest.mark.parametrize("loss", [l1_loss, correlation_loss, pairwise_ranking_loss,
                                      lambda p, g: total_loss(p, g, LossConfig())])
    def test_empty_input_raises(self, loss):
        with pytest.raises(ad.ShapeError, match="N >= 1"):
            loss([], [])

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False,
                              allow_infinity=False), min_size=1, max_size=20))
    def test_l1_mean_matches_numpy(self, xs):
        assert math.isclose(l1_loss(xs, [0.0] * len(xs)).item(), float(np.mean(np.abs(xs))),
                            rel_tol=1e-12, abs_tol=1e-12)


class TestLossConfig:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1, beta=0.5)

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.3), (0.7, math.nan),
                                             (math.inf, 0.3), (0.7, math.inf)])
    def test_non_finite_weight_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            LossConfig(alpha=alpha, beta=beta)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=0.0, beta=0.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            LossConfig(variant="hinge")
