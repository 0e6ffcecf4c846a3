"""Loss values against hand computations and scalar-loop oracles, plus the
equivalence between the double-sum and mean-deviation correlation forms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcvqe import autodiff as ad
from dcvqe.autodiff import Graph, Tensor, backward
from dcvqe.losses import LossConfig, total_loss
from oracles import correlation_loss_raw

# each term alone at weight 1
L1 = LossConfig(alpha=1.0, beta=0.0, variant="l1")
CORRELATION = LossConfig(alpha=0.0, beta=1.0)
PWRL = LossConfig(alpha=0.0, beta=1.0, variant="pwrl")


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
        assert total_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], L1).item() == 0.0

    def test_hand_sum(self):
        assert total_loss([1.0, 2.0], [2.0, 4.0], L1).item() == 1.5

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-5, 5, 50).tolist()
        g = rng.uniform(-5, 5, 50).tolist()
        assert math.isclose(total_loss(p, g, L1).item(), l1_oracle(p, g), rel_tol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ad.ShapeError):
            total_loss([1.0], [1.0, 2.0], L1)
        with pytest.raises(ad.ShapeError, match="got 3 and 2"):
            total_loss([Tensor([[1.0]]), Tensor([2.0, 3.0])], [1.0, 2.0], L1)

    @pytest.mark.parametrize("p, g", [
        (np.zeros((2, 2)), [1.0, 2.0]),
        ([Tensor([[1.0]]), Tensor([[2.0, 3.0]])], [1.0, 2.0, 3.0]),
        ([1.0, [[2.0, 3.0]]], [1.0, 2.0, 3.0]),
        ([1.0, 2.0], np.zeros((2, 2))),
    ], ids=["one_array", "tensor_item", "array_item", "ground_truths"])
    def test_two_columns_raise(self, p, g):
        with pytest.raises(ad.ShapeError, match=r"must be vectors, got shape \(\d, 2\)"):
            total_loss(p, g, L1)


class TestCorrelationLoss:
    def test_reversed_order_anchor(self):
        # deviations (-1,0,1) vs (1,0,-1): hinge terms 1,0,1; times N=3 -> 6
        assert total_loss([1, 2, 3], [3, 2, 1], CORRELATION).item() == 6.0
        assert correlation_loss_raw([1, 2, 3], [3, 2, 1]) == 6.0

    def test_single_sample_is_zero(self):
        assert total_loss([4.2], [1.0], CORRELATION).item() == 0.0
        assert correlation_loss_raw([4.2], [1.0]) == 0.0

    def test_equal_vectors_zero(self):
        g = [1.0, 3.0, 2.0, 5.0]
        assert total_loss(g, g, CORRELATION).item() == 0.0

    def test_positive_affine_annihilation_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = rng.uniform(-10, 10, int(rng.integers(2, 12)))
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(-10, 10))
            assert total_loss(a * g + b, g, CORRELATION).item() == 0.0

    def test_anti_affine_worst_case(self):
        g = np.array([1.0, 2.0, 4.0, 7.0])
        n = len(g)
        expected = n * ((g - g.mean()) ** 2).sum()
        assert math.isclose(total_loss(-g, g, CORRELATION).item(), expected, rel_tol=1e-12)

    @given(batches)
    def test_equivalence_of_both_forms(self, pg):
        p, g = pg
        raw = correlation_loss_raw(p, g)
        simplified = total_loss(p, g, CORRELATION).item()
        assert abs(raw - simplified) <= 1e-9 * max(1.0, abs(raw), abs(simplified))

    @given(batches, st.floats(min_value=0.01, max_value=50, allow_nan=False))
    def test_quadratic_scaling(self, pg, c):
        p, g = pg
        base = total_loss(p, g, CORRELATION).item()
        scaled = total_loss(c * np.asarray(p), c * np.asarray(g), CORRELATION).item()
        assert math.isclose(scaled, c * c * base, rel_tol=1e-9, abs_tol=1e-9)

    @given(batches)
    def test_nonnegative(self, pg):
        p, g = pg
        assert total_loss(p, g, CORRELATION).item() >= 0.0
        assert correlation_loss_raw(p, g) >= 0.0
        assert total_loss(p, g, L1).item() >= 0.0

    def test_gradient_flows_through_mean(self):
        p = Tensor([[1.0], [2.0], [4.0]], name="p")
        g = [3.0, 2.0, 1.0]

        def f():
            return total_loss(p, g, CORRELATION)

        report = ad.gradient_check(f, [p], h=1e-6)
        assert report.max_rel_error <= 1e-6


class TestPairwiseRanking:
    def test_large_margin_near_zero(self):
        p = [0.0, 100.0, 200.0]
        g = [1.0, 2.0, 3.0]
        assert total_loss(p, g, PWRL).item() < 1e-10

    def test_tied_prediction_pair_gives_log2(self):
        loss = total_loss([1.0, 1.0], [1.0, 2.0], PWRL).item()
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(-3, 3, 10).tolist()
        g = rng.uniform(1, 5, 10).tolist()
        assert math.isclose(total_loss(p, g, PWRL).item(), pwrl_oracle(p, g),
                            rel_tol=1e-10)

    def test_tied_pairs_skipped(self):
        p = [1.0, 2.0, 3.0]
        g = [1.0, 1.0, 2.0]  # pair (0,1) tied, skipped
        expected = pwrl_oracle(p, g)
        assert math.isclose(total_loss(p, g, PWRL).item(), expected, rel_tol=1e-12)

    @staticmethod
    def value_and_gradient(p, g, cfg):
        pt = Tensor(np.array(p).reshape(-1, 1))
        with Graph() as graph:
            loss = total_loss(pt, g, cfg)
        return loss.item(), backward(loss, graph, [pt])[0]

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
            return total_loss(p, g, PWRL)

        assert ad.gradient_check(f, [p], h=1e-6).max_rel_error <= 1e-6

    @pytest.mark.parametrize("n, tied", [(2, False), (3, True), (5, False), (8, False),
                                         (16, True), (33, True), (50, False)])
    def test_selector_matches_the_double_loop(self, n, tied):
        # the pairs and signs built pair by pair, in row-major order, give
        # the same loss and prediction gradient bit for bit: the forward's
        # indexed differences equal select @ p, and the gradient d of pair
        # (a, b) is summed into a's running sum and into b's, pair by pair
        # in row-major order, and the second sum is taken from the first
        rng = np.random.default_rng(n)
        pv = rng.normal(size=(n, 1)) * 10.0
        gv = rng.uniform(1, 5, n).round() if tied else rng.uniform(1, 5, n)
        pairs, rows, signs = [], [], []
        for a in range(n):
            for b in range(n):
                if a != b and gv[a] != gv[b]:
                    pairs.append((a, b))
                    rows.append(np.eye(n)[a] - np.eye(n)[b])
                    signs.append(-np.sign(gv[a] - gv[b]))
        select, signs = np.array(rows), np.array(signs).reshape(-1, 1)
        z = (select @ pv) * signs
        want_loss = (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))).mean()
        d = np.full(z.shape, 1.0 / z.size) * (1.0 / (1.0 + np.exp(-z))) * signs
        as_first, as_second = np.zeros(n), np.zeros(n)
        for (a, b), d_ab in zip(pairs, d.ravel()):
            as_first[a] += d_ab
            as_second[b] += d_ab
        p = Tensor(pv)
        with Graph() as g:
            loss = total_loss(p, gv, PWRL)
        (dp,) = backward(loss, g, [p])
        assert loss.item() == want_loss
        assert np.array_equal(dp, (as_first - as_second).reshape(-1, 1))

    def test_no_pair_selector_without_a_graph(self):
        # the [P, N] selector of 300 videos would take 215 MB
        rng = np.random.default_rng(9)
        p, g = rng.normal(size=300), rng.uniform(1, 5, 300)
        tracemalloc.start()
        try:
            total_loss(p, g, PWRL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_backward_builds_no_pair_selector(self):
        # 300 videos' scores as the loss node's inputs: the [P, N] selector
        # of the gradient would take 215 MB
        rng = np.random.default_rng(9)
        p = [Tensor(np.array([[x]])) for x in rng.normal(size=300)]
        g = rng.uniform(1, 5, 300)
        tracemalloc.start()
        try:
            with Graph() as graph:
                loss = total_loss(p, g, PWRL)
            grads = backward(loss, graph, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads) == 300 and all(grad.shape == (1, 1) for grad in grads)
        assert peak < 16 * 2 ** 20

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
                    loss = total_loss(p, [1.0, 2.0], PWRL)
                (dp,) = backward(loss, g, [p])
            assert np.isfinite(dp).all()
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
                loss = total_loss(p, [1.0, 2.0, 3.0, 4.0], PWRL)
            (dp,) = backward(loss, g, [p])
        assert math.isfinite(loss.item()) and np.isfinite(dp).all()


class TestLargeFiniteTerms:
    """A mean whose plain sum overflows although every term is finite is the
    sum of each term divided by the count; no warning, no inf."""

    @pytest.mark.parametrize("cfg, p, g, want", [
        (PWRL, [[1e308], [0.0]], [1.0, 2.0], 1e308),  # two pairs of 1e308
        (L1, [[1e308], [-1e308]], [0.0, 0.0], 1e308),
        (CORRELATION, [[1e308], [1e308]], [1.0, 2.0], 0.0),  # p constant: no misorder
    ], ids=["pwrl", "l1", "correlation"])
    def test_loss_is_finite(self, cfg, p, g, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert total_loss(p, g, cfg).item() == want

    def test_an_infinite_term_stays_infinite(self):
        assert total_loss([[np.inf], [0.0]], [0.0, 0.0], L1).item() == np.inf


class TestTotalLoss:
    def test_pure_l1(self):
        cfg = LossConfig(alpha=1.0, beta=0.0)
        p, g = [1.0, 4.0], [2.0, 2.0]
        assert total_loss(p, g, cfg).item() == total_loss(p, g, L1).item()

    def test_pure_correlation(self):
        cfg = LossConfig(alpha=0.0, beta=1.0)
        p, g = [1.0, 4.0, 2.0], [2.0, 2.0, 5.0]
        assert total_loss(p, g, cfg).item() == total_loss(p, g, CORRELATION).item()

    def test_weighted_anchor_via_hand_evaluation(self):
        # l1 = (|1-2| + |2-1|)/2 = 1; correlation: deviations (-.5,.5) vs
        # (.5,-.5), hinge terms .25 each, times N=2 -> 1; both forms agree
        p, g = [1.0, 2.0], [2.0, 1.0]
        assert correlation_loss_raw(p, g) == 1.0
        assert total_loss(p, g, CORRELATION).item() == 1.0
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
        assert total_loss(p, g, cfg).item() == total_loss(p, g, L1).item()

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
        assert backward(loss, g, [p])[0].shape == (4,)

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
        (dp,) = backward(loss, g, [p])
        assert active.any() and not active.all()
        assert np.array_equal(dp, want)

    @CASES
    def test_gradient_check_over_several_inputs(self, variant, alpha, beta):
        parts = [Tensor([[1.3]], name="a"), Tensor([0.2, 4.0], name="b"),
                 Tensor([[2.6], [-0.7], [0.9]], name="c")]
        g = [1.0, 2.0, 3.5, 2.0, 0.5, 3.0]
        cfg = LossConfig(alpha=alpha, beta=beta, variant=variant)
        report = ad.gradient_check(lambda: total_loss(parts, g, cfg), parts, h=1e-6)
        assert all(p.flagged_nonsmooth == 0 for p in report.per_parameter)
        assert report.max_rel_error <= 1e-4

    @CASES
    def test_several_inputs_match_one_vector(self, variant, alpha, beta):
        # the same value bit for bit, and each input's rows of the gradient;
        # an array item is a constant, not an input
        rng = np.random.default_rng(5)
        pv, gv = rng.normal(size=(7, 1)), rng.uniform(1, 5, 7)
        cfg = LossConfig(alpha, beta, variant)
        whole = Tensor(pv)
        with Graph() as g:
            want = total_loss(whole, gv, cfg)
        (dw,) = backward(want, g, [whole])
        parts = [Tensor(pv[:1]), Tensor(pv[1:3, 0]), pv[3], Tensor(pv[4:])]
        with Graph() as g:
            got = total_loss(parts, gv, cfg)
        (node,) = g.nodes
        assert node.inputs == (parts[0], parts[1], parts[3])
        assert got.data.tobytes() == want.data.tobytes()
        grads = backward(got, g, node.inputs)
        for grad, rows in zip(grads, (dw[:1], dw[1:3, 0], dw[4:])):
            assert grad.shape == rows.shape and np.array_equal(grad, rows)

    def test_a_tensor_passed_twice_gets_both_its_slices(self):
        t, u = Tensor([[0.5], [1.5]]), Tensor([[-1.0]])
        gv = [1.0, 4.0, 2.0, 3.0, 5.0]
        cfg = LossConfig(0.7, 0.3)
        whole = Tensor(np.concatenate([t.data, u.data, t.data]))
        with Graph() as g:
            want = total_loss(whole, gv, cfg)
        (dw,) = backward(want, g, [whole])
        with Graph() as g:
            got = total_loss([t, u, t], gv, cfg)
        dt, du = backward(got, g, [t, u])
        assert got.item() == want.item()
        assert np.array_equal(dt, dw[0:2] + dw[3:5]) and np.array_equal(du, dw[2:3])

    @pytest.mark.parametrize("cfg", [L1, CORRELATION, PWRL, LossConfig()])
    def test_empty_input_raises(self, cfg):
        # an empty list or tuple, an empty vector and a list of one empty item
        for p in ([], (), np.zeros((0, 1)), [Tensor(np.zeros(0))]):
            with pytest.raises(ad.ShapeError, match="N >= 1"):
                total_loss(p, [], cfg)

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False,
                              allow_infinity=False), min_size=1, max_size=20))
    def test_l1_mean_matches_numpy(self, xs):
        assert math.isclose(total_loss(xs, [0.0] * len(xs), L1).item(),
                            float(np.mean(np.abs(xs))), rel_tol=1e-12, abs_tol=1e-12)


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
