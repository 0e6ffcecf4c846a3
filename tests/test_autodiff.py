"""Tensor op semantics and gradient correctness against independent oracles.

Oracles here are deliberately primitive: scalar triple loops for matmul,
a scalar softmax, and central finite differences for every gradient claim.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcvqe import autodiff as ad
from dcvqe.autodiff import (DegenerateMaskError, Graph, GraphError, ShapeError,
                            Tensor, backward, gradient_check)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def softmax_oracle(row):
    zmax = max(row)
    exps = [math.exp(v - zmax) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


# admits every row somewhere; column 3 is masked in every row
HEAD_MASK = np.array([[True, False, True, False],
                      [True, True, False, False],
                      [True, False, True, False]])


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, -1.0], [2.5, 7.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_dot_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_against_scalar_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = ad.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, matmul_oracle(a, b), rtol=1e-13)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_flow_to_both_inputs(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.matmul(a, b))
        backward(loss, g)
        np.testing.assert_allclose(
            a.grad, fd_grad(lambda x: (x @ b.data).sum(), a.data.copy()), atol=1e-8)
        np.testing.assert_allclose(
            b.grad, fd_grad(lambda x: (a.data @ x).sum(), b.data.copy()), atol=1e-8)


class TestSoftmaxMasked:
    def test_uniform_over_admitted(self):
        logits = Tensor(np.full((2, 6), 3.7))
        mask = np.zeros((2, 6), dtype=bool)
        mask[:, :4] = True
        out = ad.softmax_masked(logits, mask).data
        np.testing.assert_allclose(out[:, :4], 0.25, atol=1e-15)
        assert (out[:, 4:] == 0.0).all()

    def test_single_admitted_is_one(self):
        logits = Tensor(np.random.default_rng(2).normal(size=(3, 3)))
        mask = np.eye(3, dtype=bool)
        out = ad.softmax_masked(logits, mask).data
        assert np.array_equal(out, np.eye(3))

    def test_full_row_matches_scalar_oracle(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = ad.softmax_masked(logits, np.ones((1, 3), dtype=bool)).data
        np.testing.assert_allclose(out[0], softmax_oracle([1.0, 2.0, 3.0]), rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(8, 8)) * 5)
        mask = rng.random((8, 8)) < 0.5
        mask[:, 0] = True
        out = ad.softmax_masked(logits, mask).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out[~mask] == 0.0).all()

    def test_fully_masked_row_raises(self):
        mask = np.ones((2, 2), dtype=bool)
        mask[1, :] = False
        with pytest.raises(DegenerateMaskError, match="row 1"):
            ad.softmax_masked(Tensor(np.zeros((2, 2))), mask)

    def test_mask_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
        with Graph() as g:
            y = ad.softmax_masked(x, HEAD_MASK)
            loss = ad.sum_all(ad.mul(y, y))
        backward(loss, g)
        for c in range(2):
            for h in range(3):
                want = ad.softmax_masked(Tensor(x.data[c, h]), HEAD_MASK).data
                assert np.array_equal(y.data[c, h], want)
        assert (y.data[..., ~HEAD_MASK] == 0.0).all()
        assert (x.grad[..., ~HEAD_MASK] == 0.0).all()
        with pytest.raises(ShapeError):
            ad.softmax_masked(x, np.ones((4, 3), dtype=bool))

    def test_gradient_zero_at_masked_entries(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        mask = rng.random((4, 4)) < 0.6
        mask[:, 0] = True
        with Graph() as g:
            y = ad.softmax_masked(x, mask)
            loss = ad.sum_all(ad.mul(y, y))
        backward(loss, g)
        assert (x.grad[~mask] == 0.0).all()

        def f(z):
            zm = np.where(mask, z, -np.inf)
            zm = zm - zm.max(axis=1, keepdims=True)
            e = np.exp(zm)
            p = e / e.sum(axis=1, keepdims=True)
            return (p * p).sum()

        np.testing.assert_allclose(x.grad, fd_grad(f, x.data.copy()), atol=1e-8)


class TestElementwise:
    def test_max0_negative_branch(self):
        assert ad.max0(Tensor([-3.5])).data[0] == 0.0

    def test_mean_axis_all(self):
        assert ad.mean_axis(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_scalar_broadcast(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        s = Tensor(10.0)
        np.testing.assert_array_equal(ad.add(x, s).data, x.data + 10)
        np.testing.assert_array_equal(ad.mul(s, x).data, 10 * x.data)

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            ad.mul(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_abs_and_sum(self):
        x = Tensor([-1.0, 2.0, -3.0])
        assert list(ad.absolute(x).data) == [1.0, 2.0, 3.0]
        assert ad.sum_all(x).item() == -2.0

    def test_structural_ops_roundtrip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        t = Tensor(x)
        np.testing.assert_array_equal(ad.transpose(t, (1, 0)).data, x.T)
        np.testing.assert_array_equal(ad.slice_rows(t, 1, 3).data, x[1:3])
        np.testing.assert_array_equal(
            ad.concat_rows([ad.slice_rows(t, 0, 2), ad.slice_rows(t, 2, 4)]).data, x)
        # column blocks split off as a leading axis, as attention splits heads
        blocks = ad.transpose(ad.reshape(t, (4, 2, 3)), (1, 0, 2))
        np.testing.assert_array_equal(blocks.data[0], x[:, 0:3])
        np.testing.assert_array_equal(blocks.data[1], x[:, 3:6])
        np.testing.assert_array_equal(
            ad.reshape(ad.transpose(blocks, (1, 0, 2)), (4, 6)).data, x)
        row = Tensor(x[:1])
        np.testing.assert_array_equal(ad.take(row, np.zeros(3, dtype=int)).data,
                                      np.repeat(x[:1], 3, axis=0))
        index = np.array([[3, 0, 3], [1, 2, 1]])
        np.testing.assert_array_equal(ad.take(t, index).data, x[index])

    def test_structural_ops_reject_bad_operands(self):
        t = Tensor(np.zeros((4, 6)))
        with pytest.raises(ShapeError):
            ad.transpose(t, (0, 0))
        with pytest.raises(ShapeError):
            ad.take(t, np.array([0, 4]))
        with pytest.raises(ShapeError):
            ad.take(t, np.array([0.0]))


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = Tensor(np.random.default_rng(7).normal(size=(3, 5)), requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(x)
        backward(loss, g)
        assert np.array_equal(x.grad, np.ones((3, 5)))

    def test_grad_of_square_sum(self):
        x = Tensor(np.random.default_rng(8).normal(size=(4,)), requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.mul(x, x))
        backward(loss, g)
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-15)

    def test_composite_matches_finite_differences(self):
        # two-layer expression: mean(max0(x @ w1) @ w2) with shared ops
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        w1 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(6, 1)), requires_grad=True)

        def run():
            h = ad.max0(ad.matmul(Tensor(x), w1))
            return ad.mean_axis(ad.matmul(h, w2))

        ad.zero_grads([w1, w2])
        with Graph() as g:
            loss = run()
        backward(loss, g)

        def f1(w):
            return np.maximum(x @ w, 0) @ w2.data.reshape(-1, 1) / (5 * 1) @ np.ones(1)

        num1 = fd_grad(lambda w: float((np.maximum(x @ w, 0) @ w2.data).mean()),
                       w1.data.copy())
        num2 = fd_grad(lambda w: float((np.maximum(x @ w1.data, 0) @ w).mean()),
                       w2.data.copy())
        for a, n in ((w1.grad, num1), (w2.grad, num2)):
            rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                                     np.full_like(a, 1e-8)])
            assert rel.max() <= 1e-6

    def test_backward_twice_doubles_gradients(self):
        x = Tensor(np.random.default_rng(10).normal(size=(3, 3)), requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.mul(x, x))
        backward(loss, g)
        once = x.grad.copy()
        backward(loss, g)
        assert np.array_equal(x.grad, 2 * once)

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Graph() as g:
            y = ad.mul(x, x)
        with pytest.raises(GraphError):
            backward(y, g)

    def test_empty_graph_is_noop(self):
        g = Graph()
        loss = Tensor(1.0, requires_grad=True)
        backward(loss, g)  # no nodes: nothing to do, no error

    def test_no_recording_without_active_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        g = Graph()
        with g:
            ad.sum_all(x)
        n_inside = len(g)
        ad.sum_all(x)
        assert n_inside == 1 and len(g) == 1

    def test_constant_inputs_get_no_grad(self):
        const = Tensor(np.ones(3))
        x = Tensor(np.ones(3), requires_grad=True)
        with Graph() as g:
            loss = ad.sum_all(ad.mul(x, const))
        backward(loss, g)
        assert const.grad is None
        assert x.grad is not None


class TestGradientCheck:
    def test_quadratic(self):
        theta = Tensor([3.0], requires_grad=True, name="theta")

        def f():
            return ad.sum_all(ad.mul(theta, theta))

        report = gradient_check(f, [theta], h=1e-5)
        assert report.per_parameter[0].max_rel_error < 1e-8

    def test_kink_flagged_and_excluded(self):
        theta = Tensor([0.0], requires_grad=True, name="theta")

        def f():
            return ad.sum_all(ad.absolute(theta))

        report = gradient_check(f, [theta], h=1e-5)
        assert report.per_parameter[0].flagged_nonsmooth == 1
        assert report.per_parameter[0].max_rel_error == 0.0

    def test_nonfinite_objective_raises(self):
        theta = Tensor([1e308], requires_grad=True)

        def f():
            with np.errstate(over="ignore"):
                return ad.sum_all(ad.mul(theta, theta))

        with pytest.raises(FloatingPointError):
            gradient_check(f, [theta])

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            gradient_check(lambda: Tensor(0.0), [], h=0.0)

    @pytest.mark.parametrize("op, shapes", [
        (ad.matmul, [(4, 5), (3, 5, 2)]),
        (ad.matmul, [(3, 4, 5), (5, 2)]),
        (ad.matmul, [(2, 1, 4, 5), (3, 5, 2)]),
        (lambda x: ad.transpose(x, (2, 0, 1)), [(2, 3, 4)]),
        (lambda x: ad.softmax_masked(x, HEAD_MASK), [(2, 2, 3, 4)]),
        (lambda x: ad.take(x, np.array([[2, 0, 2], [1, 2, 2]])), [(3, 4)]),
    ], ids=["matmul_broadcast_left", "matmul_broadcast_right", "matmul_broadcast_unit_axis",
            "transpose_permutation", "softmax_mask_over_heads", "take_repeated_rows"])
    def test_batched_ops(self, op, shapes):
        rng = np.random.default_rng(12)
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        weights = Tensor(rng.normal(size=op(*params).shape))

        def f():
            return ad.sum_all(ad.mul(op(*params), weights))

        assert gradient_check(f, params, h=1e-6).max_rel_error <= 1e-4


class TestThreadConfinement:
    def test_distinct_graphs_on_distinct_threads(self):
        import concurrent.futures

        def worker(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            with Graph() as g:
                loss = ad.sum_all(ad.mul(x, x))
            backward(loss, g)
            return np.array_equal(x.grad, 2 * x.data)

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(worker, range(16)))


class TestDeterminism:
    def test_ops_bit_identical(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        mask = rng.random((6, 6)) < 0.7
        mask[:, 0] = True

        def run():
            t = Tensor(a, requires_grad=True)
            with Graph() as g:
                batch = ad.take(t, np.array([[0, 1, 2, 3, 4, 5], [5, 3, 1, 0, 2, 4]]))
                scores = ad.matmul(batch, ad.transpose(batch, (0, 2, 1)))
                y = ad.softmax_masked(scores, mask)
                loss = ad.sum_all(ad.mul(y, y))
            backward(loss, g)
            return y.data.copy(), t.grad

        (y1, g1), (y2, g2) = run(), run()
        assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


finite_vectors = st.lists(st.floats(min_value=-100, max_value=100,
                                    allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=20)


@given(finite_vectors)
def test_mean_matches_numpy(xs):
    assert math.isclose(ad.mean_axis(Tensor(xs)).item(), float(np.mean(xs)),
                        rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_backward_scaling_property(rows, cols, seed):
    """backward accumulates linearly: k passes give exactly k times one pass."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    with Graph() as g:
        loss = ad.mean_axis(ad.max0(ad.mul(x, x)))
    backward(loss, g)
    once = x.grad.copy()
    backward(loss, g)
    backward(loss, g)
    assert np.array_equal(x.grad, 3 * once)
