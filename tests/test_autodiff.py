"""Tensor op semantics and gradient correctness against independent oracles.

Oracles here are deliberately primitive: scalar triple loops for the
matrix product, a scalar softmax, and central finite differences for every
gradient claim.
"""

import ast
import concurrent.futures
import math
import multiprocessing
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcvqe import autodiff as ad
from dcvqe.autodiff import Graph, ShapeError, Tensor, backward, gradient_check
from dcvqe.losses import LossConfig, total_loss
from dcvqe.model import DCVQEConfig, DCVQEModel
from dcvqe.training import TINY_CONFIG
from oracles import clip_maps, weighted_sum


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


def unshifted_softmax_oracle(z: np.ndarray, admissible) -> np.ndarray:
    """Scalar masked softmax without the row max, for logits whose exp is
    finite: each weight is exp(z) over the exactly rounded sum of its row's
    admitted exps. Subtracting the row max first would round z - max, which
    moves a weight by up to |z - max| * 2**-53 relative."""
    mask = np.broadcast_to(True if admissible is None else admissible, z.shape)
    out = np.zeros_like(z)
    for idx in np.ndindex(z.shape[:-1]):
        exps = [math.exp(v) if ok else 0.0 for v, ok in zip(z[idx], mask[idx])]
        total = math.fsum(exps)
        out[idx] = [e / total for e in exps]
    return out


# admits every row somewhere; column 3 is masked in every row
HEAD_MASK = np.array([[True, False, True, False],
                      [True, True, False, False],
                      [True, False, True, False]])


def old_softmax(z: np.ndarray, admissible) -> np.ndarray:
    """Plain numpy reference for the masked softmax: masked logits set to
    -inf, then shift by the row max and exponentiate every entry."""
    z = z.copy()
    if admissible is not None:
        np.copyto(z, -np.inf, where=~np.asarray(admissible, dtype=bool))
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


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


@pytest.fixture
def fallback(monkeypatch):
    """Every masked softmax takes the shifted fallback instead of the fast path."""
    monkeypatch.setattr(ad, "_EXP_SAFE", 0.0)


def attention_rows(x, ws, heads, mask):
    """Unpooled multi-head attention of x [..., n, D] with the shifted
    softmax: the output rows [..., n, D] and the weights [..., H, n, n]."""
    *lead, n, dim = x.shape
    d = dim // heads

    def split(w):  # [..., n, D] @ [D, D] -> [..., H, n, d]
        return (x @ w).reshape(*lead, n, heads, d).swapaxes(-2, -3)

    wq, wk, wv = ws
    attn = old_softmax(split(wq) @ split(wk).swapaxes(-1, -2) / math.sqrt(d), mask)
    return (attn @ split(wv)).swapaxes(-2, -3).reshape(x.shape), attn


def attention_vjp_reference(x, ws, heads, mask, g):
    """Gradients of sum(g * attention_rows(x)) for x [B, n, D] and projections
    ``ws``, per sequence and head, with the softmax Jacobian of each row
    written out as diag(p) - p p^T."""
    batch, n, dim = x.shape
    d = dim // heads
    c = 1.0 / math.sqrt(d)
    dx = np.zeros_like(x)
    dws = [np.zeros((dim, dim)) for _ in ws]
    for b in range(batch):
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            q, k, v = (x[b] @ w[:, cols] for w in ws)
            p = old_softmax(q @ k.T * c, mask)
            gh = g[b][:, cols]
            dp = gh @ v.T
            ds = np.stack([(np.diag(p[i]) - np.outer(p[i], p[i])) @ dp[i] for i in range(n)])
            for dw, w, dproj in zip(dws, ws, (ds @ k * c, ds.T @ q * c, p.T @ gh)):
                dw[:, cols] += x[b].T @ dproj
                dx[b] += dproj @ w[:, cols].T
    return dx, dws


def assert_close_to_reference(got, want, rel=1e-12):
    """Within ``rel`` of the largest entry of the reference."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def product(a, b: Tensor) -> Tensor:
    """``a @ b`` as the tape forms it: ``linear`` with a zero bias row."""
    return ad.linear(a, b, Tensor(np.zeros((1, b.shape[-1]))))


class TestMatmul:
    """The matrix product inside ``linear``, the tape's one GEMM op."""

    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, -1.0], [2.5, 7.0]])
        assert np.array_equal(product(a, b).data, b.data)

    def test_dot_product(self):
        out = product(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_against_scalar_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = product(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, matmul_oracle(a, b), rtol=1e-13)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            product(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_flow_to_both_inputs(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        with Graph() as g:
            loss = weighted_sum((product(a, b), 1.0))
        da, db = backward(loss, g, [a, b])
        np.testing.assert_allclose(
            da, fd_grad(lambda x: (x @ b.data).sum(), a.data.copy()), atol=1e-8)
        np.testing.assert_allclose(
            db, fd_grad(lambda x: (a.data @ x).sum(), b.data.copy()), atol=1e-8)

    @pytest.mark.parametrize("din,dout", [(64, 32), (4096, 128)])
    @pytest.mark.parametrize("n", [1, 60, 300, 600])
    def test_right_operand_gradient_is_bit_identical_to_a_t_g(self, n, din, dout):
        # the weight gradient is formed as (g.T @ a).T; pinned to the textbook
        # a.T @ g bit for bit
        rng = np.random.default_rng(n + din)
        a = Tensor(rng.normal(size=(n, din)))
        b = Tensor(rng.normal(scale=0.02, size=(din, dout)))
        g = rng.normal(size=(n, dout))
        with Graph() as graph:
            product(a, b)
        (node,) = graph.nodes
        ga, gb, gbias = node.backward_fn(g)
        assert np.array_equal(gb, a.data.T @ g)
        assert np.array_equal(ga, g @ b.data.T) and np.array_equal(gbias, g.sum(axis=0)[None])


class TestLinear:
    @pytest.mark.parametrize("kind", ["float32", "float64", "tensor"])
    def test_gradient_check(self, kind):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(5, 4))
        x = {"float32": rows.astype(np.float32), "float64": rows,
             "tensor": Tensor(rows, name="x")}[kind]
        w = Tensor(rng.normal(size=(4, 3)), name="w")
        b = Tensor(rng.normal(size=(1, 3)), name="b")
        c = rng.normal(size=(5, 3))
        params = [w, b, x] if kind == "tensor" else [w, b]
        report = gradient_check(lambda: weighted_sum((ad.linear(x, w, b), c)), params)
        assert len(report.per_parameter) == len(params)
        assert report.passes(1e-4)

    @pytest.mark.parametrize("tensor_x", [False, True], ids=["float32_rows", "tensor"])
    @pytest.mark.parametrize("din,dout", [(64, 32), (2504, 128), (4096, 128)])
    @pytest.mark.parametrize("n", [1, 60, 300, 600])
    def test_bit_identical_to_matmul_plus_add(self, n, din, dout, tensor_x):
        # the numpy reference: float32 rows widened to float64, the product,
        # then the bias row added to every row; the textbook gradients. 2504
        # input columns end the weight gradient in a partial column block
        rng = np.random.default_rng(n + din)
        rows = rng.standard_normal((n, din), dtype=np.float32)
        w = Tensor(rng.normal(scale=0.02, size=(din, dout)))
        b = Tensor(rng.normal(size=(1, dout)))
        g = rng.normal(size=(n, dout))
        wide = rows.astype(np.float64)
        with Graph() as graph:
            out = ad.linear(Tensor(rows) if tensor_x else rows, w, b)
        (node,) = graph.nodes
        *gx, gw, gb = node.backward_fn(g)
        assert np.array_equal(out.data, wide @ w.data + b.data)
        assert np.array_equal(gw, wide.T @ g)
        assert np.array_equal(gb, g.sum(axis=0, keepdims=True))
        if tensor_x:
            assert np.array_equal(gx[0], g @ w.data.T)
        else:
            assert gx == []

    def test_array_operand_gets_no_tape_input(self):
        rows = np.ones((3, 4), dtype=np.float32)
        w = Tensor(np.ones((4, 2)))
        b = Tensor(np.zeros((1, 2)))
        with Graph() as graph:
            out = ad.linear(rows, w, b)
        (node,) = graph.nodes
        assert node.op == "linear" and node.inputs == (w, b)
        assert out.data.dtype == np.float64 and np.array_equal(out.data, np.full((3, 2), 4.0))

    def test_backward_widens_one_column_block_at_a_time(self):
        # a float64 copy of all [600, 4096] rows is 19.7 MB; the weight
        # gradient's buffer (4.2 MB) and one widened [600, 1024] block (4.9 MB)
        # fit in 12
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((600, 4096), dtype=np.float32)
        w = Tensor(rng.normal(scale=0.02, size=(4096, 128)))
        b = Tensor(np.zeros((1, 128)))
        c = rng.normal(size=(600, 128))
        with Graph() as graph:
            loss = weighted_sum((ad.linear(rows, w, b), c))
        tracemalloc.start()
        try:
            (dw,) = backward(loss, graph, [w])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6
        assert np.array_equal(dw, rows.astype(np.float64).T @ c)

    @pytest.mark.parametrize("shapes", [[(3, 5), (4, 2), (1, 2)], [(3, 4), (4, 2), (3, 2)],
                                        [(3, 4), (4, 2), (2,)], [(4,), (4, 2), (1, 2)]])
    def test_rejects_bad_operands(self, shapes):
        x, w, b = (np.zeros(s) for s in shapes)
        with pytest.raises(ShapeError, match="linear needs"):
            ad.linear(x, Tensor(w), Tensor(b))


def linear_outputs(rows, w, b, g):
    """The output of ``linear`` and every gradient that its node returns."""
    with Graph() as graph:
        out = ad.linear(rows, w, b)
    (node,) = graph.nodes
    return [out.data, *node.backward_fn(g)]


def paper_projection(n, seed=0):
    """Float32 rows [n, 4096] and the input projection to 128 wide."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, 4096), dtype=np.float32),
            Tensor(rng.normal(scale=0.02, size=(4096, 128))), Tensor(rng.normal(size=(1, 128))))


def split_in_child(rows, w, b, want, second_core):
    # runs in a forked child, after its parent has used the helper thread
    got = ad.linear(rows, w, b).data
    sys.exit(0 if np.array_equal(got, want) and second_core.splits == 2 else 1)


class TestLinearOnTwoThreads:
    """``linear`` on two threads: the forward's halves of the rows and the
    weight gradient's halves of each column block give the bits of one
    thread."""

    @pytest.mark.parametrize("width, n_out", [(64, 32), (1025, 128), (1700, 128), (2500, 128),
                                              (4096, 128)])
    def test_bit_identical_to_one_thread(self, width, n_out, second_core, monkeypatch):
        # a split at any size, so that 16..31 rows (halves of 8..15) stay whole;
        # at 1700 the last column block, 676 wide, would change bits if halved
        monkeypatch.setattr(ad, "SPLIT_MACS", 0)
        rng = np.random.default_rng(width)
        w = Tensor(rng.normal(scale=0.02, size=(width, n_out)))
        b = Tensor(rng.normal(size=(1, n_out)))
        for n in [*range(16, 200, 23), 31, 32, 33, 200]:
            for tensor_x in (False, True):
                rows = rng.standard_normal((n, width), dtype=np.float32)
                x = Tensor(rows) if tensor_x else rows
                g = rng.normal(size=(n, n_out))
                second_core.force(False)
                want = linear_outputs(x, w, b, g)
                second_core.force(True)
                second_core.splits = 0
                got = linear_outputs(x, w, b, g)
                # the forward splits from 32 rows, and the weight gradient too
                # when there is a full column block to halve
                assert second_core.splits == (n >= 32) * (1 + (width >= ad.WGRAD_COLS)), n
                assert len(got) == len(want) == 3 + tensor_x
                assert all(np.array_equal(a, c) for a, c in zip(got, want)), (n, tensor_x)

    @pytest.mark.parametrize("n, din, dout, two_cores, splits", [
        (32, 4096, 128, True, 2),    # 2**24 multiply-adds: the smallest split product
        (31, 4096, 128, True, 0),    # just below it
        (600, 64, 32, True, 0),      # the 64-d projection: 1.2 M
        (600, 4096, 128, False, 0),  # no free second core
    ])
    def test_splits_only_large_products_on_a_free_second_core(self, n, din, dout, two_cores,
                                                               splits, second_core):
        rng = np.random.default_rng(n)
        second_core.force(two_cores)
        rows = rng.standard_normal((n, din), dtype=np.float32)
        linear_outputs(rows, Tensor(rng.normal(size=(din, dout))),
                       Tensor(rng.normal(size=(1, dout))), rng.normal(size=(n, dout)))
        assert second_core.splits == splits

    def test_two_widened_half_blocks_take_the_memory_of_one_block(self, second_core):
        # as test_backward_widens_one_column_block_at_a_time, on two threads
        second_core.force(True)
        rng = np.random.default_rng(13)
        rows, w, b = paper_projection(600, seed=13)
        c = rng.normal(size=(600, 128))
        with Graph() as graph:
            loss = weighted_sum((ad.linear(rows, w, b), c))
        tracemalloc.start()
        try:
            (dw,) = backward(loss, graph, [w])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second_core.splits == 2
        assert peak < 12e6
        assert np.array_equal(dw, rows.astype(np.float64).T @ c)

    @pytest.mark.parametrize("blas_threads, cpus, free", [
        (1, {0, 1}, True), (2, {0, 1}, False), (1, {0}, False), (None, {0, 1}, False)])
    def test_second_core_needs_one_blas_thread_and_two_cpus(self, blas_threads, cpus, free,
                                                            monkeypatch):
        monkeypatch.setattr(ad, "_blas_thread_count",
                            lambda: None if blas_threads is None else lambda: blas_threads)
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: cpus)
        assert ad._two_cores() is free

    def test_reads_the_thread_count_of_numpys_openblas(self):
        # numpy's wheels bundle OpenBLAS in numpy.libs; another BLAS is unknown
        bundled = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
        getter = ad._blas_thread_count()
        assert (getter is not None) == bool(bundled)
        if getter is not None:
            assert getter() >= 1

    @staticmethod
    def one_item_each(here, there):
        """``_each_on_two_threads`` over two items, of which the helper runs
        ``there`` and this thread ``here``, once the helper has started."""
        caller, started = threading.current_thread(), threading.Event()

        def work(item):
            if threading.current_thread() is caller:
                assert started.wait(timeout=60)
                here()
            else:
                started.set()
                there()

        ad._each_on_two_threads(work, range(2))

    def test_waits_for_the_helper_when_its_own_half_raises(self):
        finished = threading.Event()

        def slow():
            finished.wait(0.2)
            finished.set()

        def fails():
            raise ValueError("this item")

        with pytest.raises(ValueError, match="this item"):
            self.one_item_each(fails, slow)
        assert finished.is_set()
        with pytest.raises(ValueError, match="this item"):
            self.one_item_each(lambda: None, fails)

    def test_helper_runs_in_the_callers_errstate(self):
        seen = []
        with np.errstate(over="raise", under="ignore"):
            self.one_item_each(lambda: None, lambda: seen.append(np.geterr()))
            assert seen == [np.geterr()]
        with pytest.raises(FloatingPointError, match="overflow"):
            with np.errstate(over="raise"):
                self.one_item_each(lambda: None, lambda: np.exp(np.array([1e3])))

    def test_each_item_runs_once_when_callers_share_the_helper(self):
        # three callers hand their items to the one helper at once, with
        # thread switches as often as the interpreter can make them: every
        # item runs exactly once, linear splits nothing meanwhile, and only
        # the caller's own thread runs its ``after``
        def run(first):
            seen, afters = [], []

            def work(item):
                seen.append((item, ad._unsplit.get()))

            ad._each_on_two_threads(work, range(first, first + 500),
                                    lambda: afters.append(threading.current_thread()))
            return seen, afters, threading.current_thread(), ad._unsplit.get()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
                results = list(pool.map(run, (0, 1000, 2000), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for first, (seen, afters, caller, unsplit_after) in zip((0, 1000, 2000), results):
            assert sorted(item for item, _ in seen) == list(range(first, first + 500))
            assert all(unsplit for _, unsplit in seen) and not unsplit_after
            assert afters and set(afters) == {caller}

    def test_forked_child_starts_a_helper_of_its_own(self, second_core):
        second_core.force(True)
        rows, w, b = paper_projection(64)
        want = ad.linear(rows, w, b).data
        assert second_core.splits == 1 and ad._helper is not None
        child = multiprocessing.get_context("fork").Process(
            target=split_in_child, args=(rows, w, b, want, second_core))
        child.start()
        child.join(timeout=60)
        if child.is_alive():  # a child that waits for its parent's helper hangs
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestSoftmaxMasked:
    """The masked softmax rule that ``conquer_attention`` and
    ``divide_attention`` share: ``_softmax_forward`` and its backward
    ``_softmax_vjp``, also inside the attention that both ops run."""

    def test_uniform_over_admitted(self):
        mask = np.zeros((2, 6), dtype=bool)
        mask[:, :4] = True
        out = ad._softmax_forward(np.full((2, 6), 3.7), mask)
        np.testing.assert_allclose(out[:, :4], 0.25, atol=1e-15)
        assert (out[:, 4:] == 0.0).all()

    def test_single_admitted_is_one(self):
        logits = np.random.default_rng(2).normal(size=(3, 3))
        out = ad._softmax_forward(logits, np.eye(3, dtype=bool))
        assert np.array_equal(out, np.eye(3))

    def test_full_row_matches_scalar_oracle(self):
        out = ad._softmax_forward(np.array([[1.0, 2.0, 3.0]]), np.ones((1, 3), dtype=bool))
        np.testing.assert_allclose(out[0], softmax_oracle([1.0, 2.0, 3.0]), rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        mask = rng.random((8, 8)) < 0.5
        mask[:, 0] = True
        out = ad._softmax_forward(rng.normal(size=(8, 8)) * 5, mask)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out[~mask] == 0.0).all()

    def test_mask_broadcasts_over_leading_axes(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 3, 4))
        y = ad._softmax_forward(x.copy(), HEAD_MASK)
        for c in range(2):
            for h in range(3):
                assert np.array_equal(y[c, h], ad._softmax_forward(x[c, h].copy(), HEAD_MASK))
        assert (y[..., ~HEAD_MASK] == 0.0).all()
        # the gradient of sum(y * y), whose row term is sum_j y_ij * 2 y_ij
        grad = ad._softmax_vjp(y, 2 * y, (2 * y * y).sum(axis=-1, keepdims=True))
        assert (grad[..., ~HEAD_MASK] == 0.0).all()
        np.testing.assert_allclose(
            grad, fd_grad(lambda z: (old_softmax(z, HEAD_MASK) ** 2).sum(), x.copy()),
            atol=1e-8)

    def test_gradient_zero_at_masked_entries(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 4))
        mask = rng.random((4, 4)) < 0.6
        mask[:, 0] = True
        y = ad._softmax_forward(x.copy(), mask)
        # the gradient of sum(y * y), whose row term is sum_j y_ij * 2 y_ij
        grad = ad._softmax_vjp(y, 2 * y, (2 * y * y).sum(axis=-1, keepdims=True))
        assert (grad[~mask] == 0.0).all()
        np.testing.assert_allclose(
            grad, fd_grad(lambda z: (old_softmax(z, mask) ** 2).sum(), x.copy()), atol=1e-8)

    @pytest.mark.parametrize("path, m", [("fast", 5), ("fallback", 5), ("fast", 1),
                                         ("fallback", 1)],
                             ids=["fast", "fallback", "fast_one_row", "fallback_one_row"])
    def test_batched_masked_attention_matches_the_exact_jacobian(self, path, m, request):
        """The attention over a batch of sequences [B, n, D] under one banded
        mask, forward and VJP, against the per-sequence, per-head reference.
        A mask of its first m rows evaluates those query rows alone: the
        reference's rows, and its VJP with a zero gradient on the other rows."""
        if path == "fallback":
            request.getfixturevalue("fallback")
        rng = np.random.default_rng(26)
        x = rng.normal(size=(3, 5, 4))
        ws = [Tensor(rng.normal(size=(4, 4))) for _ in range(3)]
        full_mask = banded_mask(5, 1)
        assert not full_mask.all(axis=0).all()  # some columns are masked in some rows
        mask = full_mask[:m]
        g = rng.normal(size=x.shape)
        g[:, m:] = 0.0
        out, p, vjp = ad._attend(x, ws, 2, mask)
        rows, attn = attention_rows(x, [w.data for w in ws], 2, full_mask)
        assert_close_to_reference(out.reshape(3, m, 4), rows[:, :m])
        assert_close_to_reference(p, attn[..., :m, :])
        assert (p[..., ~mask] == 0.0).all()
        dx, *dws = vjp(g[:, :m].reshape(-1, 4), x)
        want_dx, want_dws = attention_vjp_reference(x, [w.data for w in ws], 2, full_mask, g)
        for got, want in zip((dx.reshape(x.shape), *dws), (want_dx, *want_dws)):
            assert_close_to_reference(got, want)


class TestStructural:
    def test_structural_ops_reject_bad_operands(self):
        t = Tensor(np.zeros((4, 6)))
        w = Tensor(np.zeros((6, 6)))
        with pytest.raises(ShapeError, match="divisible"):
            ad.conquer_attention(t, w, w, w, 4)
        with pytest.raises(ShapeError, match="projections"):
            ad.conquer_attention(t, w, w, Tensor(np.zeros((6, 3))), 2)
        with pytest.raises(ShapeError, match=r"\[n, D\]"):
            ad.conquer_attention(Tensor(np.zeros((2, 4, 6))), w, w, w, 2)

    def test_item_needs_a_single_element(self):
        assert Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ShapeError, match=re.escape("(2, 2)")):
            Tensor(np.ones((2, 2))).item()


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = Tensor(np.random.default_rng(7).normal(size=(3, 5)))
        with Graph() as g:
            loss = weighted_sum((x, 1.0))
        assert np.array_equal(backward(loss, g, [x])[0], np.ones((3, 5)))

    def test_grad_of_square_sum(self):
        x = Tensor(np.random.default_rng(8).normal(size=(4,)))
        with Graph() as g:
            loss = weighted_sum((x, 1.0), power=2)
        np.testing.assert_allclose(backward(loss, g, [x])[0], 2 * x.data, rtol=1e-15)

    def test_composite_matches_finite_differences(self):
        # two-layer expression: mean(((x @ w1) @ w2) ** 2)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        w1 = Tensor(rng.normal(size=(4, 6)))
        w2 = Tensor(rng.normal(size=(6, 1)))

        def run():
            return weighted_sum((product(product(x, w1), w2), 1 / 5), power=2)

        with Graph() as g:
            loss = run()
        grads = backward(loss, g, [w1, w2])

        num1 = fd_grad(lambda w: float(((x @ w @ w2.data) ** 2).mean()), w1.data.copy())
        num2 = fd_grad(lambda w: float(((x @ w1.data @ w) ** 2).mean()), w2.data.copy())
        for a, n in zip(grads, (num1, num2)):
            rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                                     np.full_like(a, 1e-8)])
            assert rel.max() <= 1e-6

    def test_two_calls_on_one_graph_return_equal_arrays(self):
        # nothing accumulates between calls, and no call writes to a tensor
        x = Tensor(np.random.default_rng(10).normal(size=(3, 3)))
        with Graph() as g:
            loss = weighted_sum((x, 1.0), power=2)
        first, second = backward(loss, g, [x]), backward(loss, g, [x])
        assert np.array_equal(first[0], 2 * x.data) and np.array_equal(first[0], second[0])
        assert first[0] is not second[0]

    def test_a_tensor_the_loss_does_not_reach_gets_zeros(self):
        rng = np.random.default_rng(16)
        x, unused, w = (Tensor(rng.normal(size=s)) for s in ((2, 3), (4, 5), (3, 3)))
        with Graph() as g:
            y = product(x, w)  # recorded, but the loss does not read it
            loss = weighted_sum((x, 1.0))
        dy, du, dx, dw = backward(loss, g, [y, unused, x, w])
        for got, t in ((dy, y), (du, unused), (dw, w)):
            assert got.shape == t.shape and got.dtype == np.float64 and not got.any()
        assert np.array_equal(dx, np.ones((2, 3)))

    def test_in_place_sums_leave_the_rules_arrays_alone(self):
        # the sum node hands one array to both inputs of a repeated term: y
        # and x each get it twice, and x then a third contribution through
        # the product, so the engine sums in place. Small integers keep every
        # sum exact, whatever its order
        rng = np.random.default_rng(14)
        x = Tensor(rng.integers(-4, 5, size=(2, 3)))
        w = Tensor(rng.integers(-4, 5, size=(3, 3)))
        c, d = rng.integers(-4, 5, size=(2, 2, 3)).astype(float)
        returned = []
        with Graph() as graph:
            y = product(x, w)
            loss = weighted_sum((y, c), (y, c), (x, d), (x, d))
        for node in graph.nodes:
            rule = node.backward_fn

            def keep(*g, rule=rule):
                out = rule(*g)
                returned.extend((r, r.copy()) for r in out if r is not None)
                return out
            node.backward_fn = keep
        (dx,) = backward(loss, graph, [x])
        assert np.array_equal(dx, d + d + (c + c) @ w.data.T)
        assert all(np.array_equal(r, kept) for r, kept in returned)

    def test_leaf_gradients_are_read_only_views_of_the_sum(self):
        # linear hands back F-ordered weight gradients; their sum comes back
        # as the engine holds it, F-ordered and read-only, with no copy
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(256, 16)))
        rows = [rng.normal(size=(n, 256)) for n in (40, 7)]
        weights = [rng.normal(size=(n, 16)) for n in (40, 7)]
        with Graph() as g:
            loss = weighted_sum(*[(product(a, w), c) for a, c in zip(rows, weights)])
        expected = rows[0].T @ weights[0] + rows[1].T @ weights[1]
        for _ in range(2):
            (dw,) = backward(loss, g, [w])
            assert dw.flags.f_contiguous and not dw.flags.writeable
            assert np.array_equal(dw, expected)
            with pytest.raises(ValueError, match="read-only"):
                dw += 1.0

    def test_single_matmul_leaf_gradient_is_a_t_g(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(33, 256))
        w = Tensor(rng.normal(size=(256, 16)))
        c = rng.normal(size=(33, 16))
        with Graph() as g:
            loss = weighted_sum((product(a, w), c))
        (dw,) = backward(loss, g, [w])
        assert not dw.flags.writeable
        assert np.array_equal(dw, a.T @ c)

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.ones((2, 2)))
        with Graph() as g:
            y = product(x, x)
        with pytest.raises(ShapeError, match="scalar loss or a seed"):
            backward(y, g, [x])

    def test_a_seed_enters_at_a_non_scalar_output(self):
        # d(sum(s * (x @ w)))/dw = x.T @ s: the seed is the output's gradient
        rng = np.random.default_rng(19)
        x, s = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        w = Tensor(rng.normal(size=(3, 2)))
        with Graph() as g:
            y = product(x, w)
        (dw,) = backward(y, g, [w], seed=s)
        with Graph() as g:
            loss = weighted_sum((product(x, w), s))
        assert np.array_equal(dw, backward(loss, g, [w])[0])

    @pytest.mark.parametrize("seed_shape", [(), (5,), (2, 5), (5, 2, 1)])
    def test_a_seed_of_another_shape_raises(self, seed_shape):
        x = Tensor(np.ones((5, 2)))
        with Graph() as g:
            y = product(np.ones((5, 5)), x)
        with pytest.raises(ShapeError, match=re.escape(f"{seed_shape}")):
            backward(y, g, [x], seed=np.ones(seed_shape))

    def test_a_scalar_loss_without_a_seed_is_seeded_with_one(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(4, 3)))
        with Graph() as g:
            loss = weighted_sum((x, rng.normal(size=(4, 3))), power=2)
        got = backward(loss, g, [x])[0]
        assert np.array_equal(got, backward(loss, g, [x], seed=np.ones(loss.shape))[0])
        assert np.array_equal(2 * got, backward(loss, g, [x], seed=np.full(loss.shape, 2.0))[0])
        with pytest.raises(ShapeError, match="seed"):
            backward(loss, g, [x], seed=np.ones((1, 1, 1)))

    def test_empty_graph_is_noop(self):
        x = Tensor(np.ones((2, 3)))
        (dx,) = backward(Tensor(1.0), Graph(), [x])  # no nodes: zeros, no error
        assert np.array_equal(dx, np.zeros((2, 3)))

    def test_no_recording_without_active_graph(self):
        x = Tensor(np.ones(3))
        g = Graph()
        with g:
            weighted_sum((x, 1.0))
        n_inside = len(g)
        weighted_sum((x, 1.0))
        assert n_inside == 1 and len(g) == 1

    def test_a_nested_graph_records_while_it_is_the_innermost(self):
        x = Tensor(np.ones(3))
        with Graph() as outer:
            weighted_sum((x, 1.0))
            with Graph() as inner:
                weighted_sum((x, 1.0))
                weighted_sum((x, 1.0))
            weighted_sum((x, 1.0))  # the outer graph records again
        assert (len(outer), len(inner)) == (2, 2)

    def test_every_tensor_an_op_uses_gets_its_gradient(self):
        # a plain Tensor is differentiated like any other: the array operand
        # of linear is the one input that stays off the tape
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(3, 4))
        x, w, b = (Tensor(rng.normal(size=s)) for s in ((3, 4), (4, 2), (1, 2)))
        c = rng.normal(size=(3, 2))
        with Graph() as g:
            loss = weighted_sum((ad.linear(x, w, b), c), (ad.linear(rows, w, b), c))
        assert [node.inputs for node in g.nodes[:2]] == [(x, w, b), (w, b)]
        dx, dw, db = backward(loss, g, [x, w, b])
        np.testing.assert_allclose(dx, c @ w.data.T, rtol=1e-14)
        np.testing.assert_allclose(dw, x.data.T @ c + rows.T @ c, rtol=1e-14)
        np.testing.assert_allclose(db, 2 * c.sum(axis=0, keepdims=True), rtol=1e-14)


class TestGradientCheck:
    def test_quadratic(self):
        theta = Tensor([3.0], name="theta")

        def f():
            return weighted_sum((theta, 1.0), power=2)

        report = gradient_check(f, [theta], h=1e-5)
        assert report.per_parameter[0].max_rel_error < 1e-8

    def test_kink_flagged_and_excluded(self):
        theta = Tensor([0.0], name="theta")

        def f():  # |theta - 0|, the loss node's kink
            return total_loss(theta, [0.0], LossConfig(alpha=1.0, beta=0.0, variant="l1"))

        report = gradient_check(f, [theta], h=1e-5)
        assert report.per_parameter[0].flagged_nonsmooth == 1
        assert report.per_parameter[0].max_rel_error == 0.0

    def test_nonfinite_objective_raises(self):
        theta = Tensor([1e308])

        def f():
            with np.errstate(over="ignore"):
                return weighted_sum((theta, 1.0), power=2)

        with pytest.raises(FloatingPointError):
            gradient_check(f, [theta])

    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -1e-5])
    def test_bad_step_rejected(self, h):
        with pytest.raises(ValueError, match="step h"):
            gradient_check(lambda: Tensor(0.0), [], h=h)

    @pytest.mark.parametrize("op, shapes", [
        (ad.linear, [(5, 4), (4, 3), (1, 3)]),
        (ad.linear, [(5, 1), (1, 3), (1, 3)]),
    ], ids=["linear_bias_row_over_rows", "linear_bias_row_over_outer_product"])
    def test_batched_ops(self, op, shapes):
        rng = np.random.default_rng(12)
        params = [Tensor(rng.normal(size=s)) for s in shapes]
        weights = rng.normal(size=op(*params).shape)

        def f():
            return weighted_sum((op(*params), weights))

        assert gradient_check(f, params, h=1e-6).max_rel_error <= 1e-4


def banded_mask(n: int, radius: int | None) -> np.ndarray:
    """The divide-stage mask: a band of ``radius`` (None: every position)
    plus an always-admitted slot 0."""
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) <= (n if radius is None else radius)
    mask[0, :] = mask[:, 0] = True
    return mask


class TestConquerAttention:
    N, DIM, HEADS = 5, 4, 2

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(self.N, self.DIM)), name="x")
        ws = [Tensor(rng.normal(size=(self.DIM, self.DIM)), name=n) for n in ("wq", "wk", "wv")]
        return x, ws

    def test_gradient_check(self):
        x, ws = self.operands(21)
        weights = np.random.default_rng(22).normal(size=(1, self.DIM))

        def f():
            return weighted_sum((ad.conquer_attention(x, *ws, self.HEADS), weights))

        report = gradient_check(f, [x, *ws], h=1e-6)
        assert [p.name for p in report.per_parameter] == ["x", "wq", "wk", "wv"]
        assert report.max_rel_error <= 1e-4

    def test_gradient_check_through_the_fallback(self, fallback):
        self.test_gradient_check()

    @pytest.mark.parametrize("path", ["fast", "fallback"])
    def test_vjp_matches_the_exact_jacobian(self, path, request):
        """Every row gets 1/n of the pooled row's gradient."""
        if path == "fallback":
            request.getfixturevalue("fallback")
        x, ws = self.operands(24)
        weights = np.random.default_rng(25).normal(size=(1, self.DIM))
        with Graph() as g:
            loss = weighted_sum((ad.conquer_attention(x, *ws, self.HEADS), weights))
        assert [node.op for node in g.nodes] == ["conquer_attention", "weighted_sum"]
        grads = backward(loss, g, [x, *ws])
        dx, dws = attention_vjp_reference(x.data[None], [w.data for w in ws], self.HEADS, None,
                                          np.broadcast_to(weights / self.N, (1, *x.shape)))
        for got, want in zip(grads, (dx[0], *dws)):
            assert_close_to_reference(got, want)

    def test_forward_matches_composition(self):
        x, ws = self.operands(23)
        with Graph() as g:
            out = ad.conquer_attention(x, *ws, self.HEADS).data
        rows, attn = attention_rows(x.data, [w.data for w in ws], self.HEADS, None)
        np.testing.assert_allclose(out, rows.mean(axis=0, keepdims=True), rtol=0, atol=1e-12)
        (weights,) = g.nodes[0].weights
        assert weights.shape == (self.HEADS, self.N, self.N)
        np.testing.assert_allclose(weights, attn, rtol=0, atol=1e-12)


class TestPositional:
    def operands(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(size=(n, 4)), name="frames"),
                Tensor(rng.normal(size=(1, 4)), name="video_token"),
                Tensor(rng.normal(size=(rows, 4)), name="table"))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_gradient_check(self, n):
        frames, token, table = self.operands(n, 6, 90 + n)
        rng = np.random.default_rng(91)
        w_video, w_frames = rng.normal(size=(1, 4)), rng.normal(size=(n, 4))

        def f():
            video, out = ad.positional(frames, token, table)
            return weighted_sum((video, w_video), (out, w_frames), power=2)

        report = gradient_check(f, [frames, token, table], h=1e-6)
        assert [p.name for p in report.per_parameter] == ["frames", "video_token", "table"]
        assert report.max_rel_error <= 1e-4

    def test_one_node_writes_both_gradients_into_one_table(self):
        frames, token, table = self.operands(3, 6, 92)
        with Graph() as g:
            video, out = ad.positional(frames, token, table)
        assert np.array_equal(video.data, token.data + table.data[:1])
        assert np.array_equal(out.data, frames.data + table.data[1:4])
        (node,) = g.nodes
        assert node.op == "positional" and node.outputs == (video, out)
        g_video, g_frames = np.full((1, 4), 2.0), np.arange(12.0).reshape(3, 4)
        d_frames, d_token, d_table = node.backward_fn(g_video, g_frames)
        assert d_frames is g_frames and d_token is g_video
        assert np.array_equal(d_table, np.vstack([g_video, g_frames, np.zeros((2, 4))]))

    @pytest.mark.parametrize("shapes", [[(6, 4), (1, 4), (6, 4)], [(0, 4), (1, 4), (6, 4)],
                                        [(3, 4), (2, 4), (6, 4)], [(3, 4), (1, 4), (6, 3)],
                                        [(4,), (1, 4), (6, 4)]])
    def test_rejects_bad_operands(self, shapes):
        with pytest.raises(ShapeError, match="positional needs"):
            ad.positional(*(Tensor(np.zeros(s)) for s in shapes))


class TestSoftmaxForward:
    SLOT_ONLY = np.array([[True, True, True, True],
                          [True, False, False, False],   # admits only the slot
                          [True, False, True, True],
                          [True, False, False, False]])

    CASES = pytest.mark.parametrize("shape, mask", [
        ((3, 2, 9, 9), banded_mask(9, 2)),
        ((2, 2, 4, 4), SLOT_ONLY),
        ((3, 2, 6, 6), (np.random.default_rng(30).random((3, 1, 6, 6)) < 0.5)
         | np.eye(6, dtype=bool)),
        ((2, 3, 5, 5), np.ones((5, 5), dtype=bool)),
    ], ids=["banded", "slot_only_rows", "broadcast_per_clip", "unmasked"])

    @CASES
    def test_bit_identical_to_exp_of_minus_inf(self, shape, mask):
        """Logits beyond +-_EXP_SAFE (scale 700) take the fallback, which
        equals exponentiating -inf bit for bit. The others take the fast
        path, which is checked against the scalar oracle instead: at scale
        30 the -inf formula itself is 1.4e-14 off, from rounding z - max."""
        rng = np.random.default_rng(31)
        for scale in (1e-3, 1.0, 30.0, 700.0):
            z = rng.normal(size=shape) * scale
            assert (np.abs(z).max() > ad._EXP_SAFE) == (scale == 700.0)
            got = ad._softmax_forward(z.copy(), mask)
            if scale == 700.0:
                assert np.array_equal(got, old_softmax(z, mask))
            else:
                np.testing.assert_allclose(got, unshifted_softmax_oracle(z, mask), rtol=1e-14,
                                           atol=0)
            assert (got[..., ~np.broadcast_to(mask, shape)] == 0.0).all()
            assert not np.signbit(got).any()

    @CASES
    def test_fast_path_matches_the_fallback(self, shape, mask, monkeypatch):
        # up to scale 10 the fallback's rounding of z - max stays below 1e-14
        rng = np.random.default_rng(32)
        for scale in (1e-3, 1.0, 10.0):
            z = rng.normal(size=shape) * scale
            fast = ad._softmax_forward(z.copy(), mask)
            monkeypatch.setattr(ad, "_EXP_SAFE", 0.0)
            slow = ad._softmax_forward(z.copy(), mask)
            monkeypatch.undo()
            assert np.array_equal(slow, old_softmax(z, mask))
            np.testing.assert_allclose(fast, slow, rtol=1e-14, atol=0)
            assert np.array_equal(fast == 0.0, slow == 0.0)

    def test_logits_out_of_range_take_the_fallback(self):
        # +800 and -800 in one row: exp(800) overflows without the shift
        z = np.array([[800.0, -800.0, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
        got = ad._softmax_forward(z.copy(), np.ones(z.shape, dtype=bool))
        assert np.isfinite(got).all() and np.array_equal(got, old_softmax(z, None))
        # an admitted row far below a masked entry: every admitted exp would
        # underflow to 0 without the shift
        mask = np.array([[True, True, True], [False, True, True]])
        z = np.array([[0.0, 1.0, 2.0], [0.0, -800.0, -801.0]])
        got = ad._softmax_forward(z.copy(), mask)
        assert np.isfinite(got).all() and np.array_equal(got, old_softmax(z, mask))
        assert got[1, 0] == 0.0 and got[1, 1] > got[1, 2] > 0.0
        # NaN fails the range check too
        z = np.array([[np.nan, 0.0, 1.0], [0.0, 1.0, 2.0]])
        got = ad._softmax_forward(z.copy(), np.ones(z.shape, dtype=bool))
        assert np.array_equal(got, old_softmax(z, None), equal_nan=True)


class TestDivideAttention:
    DIM, HEADS = 4, 2

    def operands(self, n, seed):
        rng = np.random.default_rng(seed)
        frames = Tensor(rng.normal(size=(n, self.DIM)), name="frames")
        video = Tensor(rng.normal(size=(1, self.DIM)), name="video")
        ws = [Tensor(rng.normal(size=(self.DIM, self.DIM)), name=name)
              for name in ("wq", "wk", "wv")]
        return frames, video, ws

    CASES = pytest.mark.parametrize("n, clip_len, radius", [
        (3, 4, 1), (8, 4, 1), (10, 4, 2), (1, 4, 1), (7, 3, None),
    ], ids=["shorter_than_clip", "two_full_clips", "remainder", "one_frame", "unbanded"])

    @CASES
    def test_gradient_check(self, n, clip_len, radius):
        frames, video, ws = self.operands(n, 40 + n)
        mask = banded_mask(clip_len + 1, radius)
        rng = np.random.default_rng(41)
        clips = -(-n // clip_len)
        w_clips = rng.normal(size=(clips, self.DIM))
        w_frames = rng.normal(size=(n, self.DIM))

        def f():
            c, fr = ad.divide_attention(frames, video, *ws, self.HEADS, mask)
            return weighted_sum((c, w_clips), (fr, w_frames))

        report = gradient_check(f, [frames, video, *ws], h=1e-6)
        assert [p.name for p in report.per_parameter] == ["frames", "video", "wq", "wk", "wv"]
        assert report.max_rel_error <= 1e-4

    @pytest.mark.parametrize("n", [10, 8, 3])
    def test_forward_matches_per_clip_reference(self, n):
        clip_len = 4
        frames, video, ws = self.operands(n, 50)
        mask = banded_mask(clip_len + 1, 1)
        with Graph() as g:
            clips, out = ad.divide_attention(frames, video, *ws, self.HEADS, mask)
        sink = clip_maps(g)
        rows = np.vstack([video.data, frames.data])  # row 0 the video, row 1 + t frame t
        want_clips, want_frames, want_sink = [], [], []
        for start in range(0, n, clip_len):
            length = min(clip_len, n - start)
            x = rows[np.r_[0, start + 1:start + length + 1]]
            out_rows, attn = attention_rows(x, [w.data for w in ws], self.HEADS,
                                            mask[:length + 1, :length + 1])
            want_clips.append((x + out_rows)[:1])
            want_frames.append((x + out_rows)[1:])
            want_sink.append(attn)
        assert clips.shape == (len(want_clips), self.DIM) and out.shape == (n, self.DIM)
        np.testing.assert_allclose(clips.data, np.vstack(want_clips), rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, np.vstack(want_frames), rtol=0, atol=1e-12)
        assert len(sink) == len(want_sink)
        for got, want in zip(sink, want_sink):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            length = got.shape[-1]
            assert (got[:, ~mask[:length, :length]] == 0.0).all()

    def test_one_node_with_two_outputs(self):
        frames, video, ws = self.operands(10, 51)
        with Graph() as g:
            clips, out = ad.divide_attention(frames, video, *ws, self.HEADS,
                                             banded_mask(5, None))
            loss = weighted_sum((clips, 1.0), power=2)  # the frames output is unused
        assert [node.op for node in g.nodes] == ["divide_attention", "weighted_sum"]
        grads = backward(loss, g, [frames, video, *ws])
        assert all(d.any() and np.isfinite(d).all() for d in grads)

    @CASES
    def test_clip_rows_only_gradient_check(self, n, clip_len, radius):
        frames, video, ws = self.operands(n, 60 + n)
        mask = banded_mask(clip_len + 1, radius)
        w_clips = np.random.default_rng(61).normal(size=(-(-n // clip_len), self.DIM))

        def f():
            c, _ = ad.divide_attention(frames, video, *ws, self.HEADS, mask[:1])
            return weighted_sum((c, w_clips))

        report = gradient_check(f, [frames, video, *ws], h=1e-6)
        assert [p.name for p in report.per_parameter] == ["frames", "video", "wq", "wk", "wv"]
        assert report.max_rel_error <= 1e-4

    @CASES
    def test_clip_rows_only_matches_the_full_op(self, n, clip_len, radius):
        frames, video, ws = self.operands(n, 70 + n)
        mask = banded_mask(clip_len + 1, radius)
        w_clips = np.random.default_rng(71).normal(size=(-(-n // clip_len), self.DIM))

        def run(clip_rows_only):  # the clip rows feed the loss, the frames nothing
            with Graph() as g:
                clips, _ = ad.divide_attention(frames, video, *ws, self.HEADS,
                                               mask[:1] if clip_rows_only else mask)
                loss = weighted_sum((clips, w_clips))
            return clips, backward(loss, g, [frames, video, *ws]), clip_maps(g), g

        full, full_grads, full_sink, _ = run(False)
        rows, rows_grads, rows_sink, g = run(True)
        assert [(node.op, len(node.outputs)) for node in g.nodes] == [
            ("divide_attention", 1), ("weighted_sum", 1)]
        assert g.nodes[0].outputs == (rows,)
        np.testing.assert_allclose(rows.data, full.data, rtol=0, atol=1e-12)
        for got, want in zip(rows_grads, full_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert len(rows_sink) == len(full_sink)
        for got, want in zip(rows_sink, full_sink):
            assert got.shape == (self.HEADS, 1, want.shape[-1])
            np.testing.assert_allclose(got, want[:, :1], rtol=0, atol=1e-12)

    @CASES
    def test_gradient_check_through_the_fallback(self, n, clip_len, radius, fallback):
        self.test_gradient_check(n, clip_len, radius)
        self.test_clip_rows_only_gradient_check(n, clip_len, radius)

    @pytest.mark.parametrize("path", ["fast", "fallback"])
    @pytest.mark.parametrize("n, clip_len, radius, clip_rows_only", [
        (8, 4, 1, False), (10, 4, 2, False), (7, 3, None, False),
        (1, 4, 1, True), (10, 4, 2, True), (9, 4, None, True),
    ], ids=["two_full_clips", "remainder", "unbanded", "rows_one_frame", "rows_remainder",
            "rows_one_frame_remainder"])
    def test_vjp_matches_the_exact_jacobian(self, n, clip_len, radius, clip_rows_only, path,
                                            request):
        """The clip-rows form (m = 1) against the full attention's Jacobian
        with a zero gradient on every row but the clip row."""
        if path == "fallback":
            request.getfixturevalue("fallback")
        frames, video, ws = self.operands(n, 80 + n)
        mask = banded_mask(clip_len + 1, radius)
        rng = np.random.default_rng(81)
        clips = -(-n // clip_len)
        w_clips = rng.normal(size=(clips, self.DIM))
        w_frames = np.zeros((n, self.DIM)) if clip_rows_only else rng.normal(size=(n, self.DIM))
        with Graph() as g:
            c, fr = ad.divide_attention(frames, video, *ws, self.HEADS,
                                        mask[:1] if clip_rows_only else mask)
            loss = weighted_sum((c, w_clips), *[] if clip_rows_only else [(fr, w_frames)])
        assert (fr is None) == clip_rows_only
        grads = backward(loss, g, [frames, video, *ws])

        d_frames, d_video = np.zeros((n, self.DIM)), np.zeros((1, self.DIM))
        d_ws = [np.zeros((self.DIM, self.DIM)) for _ in ws]
        for k, start in enumerate(range(0, n, clip_len)):
            stop = min(start + clip_len, n)
            x = np.vstack([video.data, frames.data[start:stop]])[None]
            grad = np.vstack([w_clips[k:k + 1], w_frames[start:stop]])[None]
            block = mask[:len(x[0]), :len(x[0])]
            dx, dw = attention_vjp_reference(x, [w.data for w in ws], self.HEADS, block, grad)
            dx = dx[0] + grad[0]  # the residual path
            d_video += dx[:1]
            d_frames[start:stop] = dx[1:]
            d_ws = [a + b for a, b in zip(d_ws, dw)]
        for got, want in zip(grads, (d_frames, d_video, *d_ws)):
            assert_close_to_reference(got, want)

    def test_rejects_bad_operands(self):
        """A mask of fewer than 2 columns, of neither 1 row nor as many rows
        as columns, not 2-d, or not a boolean array is refused."""
        frames, video, ws = self.operands(6, 52)
        mask = banded_mask(5, 1)
        for bad, got in ((banded_mask(4, 1)[:3], r"bool \(3, 4\)"), (None, r"NoneType \(\)"),
                         (mask[:2], r"bool \(2, 5\)"), (mask[:, :1], r"bool \(5, 1\)"),
                         (banded_mask(1, 1), r"bool \(1, 1\)"),
                         (mask[None], r"bool \(1, 5, 5\)"), (mask[0], r"bool \(5,\)"),
                         (mask.astype(np.float64), "float64"), (mask.astype(np.int8), "int8"),
                         (mask.tolist(), r"list \(5, 5\)")):
            with pytest.raises(ShapeError, match=r"boolean \[L \+ 1, L \+ 1\] array .* got "
                                                 + got):
                ad.divide_attention(frames, video, *ws, self.HEADS, bad)
        with pytest.raises(ShapeError, match="video"):
            ad.divide_attention(frames, frames, *ws, self.HEADS, mask)

    @pytest.mark.parametrize("clip_rows_only", [False, True])
    @pytest.mark.parametrize("bad_rows", [[3], [2, 4], [0]])
    def test_rejects_a_row_without_position_0(self, bad_rows, clip_rows_only):
        """Even a row that admits other positions, and even a row past the
        leading block of a shorter last clip, names the first such row. A
        one-row mask made of the first bad row is rejected as row 0."""
        frames, video, ws = self.operands(6, 54)
        mask = banded_mask(5, None)
        mask[bad_rows, 0] = False
        first = bad_rows[0]
        if clip_rows_only:
            mask, first = mask[first:first + 1], 0
        with pytest.raises(ShapeError, match=f"mask row {first} does not admit "
                                             f"position 0"):
            ad.divide_attention(frames, video, *ws, self.HEADS, mask)

    def test_a_mask_of_column_0_alone_leaves_no_row_empty(self):
        """Every row of both blocks (a full clip and a shorter last one)
        puts all its weight on the video row; an empty row would divide by
        zero, a RuntimeWarning that fails the suite."""
        frames, video, ws = self.operands(7, 55)
        mask = np.zeros((5, 5), dtype=bool)
        mask[:, 0] = True
        with Graph() as g:
            ad.divide_attention(frames, video, *ws, self.HEADS, mask)
        sink = clip_maps(g)
        assert [w.shape for w in sink] == [(self.HEADS, 5, 5), (self.HEADS, 4, 4)]
        for w in sink:
            np.testing.assert_allclose(w[..., 0], 1.0, rtol=1e-15, atol=0)
            assert (w[..., 1:] == 0.0).all()


class TestThreadConfinement:
    def test_graphs_over_shared_parameters_on_four_threads(self):
        """Four threads each run forward and backward 16 times on graphs of
        their own, over one model's parameters and each on its own video.
        Every run's score and gradients equal the thread's sequential run
        bit for bit: the threads share no gradient state."""
        model = DCVQEModel.initialize(TINY_CONFIG, seed=3, init_scale=0.5)
        rng = np.random.default_rng(17)
        videos = [rng.normal(size=(n, TINY_CONFIG.input_dim)) for n in (12, 9, 5, 2)]

        def run(video):
            with Graph() as g:
                score = model.forward(video)
                loss = weighted_sum((score, 1.0), power=2)
            return [score.data.copy(), *backward(loss, g, model.parameters())]

        sequential = [run(v) for v in videos]
        start = threading.Barrier(len(videos))

        def worker(video):
            start.wait(timeout=60)
            return [run(video) for _ in range(16)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=len(videos)) as pool:
                threaded = list(pool.map(worker, videos, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for want, runs in zip(sequential, threaded, strict=True):
            for got in runs:
                assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))

    def test_split_projections_over_shared_parameters_on_four_threads(self, second_core):
        """The same at the paper shape, where each thread's input projection
        and its weight gradient also run on the one shared helper thread:
        every run equals a sequential run on one thread bit for bit."""
        model = DCVQEModel.initialize(DCVQEConfig(), seed=3)
        rng = np.random.default_rng(18)
        videos = [rng.standard_normal((n, 4096), dtype=np.float32) for n in (64, 47, 40, 33)]

        def run(video):
            with Graph() as g:
                score = model.forward(video)
                loss = weighted_sum((score, 1.0), power=2)
            return [score.data.copy(), *backward(loss, g, model.parameters())]

        sequential = [run(v) for v in videos]
        assert second_core.splits == 0
        second_core.force(True)
        start = threading.Barrier(len(videos))

        def worker(video):
            start.wait(timeout=60)
            return [run(video) for _ in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=len(videos)) as pool:
                threaded = list(pool.map(worker, videos, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert second_core.splits == 2 * 4 * len(videos)  # forward and weight gradient
        for want, runs in zip(sequential, threaded, strict=True):
            for got in runs:
                assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))


class TestDeterminism:
    def test_ops_bit_identical(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        mask = rng.random((6, 6)) < 0.7
        mask[:, 0] = True

        def run():
            t = Tensor(a)
            bias = Tensor(a[:1])
            rows = Tensor(a[[[0, 1, 2, 3, 4, 5], [5, 3, 1, 0, 2, 4]]].reshape(12, 6))
            with Graph() as g:
                y = ad.linear(rows, t, bias)
                clips, frames = ad.divide_attention(y, bias, t, t, t, 2, mask)
                z = ad.conquer_attention(clips, t, t, t, 2)
                loss = weighted_sum((frames, 1.0), (z, 1.0), power=2)
            return (y.data.copy(), frames.data.copy(), z.data.copy(),
                    *backward(loss, g, [t, bias, rows]))

        first, second = run(), run()
        assert all(np.array_equal(u, v) for u, v in zip(first, second))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_repeated_backward_property(rows, cols, seed):
    """backward keeps no state: three calls on one graph return equal
    arrays, and the tensors' data is left as it was."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)))
    before = x.data.copy()
    with Graph() as g:
        loss = weighted_sum((x, 1 / x.data.size), power=2)
    (once,) = backward(loss, g, [x])
    assert all(np.array_equal(backward(loss, g, [x])[0], once) for _ in range(2))
    assert np.array_equal(x.data, before) and x.__slots__ == ("data", "name")


PACKAGE = Path(ad.__file__).parent


def tape_ops() -> dict[str, str]:
    """Public functions of the package whose body records onto the tape,
    mapped to the module that defines them."""
    def records(call):
        name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(
            call.func, "id", None)
        return name in ("_record", "_record_many")

    ops = {}
    for path in PACKAGE.glob("*.py"):
        for fn in ast.parse(path.read_text()).body:
            if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and any(isinstance(n, ast.Call) and records(n) for n in ast.walk(fn))):
                ops[fn.name] = path.stem
    return ops


def names_used_outside(module: str) -> set[str]:
    """Names the other package modules take from ``module``: attributes of a
    name bound to the module and names imported from it."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == module:
            continue
        tree = ast.parse(path.read_text())
        aliases = {module}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases |= {a.asname or a.name for a in node.names if a.name == module}
                elif node.module == module:
                    used |= {a.name for a in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return used


def test_gradients_live_only_in_what_backward_returns():
    """A tensor has a data array and a name, and no module of the package
    stores a gradient on a tensor or clears one."""
    assert Tensor.__slots__ == ("data", "name")
    with pytest.raises(AttributeError):
        Tensor(1.0).grad = np.ones(1)
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        assert not re.search(r"\.grad\b|zero_grads", text), path.name


def test_every_tape_op_has_a_caller_in_the_package():
    ops = tape_ops()
    assert ops == {"linear": "autodiff", "positional": "autodiff",
                   "divide_attention": "autodiff", "conquer_attention": "autodiff",
                   "total_loss": "losses"}
    assert sorted(op for op, module in ops.items() if op not in names_used_outside(module)) == []
