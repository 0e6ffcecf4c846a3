"""Dense float64 tensors with taped reverse-mode automatic differentiation.

All model, loss, and metric math in this package runs on these primitives.
A ``Graph`` records every operation executed inside its context, and no
tensor opts out; ``backward(loss, graph, wrt, seed=None)`` replays the tape
in reverse from the gradient ``seed`` at ``loss`` (ones for a scalar loss)
and returns the gradient of each tensor of ``wrt``, read-only. A tensor
holds no gradient, so a graph's backward changes no state that another
graph sees.
Code that must stay off a caller's tape runs inside a graph of its own.
``gradient_check`` compares those gradients against central finite
differences and is the ground truth the rest of the package is validated
against.

The tape keeps only the ops that the model, the losses and gradient
checking use, each one node with a hand-written backward: ``linear``,
``positional``, ``divide_attention`` and ``conquer_attention`` here, and
the loss node that ``losses.total_loss`` records through ``_record`` on
the videos' scores. ``linear`` is the one matrix product. It keeps a
float32 ``x`` as it is: its float64 copy lives only inside the forward GEMM,
and the weight gradient widens it one column block at a time. When a second
core is free, its large products (the paper-shape input projection) run on
two threads with the bits of one, through ``_each_on_two_threads``, the one
primitive that runs work on the helper thread, unless whole videos already
keep both threads busy there. ``backward`` sums the gradients that reach
one tensor in place, in arrays that it allocated itself.

The attention ops share one forward and backward, ``_attend``, whose
boolean [m, n] mask's rows are the query rows that it evaluates, the first
m of each sequence. ``conquer_attention`` is multi-head scaled dot-product
attention over one sequence under an all-admitting [n, n] mask, pooled by
the mean over its rows. ``divide_attention`` is the whole divide stage of
one video: it cuts the frames into clips, runs every ``[video; clip]``
sequence through the same attention, masked, adds the residual, and returns
two tensors, the clip embeddings and the updated frames (a node may have
several outputs). It checks once, at entry, that its mask admits the video
row in every row, so the masked softmax checks nothing. That softmax has
one forward and one backward rule (``_softmax_forward``, ``_softmax_vjp``).
When every logit lies within ``_EXP_SAFE`` of zero, the forward skips the
row max and differs from the shifted formula by rounding only; otherwise it
takes the row max and the exponential over the admitted entries only,
bit-identical to exponentiating ``-inf``. Masked entries are exact zeros
and get exactly zero gradient. The backward takes the softmax's row term
from the output rows (g . o per row and head) rather than from the scores.
Given the one-row mask, ``divide_attention`` takes m = 1, the clip row
alone, through the same path and returns no frames; the model uses it for
its final layer, whose updated frames nothing reads. The node of an
attention op keeps its weights, so they are observed from the tape.
``gradient_check`` checks the fused ops like every other op.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class Tensor:
    """A dense float64 array and its name; a tensor holds no gradient.

    ``data`` is always a C-contiguous (row-major) float64 ndarray, so the
    flat buffer is the row-major enumeration of the logical array.
    """

    __slots__ = ("data", "name")

    def __init__(self, data, name: str = ""):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The one element as a float; any other size is a ``ShapeError``."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


@dataclass
class Node:
    """One recorded operation: inputs, outputs, and its vector-Jacobian rule.

    ``backward_fn`` takes one gradient per output (zeros for an output the
    loss does not reach) and returns one gradient per input. An attention
    op's ``weights`` are those its forward formed and its backward keeps.
    """

    inputs: tuple[Tensor, ...]
    outputs: tuple[Tensor, ...]
    backward_fn: Callable[..., tuple]
    op: str
    weights: tuple[np.ndarray, ...] = ()


class _Entered(threading.local):
    """The graphs that this thread has entered, innermost last."""

    def __init__(self):
        self.graphs: list[Graph] = []


_entered = _Entered()


class Graph:
    """Tape of recorded operations, replayed in reverse by ``backward``.

    Use as a context manager around a forward pass. A graph and the
    intermediate tensors it records are confined to one thread; distinct
    graphs may run concurrently on distinct threads.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _entered.graphs.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _entered.graphs.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def _record_many(op: str, inputs: tuple[Tensor, ...], out_data: tuple[np.ndarray, ...],
                 backward_fn: Callable[..., tuple], weights: tuple = ()) -> tuple[Tensor, ...]:
    outs = tuple(Tensor(d) for d in out_data)
    graphs = _entered.graphs
    if graphs:
        graphs[-1].nodes.append(Node(inputs, outs, backward_fn, op, weights))
    return outs


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], tuple], weights: tuple = ()) -> Tensor:
    return _record_many(op, inputs, (out_data,), backward_fn, weights)[0]


def backward(loss: Tensor, graph: Graph, wrt: Sequence[Tensor],
             seed=None) -> list[np.ndarray]:
    """The gradients of ``loss`` with respect to the tensors of ``wrt``, in
    its order: read-only float64 arrays of the tensors' shapes, zeros where
    the loss does not reach. ``wrt`` holds leaves, inputs of recorded ops
    that no recorded op produced; an op's output gets zeros. Nothing is
    written to any tensor, so graphs over shared parameters may run on
    several threads.

    ``seed`` is the gradient that enters at ``loss``, of its shape; None
    stands for ones, which only a loss of one element may take. A loss of
    more than one element without a seed, or a seed of another shape, is a
    ``ShapeError``. A batch's training step seeds each video's graph with
    its score's row of the loss gradient.

    When a second gradient reaches a tensor, the engine allocates the sum
    and adds every later one into it in place, so a weight that every video
    of a batch uses costs one buffer, not one per video. The sum keeps the
    memory order of its terms: adding F-ordered gradients into a C-ordered
    buffer costs several times a contiguous add. It never adds into an
    array that a rule returned: a rule may hand the same array to several
    inputs. Each result is a read-only view of the engine's total, in its
    memory order (``linear``'s weight gradients are F-ordered), not a copy:
    a caller that sums the gradients of several graphs adds them into an
    array of its own.
    """
    if seed is None:
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss or a seed, got shape {loss.shape}")
        seed = np.ones_like(loss.data)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != loss.shape:
            raise ShapeError(f"the seed's shape {seed.shape} is not the loss's {loss.shape}")
    flowing: dict[int, np.ndarray] = {id(loss): seed}
    owned: set[int] = set()  # tensors whose flowing sum this call allocated
    for node in reversed(graph.nodes):
        grads_out = [flowing.pop(id(out), None) for out in node.outputs]
        if all(g is None for g in grads_out):
            continue
        grads_out = [np.zeros(out.shape) if g is None else g
                     for g, out in zip(grads_out, node.outputs)]
        for tensor, grad in zip(node.inputs, node.backward_fn(*grads_out)):
            grad = np.asarray(grad, dtype=np.float64).reshape(tensor.shape)
            tid = id(tensor)
            held = flowing.get(tid)
            if held is None:
                flowing[tid] = grad
            elif tid in owned:
                held += grad
            else:
                flowing[tid] = held + grad
                owned.add(tid)
    totals = [np.zeros(t.shape) if id(t) not in flowing else flowing[id(t)].view()
              for t in wrt]
    for total in totals:
        total.flags.writeable = False
    return totals


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

# Columns of ``x`` widened at a time in ``linear``'s weight gradient. Measured
# at 4096 input columns: one backward over 600 rows peaks at 9.7 MB with 1024
# (14.6 MB with 2048, 24.5 MB unblocked); 512 saves 0.7 MB more, but the
# weight gradient of 300 rows then takes 9.2 ms against 8.3 ms (7.6 unblocked).
# On two threads each widens blocks of half as many columns.
WGRAD_COLS = 1024
# ``linear`` splits a product over two threads only from this many
# multiply-adds (the paper-shape input projection of 32 frames; the 64-d one
# of 600 frames is 1.2 M) and only when each half has this many rows: for
# fewer, numpy and BLAS take other kernels (gemv for one row), whose bits
# can differ.
SPLIT_MACS = 2 ** 24
SPLIT_ROWS = 16


@functools.cache
def _blas_thread_count() -> Callable[[], int] | None:
    """The thread-count getter of the OpenBLAS that numpy loaded from its
    wheel's ``numpy.libs``, or None for any other BLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:  # RTLD_NOLOAD: only a library that numpy has already loaded
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            getter = lib.scipy_openblas_get_num_threads64_
        except (AttributeError, OSError):
            continue
        getter.restype, getter.argtypes = ctypes.c_int, ()
        return getter
    return None


def _two_cores() -> bool:
    """Whether a second core is there for ``linear``'s second thread: this
    process may run on two CPUs or more, and BLAS is known to run one
    thread (a second BLAS thread already takes the second core)."""
    getter = _blas_thread_count()
    return (getter is not None and getter() == 1 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


_helper = None  # a concurrent.futures.ThreadPoolExecutor of one thread, once started
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    # a forked child has none of its parent's threads
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


# set inside ``_each_on_two_threads``: both threads are already busy there,
# so ``linear`` keeps every product on the thread that calls it
_unsplit = contextvars.ContextVar("unsplit", default=False)


def _each_on_two_threads(work: Callable[[object], None], items: Sequence,
                         after: Callable[[], None] = lambda: None) -> None:
    """Call ``work(item)`` for each of ``items`` on this thread and on the one
    helper thread that every caller shares, started at its first use. The
    threads take the items in order, each the next one when it is free.
    This thread calls ``after()`` after each of its own items and once when
    both threads have finished. The helper runs in a copy of this thread's
    context, so ``np.errstate`` holds there too, and ``linear`` splits no
    product on either thread meanwhile: nothing that runs on the helper may
    wait for it. At the first exception neither thread takes a further
    item; the call returns when both have stopped, and this thread's
    exception propagates, else the helper's."""
    # imported here, not with the module: with the logging module it pulls
    # in, it adds 0.4 MB to the peak of every process, split or not
    from concurrent import futures

    global _helper
    taken, lock, failed = iter(items), threading.Lock(), threading.Event()

    def take(then):
        try:
            while not failed.is_set():
                with lock:
                    item = next(taken, taken)
                if item is taken:
                    return
                work(item)
                then()
        except BaseException:
            failed.set()
            raise

    token = _unsplit.set(True)
    try:
        with _helper_lock:
            if _helper is None:
                _helper = futures.ThreadPoolExecutor(1, thread_name_prefix="dcvqe-linear")
            pending = _helper.submit(contextvars.copy_context().run, take, lambda: None)
        try:
            take(after)
        finally:
            futures.wait((pending,))
    finally:
        _unsplit.reset(token)
    pending.result()
    after()


def _large(rows, n_out: int) -> bool:
    """Whether ``linear`` splits the product of the rows [S, K] and a
    [K, n_out] weight over two threads when the second core is free."""
    return (np.ndim(rows) == 2 and rows.shape[0] >= 2 * SPLIT_ROWS
            and rows.shape[0] * rows.shape[1] * n_out >= SPLIT_MACS)


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """``x`` [S, K] @ ``w`` [K, N] plus the bias row ``b`` [1, N], one node.

    ``x`` is a ``Tensor`` (its gradient is ``g @ w.T``) or an array, kept as
    given and never differentiated: float32 rows stay float32 on the tape and
    are widened to float64 only inside the GEMMs. The weight gradient is
    formed as ``(g.T @ x).T``, which BLAS computes with the bits of
    ``x.T @ g`` in about half the time at the input projection's
    [S, 4096] x [4096, 128] shape. It is computed into one [N, K] buffer,
    ``WGRAD_COLS`` columns of ``x`` at a time, and only that block is
    widened; each element is still one GEMM sum over the S rows. With
    OpenBLAS on x86-64 that equals one whole GEMM bit for bit when K fits in
    one block or is a multiple of 8; at other widths the last bit can differ,
    as BLAS picks other kernels for a narrow block. The result is F-ordered,
    and ``backward`` returns leaf gradients in C order. The bias gradient
    sums ``g`` over its rows.

    Products of at least ``SPLIT_MACS`` multiply-adds over at least
    2 * ``SPLIT_ROWS`` rows (the paper-shape input projection of 32 frames
    or more) run on two threads when the second core is free for them: the
    process may run on two CPUs or more and numpy's OpenBLAS runs one
    thread. The two threads take their items in turn through
    ``_each_on_two_threads``: the forward's items are the two halves of the
    rows, the weight gradient's the halves of every full column block, so
    two widened half blocks take the memory of one block; a last, narrower
    block runs whole on the calling thread after both, since halving it
    could change its bits. Every element still comes from the same BLAS
    kernel on the same operands, so the bits are those of one thread.
    ``taskset -c 0``, a BLAS thread count above 1 or a BLAS other than
    numpy's bundled OpenBLAS keeps every product on the calling thread."""
    is_tensor = isinstance(x, Tensor)
    rows = x.data if is_tensor else x
    if (np.ndim(rows) != 2 or w.data.ndim != 2 or rows.shape[1] != w.shape[0]
            or b.shape != (1, w.shape[1])):
        raise ShapeError(f"linear needs x [S, K], w [K, N] and b [1, N], got "
                         f"{np.shape(rows)}, {w.shape} and {b.shape}")
    (n_rows, width), n_out = rows.shape, w.shape[1]
    split = _large(rows, n_out) and not _unsplit.get() and _two_cores()

    out = np.empty((n_rows, n_out))

    def project(part):
        np.matmul(rows[part], w.data, out=out[part])
        out[part] += b.data

    if split:
        half = n_rows // 2
        _each_on_two_threads(project, (slice(half), slice(half, None)))
    else:
        project(slice(None))

    def weight_grad(g):
        buf = np.empty((n_out, width))

        def block(start, cols):
            part = slice(start, start + cols)
            np.matmul(g.T, np.ascontiguousarray(rows[:, part], dtype=np.float64),
                      out=buf[:, part])

        starts = range(0, width, WGRAD_COLS)
        if split and width >= WGRAD_COLS:
            # the threads take the halves of the full blocks; a last, narrower
            # block runs whole, here, once both are done: as two blocks its
            # bits could differ
            halves = range(0, width - width % WGRAD_COLS, WGRAD_COLS // 2)
            _each_on_two_threads(lambda start: block(start, WGRAD_COLS // 2), halves)
            starts = starts[len(halves) // 2:]
        for start in starts:
            block(start, WGRAD_COLS)
        return buf.T  # F-ordered

    def bw(g):
        grads = (weight_grad(g), g.sum(axis=0, keepdims=True))
        return (g @ w.data.T, *grads) if is_tensor else grads

    return _record("linear", (x, w, b) if is_tensor else (w, b), out, bw)


def positional(frames: Tensor, video_token: Tensor, table: Tensor) -> tuple[Tensor, Tensor]:
    """``video_token`` [1, D] plus row 0 of the positional ``table`` [L, D] and
    ``frames`` [n, D] plus rows 1..n (n < L), one tape op with the two outputs
    (video, frames). Its backward writes both gradients into one zero table."""
    if (frames.data.ndim != 2 or video_token.shape != (1, frames.shape[1])
            or table.shape[1:] != frames.shape[1:] or not 0 < frames.shape[0] < len(table.data)):
        raise ShapeError(f"positional needs frames [n, D], video_token [1, D] and a table "
                         f"[L, D] with n < L, got {frames.shape}, {video_token.shape} and "
                         f"{table.shape}")
    n = frames.shape[0]

    def bw(g_video, g_frames):
        d_table = np.zeros(table.shape)
        d_table[:1] = g_video
        d_table[1:n + 1] = g_frames
        return g_frames, g_video, d_table

    return _record_many("positional", (frames, video_token, table),
                        (video_token.data + table.data[:1], frames.data + table.data[1:n + 1]),
                        bw)


# Logits within +-_EXP_SAFE are exponentiated without the row max: exp(300)
# is about 1.9e130, so a row of up to 10**178 entries sums to a finite value,
# and exp(-300) (about 5e-131) stays a normal number, as does every weight
# down to exp(-600) / n. Subtracting the row max would change only rounding.
_EXP_SAFE = 300.0


def _softmax_forward(z: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """Masked softmax along the last axis, computed in place on the float
    array ``z``, which is returned. ``admissible``, unchecked, is a boolean
    array that broadcasts to ``z`` and admits an entry in every row (see
    ``divide_attention``); all-admitting, it gives the unmasked bits.

    When every logit lies within ±``_EXP_SAFE`` (one min/max check over the
    array; NaN fails it), the row max is skipped: every entry is
    exponentiated, multiplied by the mask and scaled by the reciprocal of
    its row sum. This differs from the shifted formula by rounding only
    (about 1e-16 relative). Otherwise the row max and the exponential run over the
    admitted entries only, which equals exponentiating ``-inf`` at masked
    entries bit for bit. Either way masked entries are exact (positive)
    zeros."""
    if -_EXP_SAFE <= z.min(initial=np.inf) and z.max(initial=-np.inf) <= _EXP_SAFE:
        np.exp(z, out=z)
        z *= admissible
        # row sums by a GEMV, several times faster than a row reduction
        z *= np.reciprocal(z @ np.ones(z.shape[-1]))[..., None]
        return z
    # exp(-inf) costs several times a finite exp, so masked entries are
    # skipped and then set to exact zeros
    z -= z.max(axis=-1, keepdims=True, where=admissible, initial=-np.inf)
    np.exp(z, out=z, where=admissible)
    np.copyto(z, 0.0, where=~admissible)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_vjp(p: np.ndarray, g: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of the softmax output ``p`` (last axis),
    computed in place on the incoming gradient ``g``, which is returned.
    ``row`` is the row term sum_j p_ij g_ij, with its last axis kept; a
    caller that knows a cheaper form of it passes that (``_attend`` does).
    Where ``p`` is zero the result is zero."""
    g -= row
    g *= p
    return g


def _check_attention(x: Tensor, ws: tuple[Tensor, ...], num_heads: int) -> None:
    if x.data.ndim != 2:
        raise ShapeError(f"attention needs x of shape [n, D], got {x.shape}")
    dim = x.shape[-1]
    if num_heads < 1 or dim % num_heads:
        raise ShapeError(f"feature width {dim} not divisible by {num_heads} heads")
    for w in ws:
        if w.shape != (dim, dim):
            raise ShapeError(f"attention projections must be [{dim}, {dim}], got {w.shape}")


def _attend(x: np.ndarray, ws: tuple[Tensor, Tensor, Tensor], num_heads: int,
            admissible: np.ndarray):
    """Forward of multi-head attention over the array ``x`` [..., n, D],
    evaluated for the first m query rows of each sequence, where
    ``admissible`` is the boolean [m, n] mask: its rows are the query rows.

    K and V cover every row. Returns the output rows [rows, D] (m per
    sequence, heads side by side), the weights [..., H, m, n] and the VJP:
    ``vjp(g, x)`` maps the gradient of the output rows to (dx rows, dWq,
    dWk, dWv); dx reaches every row through K and V and the query rows
    through Q as well. The VJP keeps no reference to ``x``, so the caller
    passes it again (``divide_attention`` rebuilds it). It does keep the
    output rows: the softmax's row term sum_j p_ij (g V^T)_ij equals
    g_i . o_i with o = p V, a product over the head width instead of a pass
    over the scores, so the caller must not write into them.
    """
    *lead, n, dim = x.shape
    m = len(admissible)
    head_dim = dim // num_heads
    c = 1.0 / math.sqrt(head_dim)

    def split(a, length):  # [rows, D] -> [..., H, length, D/H], a view
        return a.reshape(*lead, length, num_heads, head_dim).swapaxes(-2, -3)

    def operands(x):  # the query rows and all rows of x, [rows, D] each
        return x[..., :m, :].reshape(-1, dim), x.reshape(-1, dim)

    wq, wk, wv = ws
    q_rows, rows = operands(x)
    q = split(q_rows @ wq.data, m) * c
    k = split(rows @ wk.data, n)
    v = split(rows @ wv.data, n)
    # against a contiguous copy of K^T the score GEMM takes about half the time
    p = _softmax_forward(q @ np.ascontiguousarray(k.swapaxes(-1, -2)), admissible)
    out = np.empty(q_rows.shape)
    o = np.matmul(p, v, out=split(out, m))

    def vjp(g, x):
        q_rows, rows = operands(x)
        g = split(g, m)
        gp = g @ np.ascontiguousarray(v.swapaxes(-1, -2))
        ds = _softmax_vjp(p, gp, np.einsum("...i,...i->...", g, o)[..., None])
        dq, dk, dv = np.empty(q_rows.shape), np.empty(rows.shape), np.empty(rows.shape)
        np.matmul(ds, k, out=split(dq, m))
        dq *= c
        np.matmul(ds.swapaxes(-1, -2), q, out=split(dk, n))
        np.matmul(p.swapaxes(-1, -2), g, out=split(dv, n))
        # K, then Q on the query rows, then V: the bits of (Q + K) + V at m = n
        dx = dk @ wk.data.T
        dx.reshape(*lead, n, dim)[..., :m, :] += (dq @ wq.data.T).reshape(*lead, m, dim)
        dx += dv @ wv.data.T
        return dx, q_rows.T @ dq, rows.T @ dk, rows.T @ dv

    return out, p, vjp


def conquer_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over the sequence ``x``
    [n, D], pooled by the mean over its rows, one tape op.

    The projections ``wq``, ``wk`` and ``wv`` are [D, D]; head h uses columns
    [h*D/H, (h+1)*D/H) of each. Q is scaled by 1/sqrt(D/H) before the scores
    are formed, and the scores go through the softmax (``_softmax_forward``)
    under an all-admitting [n, n] mask. The attention output has the heads
    side by side along the feature axis and no output projection; the op
    returns its mean over the n rows, [1, D].

    The tape keeps only the [H, n, n] weights (the node's ``weights``), the
    per-head Q, K and V and the unpooled output, and the backward is written
    out by hand: each row gets 1/n of the pooled row's gradient, then the
    input gradient, and one GEMM over all rows for each projection gradient.
    """
    ws = (wq, wk, wv)
    _check_attention(x, ws, num_heads)
    n = x.shape[0]
    out, p, vjp = _attend(x.data, ws, num_heads, np.ones((n, n), dtype=bool))

    def bw(g):
        return vjp(np.broadcast_to(g / n, x.shape).copy(), x.data)

    return _record("conquer_attention", (x, *ws), out.mean(axis=0, keepdims=True), bw, (p,))


def divide_attention(frames: Tensor, video: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                     num_heads: int, admissible: np.ndarray) -> tuple[Tensor, Tensor | None]:
    """The divide stage of one video as one tape op.

    ``admissible`` is the boolean mask of a full clip of L frames: its L + 1
    columns fix L, and its rows are the query rows evaluated, all of them
    ([L + 1, L + 1]) or row 0 alone ([1, L + 1]); K and V always cover every
    position. ``frames`` [n, D] are cut into consecutive clips of L frames;
    the last clip keeps the remainder and is never padded. Each clip c runs
    as the sequence [video; frames of c] (``video`` is [1, D]) through the
    multi-head attention of ``conquer_attention``, unpooled and masked. A
    shorter last clip of m frames uses the leading block of m + 1 columns
    and up to m + 1 rows. The mask must admit position 0, the video row, in
    every row, so no row of any block is empty; ``ShapeError`` names any
    other shape, a wrong dtype or the first row without it. The input
    sequence is added back (residual). Returns the clip embeddings [C, D]
    (position 0 of each clip's output, the clip row) and the updated frames
    [n, D]. The one-row mask forms only the clip rows: the op records the
    clip embeddings as its one output and returns None for the frames. The
    model uses it for its final layer, whose updated frames reach neither
    the score nor the loss; the clip embeddings agree with the full op's to
    rounding.

    All full-length clips run as one batch and a shorter last clip as a
    second one; the backward sums the two batches' projection gradients and
    scatters the input gradient back to the frames and the video row. The
    tape keeps each batch's [clips, H, m, L] weights (the node's ``weights``)
    and attention output before the residual; the backward rebuilds the
    ``[video; clip]`` sequences from the inputs.
    """
    ws = (wq, wk, wv)
    _check_attention(frames, ws, num_heads)
    if video.shape != (1, frames.shape[1]):
        raise ShapeError(f"divide_attention needs frames [n, D] and video [1, D], got "
                         f"{frames.shape} and {video.shape}")
    if (not isinstance(admissible, np.ndarray) or admissible.dtype != bool
            or admissible.ndim != 2 or admissible.shape[1] < 2
            or len(admissible) not in (1, admissible.shape[1])):
        raise ShapeError(f"mask must be a boolean [L + 1, L + 1] array or its first row "
                         f"[1, L + 1] for clips of L >= 1 frames, got "
                         f"{getattr(admissible, 'dtype', type(admissible).__name__)} "
                         f"{np.shape(admissible)}")
    clip_len = admissible.shape[1] - 1
    if not admissible[:, 0].all():
        raise ShapeError(f"mask row {int(np.argmin(admissible[:, 0]))} does not admit "
                         f"position 0, the video row")
    n, dim = frames.shape
    full = n - n % clip_len
    batches = []  # (first frame, end frame, frames per clip, clips, query rows, vjp)
    clip_out, weights, frames_out = [], [], None if len(admissible) == 1 else np.empty((n, dim))

    def sequences(start, stop, length):  # [video; clip] for each clip, [clips, length + 1, D]
        x = np.empty(((stop - start) // length, length + 1, dim))
        x[:, 0] = video.data
        x[:, 1:] = frames.data[start:stop].reshape(len(x), length, dim)
        return x

    for start, stop, length in ((0, full, clip_len), (full, n, n - full)):
        if stop == start:
            continue
        x = sequences(start, stop, length)
        out, p, vjp = _attend(x, ws, num_heads, admissible[:length + 1, :length + 1])
        clips, m = p.shape[0], p.shape[-2]
        weights.append(p)
        # the residual goes into new arrays: the vjp keeps ``out``
        out = out.reshape(clips, m, dim)
        clip_out.append(out[:, 0] + x[:, 0])
        if frames_out is not None:
            np.add(out[:, 1:], x[:, 1:], out=frames_out[start:stop].reshape(clips, length, dim))
        batches.append((start, stop, length, clips, m, vjp))
    clips_out = np.concatenate(clip_out)

    def bw(g_clips, g_frames=None):
        d_frames, d_video, d_ws = np.empty((n, dim)), None, [None, None, None]
        first = len(clips_out)
        for start, stop, length, clips, m, vjp in reversed(batches):
            first -= clips
            g = np.empty((clips, m, dim))
            g[:, 0] = g_clips[first:first + clips]
            if g_frames is not None:
                g[:, 1:] = g_frames[start:stop].reshape(clips, length, dim)
            dx, *dw = vjp(g.reshape(-1, dim), sequences(start, stop, length))
            d_ws = [b if a is None else a + b for a, b in zip(d_ws, dw)]
            dx = dx.reshape(clips, length + 1, dim)
            dx[:, :m] += g  # the residual path
            d_frames[start:stop] = dx[:, 1:].reshape(-1, dim)
            row = dx[:, 0].sum(axis=0, keepdims=True)
            d_video = row if d_video is None else d_video + row
        return (d_frames, d_video, *d_ws)

    outputs = (clips_out,) if frames_out is None else (clips_out, frames_out)
    return (*_record_many("divide_attention", (frames, video, *ws), outputs, bw,
                          tuple(weights)), None)[:2]


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class ParameterGradCheck:
    name: str
    max_rel_error: float
    checked: int
    flagged_nonsmooth: int


@dataclass
class GradCheckReport:
    per_parameter: list[ParameterGradCheck] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((p.max_rel_error for p in self.per_parameter), default=0.0)

    def passes(self, tol: float) -> bool:
        return self.max_rel_error <= tol


def gradient_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                   h: float = 1e-5) -> GradCheckReport:
    """Compare the gradients that ``backward(loss, graph, params)`` returns
    for ``loss = f()`` against central differences.

    ``f`` must be deterministic and return a scalar tensor built from
    ``params``. Relative error per coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8). Coordinates where the one-sided
    difference quotients disagree by more than 1e-2 relative (kinks, e.g.
    |x| at 0) are flagged as non-smooth and excluded from the error maximum.
    """
    if not 0 < h < math.inf:  # NaN fails too
        raise ValueError(f"step h must be positive and finite, got {h}")
    with Graph() as graph:
        loss = f()
    f0 = loss.item()
    if not math.isfinite(f0):
        raise FloatingPointError(f"objective is non-finite: {f0}")
    analytic = [g.reshape(-1) for g in backward(loss, graph, params)]  # C order, as ``flat``

    report = GradCheckReport()
    for idx, p in enumerate(params):
        worst = 0.0
        flagged = 0
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError(f"objective non-finite while perturbing "
                                         f"{p.name or idx}[{i}]")
            right = (f_plus - f0) / h
            left = (f0 - f_minus) / h
            if abs(right - left) > 1e-2 * max(1.0, abs(right), abs(left)):
                flagged += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[idx][i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.per_parameter.append(
            ParameterGradCheck(p.name or f"param{idx}", worst, flat.size, flagged))
    return report
