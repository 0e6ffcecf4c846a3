"""Dense float64 tensors with taped reverse-mode automatic differentiation.

All model, loss, and metric math in this package runs on these primitives.
A ``Graph`` records every operation executed inside its context, and no
tensor opts out; ``backward`` replays the tape in reverse to populate the
gradient of every leaf it reaches. Code that must stay off a caller's tape
runs inside a graph of its own. ``gradient_check`` compares analytic
gradients against central finite differences and is the ground truth the
rest of the package is validated against.

The tape keeps only the ops that the model, the losses and gradient
checking use, each one node with a hand-written backward: ``linear``,
``positional``, ``divide_attention``, ``conquer_attention`` and
``concat_rows`` here, and the loss node that ``losses.total_loss`` records
through ``_record``. ``linear`` is the one matrix product. It keeps a
float32 ``x`` as it is: its float64 copy lives only inside the forward GEMM,
and the weight gradient widens it one column block at a time. ``backward``
sums the gradients that reach one tensor in place, in arrays that it
allocated itself.

The attention ops share their projection, softmax and backward code.
``conquer_attention`` is unmasked multi-head scaled dot-product attention
over one sequence (projections, softmax and weighted sum), pooled by the
mean over its rows. ``divide_attention`` is the whole divide stage of one
video: it cuts the frames into clips, runs every ``[video; clip]``
sequence through the same attention, masked, adds the residual, and
returns two tensors, the clip embeddings and the updated frames (a node
may have several outputs). It checks once, at entry, that its mask admits
the video row in every row, so the masked softmax checks nothing. That
softmax has one forward and one backward rule (``_softmax_forward``,
``_softmax_vjp``). When every logit lies within ``_EXP_SAFE`` of zero, the
forward skips the row max and differs from the shifted formula by rounding
only; otherwise it takes the row max and the exponential over the admitted
entries only, bit-identical to exponentiating ``-inf``. Masked entries are
exact zeros and get exactly zero gradient. The backward takes the softmax's
row term from the output rows (g . o per row and head) rather than from the
scores. With ``clip_rows_only``, ``divide_attention`` evaluates query row 0
of each clip alone and returns only the clip embeddings; the model uses it
for its final layer, whose updated frames nothing reads. ``gradient_check``
checks the fused ops like every other op.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(ValueError):
    """Backward invoked with a non-scalar loss, or a malformed tape."""


class Tensor:
    """A dense float64 array and the gradient that ``backward`` gives it.

    ``data`` is always a C-contiguous (row-major) float64 ndarray, so the
    flat buffer is the row-major enumeration of the logical array. ``grad``
    is filled in by ``backward`` for every leaf it reaches, has the same
    shape as ``data`` and is C-contiguous too, whatever the memory order of
    the gradients that flowed into it (``linear`` produces F-ordered ones).
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str = ""):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


@dataclass
class Node:
    """One recorded operation: inputs, outputs, and its vector-Jacobian rule.

    ``backward_fn`` takes one gradient per output (zeros for an output the
    loss does not reach) and returns one gradient per input.
    """

    inputs: tuple[Tensor, ...]
    outputs: tuple[Tensor, ...]
    backward_fn: Callable[..., tuple]
    op: str


_graph_stack = threading.local()


def _active_graph() -> "Graph | None":
    stack = getattr(_graph_stack, "stack", None)
    return stack[-1] if stack else None


class Graph:
    """Tape of recorded operations, replayed in reverse by ``backward``.

    Use as a context manager around a forward pass. A graph and the
    intermediate tensors it records are confined to one thread; distinct
    graphs may run concurrently on distinct threads.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        stack = getattr(_graph_stack, "stack", None)
        if stack is None:
            stack = []
            _graph_stack.stack = stack
        stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _graph_stack.stack.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def _record_many(op: str, inputs: tuple[Tensor, ...], out_data: tuple[np.ndarray, ...],
                 backward_fn: Callable[..., tuple]) -> tuple[Tensor, ...]:
    outs = tuple(Tensor(d) for d in out_data)
    graph = _active_graph()
    if graph is not None:
        graph.nodes.append(Node(inputs, outs, backward_fn, op))
    return outs


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    return _record_many(op, inputs, (out_data,), backward_fn)[0]


def backward(loss: Tensor, graph: Graph) -> None:
    """Populate ``grad`` on every leaf reachable from ``loss``: every input
    of a recorded op that no recorded op produced.

    Intermediate gradients live only inside this call; leaf gradients
    accumulate across calls, so running backward twice on the same graph
    yields exactly twice the single-pass gradient. Each leaf's ``grad`` is
    C-contiguous. A graph with no recorded nodes is a no-op.

    When a second gradient reaches a tensor, the engine allocates the sum
    and adds every later one into it in place, so a weight that every video
    of a batch uses costs one buffer, not one per video. The sum keeps the
    memory order of its terms: adding F-ordered gradients into a C-ordered
    buffer costs several times a contiguous add. It never adds into an
    array that a rule returned: a rule may hand the same array to several
    inputs. A leaf whose total is such an engine-owned sum, C-ordered, takes
    it as its ``grad`` without a copy.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced = {id(out) for n in graph.nodes for out in n.outputs}
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()  # tensors whose flowing sum this call allocated
    leaves: dict[int, Tensor] = {}
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
            if tid not in produced:
                leaves[tid] = tensor
    # one accumulation per leaf per pass, so repeated backward scales exactly
    for tid, tensor in leaves.items():
        total = flowing[tid]
        if tensor.grad is not None:
            tensor.grad = np.add(tensor.grad, total, order="C")
        else:
            tensor.grad = total if tid in owned and total.flags.c_contiguous else total.copy()


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

# Columns of ``x`` widened at a time in ``linear``'s weight gradient. Measured
# at 4096 input columns: one backward over 600 rows peaks at 9.7 MB with 1024
# (14.6 MB with 2048, 24.5 MB unblocked); 512 saves 0.7 MB more, but the
# weight gradient of 300 rows then takes 9.2 ms against 8.3 ms (7.6 unblocked).
WGRAD_COLS = 1024


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """``x`` [S, K] @ ``w`` [K, N] plus the bias row ``b`` [1, N], one node.

    ``x`` is a ``Tensor`` (its gradient is ``g @ w.T``) or an array, kept as
    given and never differentiated: float32 rows stay float32 on the tape and
    are widened to float64 whole only inside the forward GEMM. The weight
    gradient is formed as ``(g.T @ x).T``, which BLAS computes with the bits
    of ``x.T @ g`` in about half the time at the input projection's
    [S, 4096] x [4096, 128] shape. It is computed into one [N, K] buffer,
    ``WGRAD_COLS`` columns of ``x`` at a time, and only that block is
    widened; each element is still one GEMM sum over the S rows. With
    OpenBLAS on x86-64 that equals one whole GEMM bit for bit when K fits in
    one block or is a multiple of 8; at other widths the last bit can differ,
    as BLAS picks other kernels for a narrow block. The result is F-ordered,
    and ``backward`` returns leaf gradients in C order. The bias gradient
    sums ``g`` over its rows."""
    is_tensor = isinstance(x, Tensor)
    rows = x.data if is_tensor else x
    if (np.ndim(rows) != 2 or w.data.ndim != 2 or rows.shape[1] != w.shape[0]
            or b.shape != (1, w.shape[1])):
        raise ShapeError(f"linear needs x [S, K], w [K, N] and b [1, N], got "
                         f"{np.shape(rows)}, {w.shape} and {b.shape}")

    out = np.ascontiguousarray(rows, dtype=np.float64) @ w.data
    out += b.data

    def weight_grad(g):
        buf = np.empty((g.shape[1], rows.shape[1]))
        for start in range(0, rows.shape[1], WGRAD_COLS):
            cols = slice(start, start + WGRAD_COLS)
            np.matmul(g.T, np.ascontiguousarray(rows[:, cols], dtype=np.float64),
                      out=buf[:, cols])
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


def _softmax_forward(z: np.ndarray, admissible: np.ndarray | None) -> np.ndarray:
    """Masked softmax along the last axis, computed in place on the float
    array ``z``, which is returned. ``admissible``, unchecked, is a boolean
    array that broadcasts to ``z`` and admits an entry in every row (see
    ``divide_attention``); None admits every entry.

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
        if admissible is not None:
            z *= admissible
        # row sums by a GEMV, several times faster than a row reduction
        z *= np.reciprocal(z @ np.ones(z.shape[-1]))[..., None]
        return z
    if admissible is not None:
        # exp(-inf) costs several times a finite exp, so masked entries are
        # skipped and then set to exact zeros
        z -= z.max(axis=-1, keepdims=True, where=admissible, initial=-np.inf)
        np.exp(z, out=z, where=admissible)
        np.copyto(z, 0.0, where=~admissible)
    else:
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
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
            admissible: np.ndarray | None, first_row_only: bool = False):
    """Forward of multi-head attention over the array ``x`` [..., n, D].

    Returns the output rows [rows, D] (heads side by side), the weights
    [..., H, m, n] and the VJP: ``vjp(g, x)`` maps the gradient of the
    output rows to (dx rows, dWq, dWk, dWv). The VJP keeps no reference to
    ``x``, so the caller passes it again (``divide_attention`` rebuilds it). It
    does keep the output rows: the softmax's row term sum_j p_ij (g V^T)_ij
    equals g_i . o_i with o = p V, a product over the head width instead of
    a pass over the scores, so the caller must not write into them. With
    ``first_row_only`` only query row 0 of each sequence is evaluated
    (m = 1): K and V still cover every row, the output is that row alone,
    one per sequence, and dx reaches every row through K and V and row 0
    through Q as well. Otherwise m = n. ``admissible`` is the [m, n] mask.
    """
    *lead, n, dim = x.shape
    head_dim = dim // num_heads
    c = 1.0 / math.sqrt(head_dim)
    m = 1 if first_row_only else n

    def split(a, length):  # [rows, D] -> [..., H, length, D/H], a view
        return a.reshape(*lead, length, num_heads, head_dim).swapaxes(-2, -3)

    def operands(x):  # the query rows and all rows of x, [rows, D] each
        rows = x.reshape(-1, dim)
        return (x[..., 0, :].reshape(-1, dim) if first_row_only else rows), rows

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
        if first_row_only:  # the full rule's sum order, with dq zero off row 0
            dx = dk @ wk.data.T
            row0 = dx.reshape(*lead, n, dim)[..., 0, :]
            row0 += (dq @ wq.data.T).reshape(row0.shape)
            dx += dv @ wv.data.T
        else:
            dx = dq @ wq.data.T + dk @ wk.data.T + dv @ wv.data.T
        return dx, q_rows.T @ dq, rows.T @ dk, rows.T @ dv

    return out, p, vjp


def conquer_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, num_heads: int,
                      sink: list[np.ndarray] | None = None) -> Tensor:
    """Unmasked multi-head scaled dot-product attention over the sequence
    ``x`` [n, D], pooled by the mean over its rows, one tape op.

    The projections ``wq``, ``wk`` and ``wv`` are [D, D]; head h uses columns
    [h*D/H, (h+1)*D/H) of each. Q is scaled by 1/sqrt(D/H) before the scores
    are formed, and the scores go through the softmax (``_softmax_forward``)
    with every position admitted. ``sink`` receives the [H, n, n] weights.
    The attention output has the heads side by side along the feature axis
    and no output projection; the op returns its mean over the n rows, [1, D].

    The tape keeps only the attention weights, the per-head Q, K and V and
    the unpooled output, and the backward is written out by hand: each row
    gets 1/n of the pooled row's gradient, then the input gradient, and one
    GEMM over all rows for each projection gradient.
    """
    ws = (wq, wk, wv)
    _check_attention(x, ws, num_heads)
    out, p, vjp = _attend(x.data, ws, num_heads, None)
    if sink is not None:
        sink.append(p)

    def bw(g):
        return vjp(np.broadcast_to(g / x.shape[0], x.shape).copy(), x.data)

    return _record("conquer_attention", (x, *ws), out.mean(axis=0, keepdims=True), bw)


def divide_attention(frames: Tensor, video: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                     num_heads: int, clip_len: int, admissible: np.ndarray,
                     sink: list[np.ndarray] | None = None,
                     clip_rows_only: bool = False) -> tuple[Tensor, Tensor] | Tensor:
    """The divide stage of one video as one tape op with two outputs.

    ``frames`` [n, D] are cut into consecutive clips of ``clip_len`` frames;
    the last clip keeps the remainder and is never padded. Each clip c runs
    as the sequence [video; frames of c] (``video`` is [1, D]) through the
    multi-head attention of ``conquer_attention``, unpooled and masked with
    ``admissible``, the boolean [clip_len + 1, clip_len + 1] mask of a full
    clip; a shorter last clip of m frames uses the leading [m + 1, m + 1]
    block. The mask must admit position 0, the video row, in every row, so
    no row of any block is empty; ``ShapeError`` names a wrong shape or dtype
    or the first row without it. The input sequence is added back (residual).
    Returns the clip embeddings [C, D] (position 0 of each clip's output,
    the clip row) and the updated frames [n, D]. ``sink`` receives one
    [H, L, L] weight array per clip, in clip order.

    With ``clip_rows_only`` only the clip rows are evaluated: K and V still
    cover every position, but Q, the scores, the softmax and the output are
    formed for position 0 alone, the residual goes on that row, and the op
    returns the clip embeddings [C, D] as its single output (``sink`` then
    receives [H, 1, L] arrays). The model uses this for its final layer,
    whose updated frames reach neither the score nor the loss; the clip
    embeddings agree with the full op's to rounding.

    All full-length clips run as one batch and a shorter last clip as a
    second one; the backward sums the two batches' projection gradients and
    scatters the input gradient back to the frames and the video row. The
    tape keeps each batch's attention output before the residual, not its
    ``[video; clip]`` sequences, which the backward rebuilds from the inputs.
    """
    ws = (wq, wk, wv)
    _check_attention(frames, ws, num_heads)
    if video.shape != (1, frames.shape[1]):
        raise ShapeError(f"divide_attention needs frames [n, D] and video [1, D], got "
                         f"{frames.shape} and {video.shape}")
    if clip_len < 1:
        raise ShapeError(f"clip_len must be >= 1, got {clip_len}")
    size = clip_len + 1
    if (not isinstance(admissible, np.ndarray) or admissible.dtype != bool
            or admissible.shape != (size, size)):
        raise ShapeError(f"mask must be a boolean [{size}, {size}] array for clips of "
                         f"{clip_len} frames, got "
                         f"{getattr(admissible, 'dtype', type(admissible).__name__)} "
                         f"{np.shape(admissible)}")
    if not admissible[:, 0].all():
        raise ShapeError(f"mask row {int(np.argmin(admissible[:, 0]))} does not admit "
                         f"position 0, the video row")
    n, dim = frames.shape
    full = n - n % clip_len
    batches = []  # (first frame, end frame, frames per clip, clips, vjp)
    clip_out, frames_out = [], None if clip_rows_only else np.empty((n, dim))

    def sequences(start, stop, length):  # [video; clip] for each clip, [clips, length + 1, D]
        x = np.empty(((stop - start) // length, length + 1, dim))
        x[:, 0] = video.data
        x[:, 1:] = frames.data[start:stop].reshape(len(x), length, dim)
        return x

    for start, stop, length in ((0, full, clip_len), (full, n, n - full)):
        if stop == start:
            continue
        x = sequences(start, stop, length)
        clips = len(x)
        mask = admissible[:1 if clip_rows_only else length + 1, :length + 1]
        out, p, vjp = _attend(x, ws, num_heads, mask, first_row_only=clip_rows_only)
        if sink is not None:
            sink.extend(p)
        # the residual goes into new arrays: the vjp keeps ``out``
        if clip_rows_only:
            clip_out.append(out + x[:, 0])
        else:
            out = out.reshape(x.shape)
            clip_out.append(out[:, 0] + x[:, 0])
            np.add(out[:, 1:], x[:, 1:], out=frames_out[start:stop].reshape(clips, length, dim))
        batches.append((start, stop, length, clips, vjp))
    clips_out = np.concatenate(clip_out)

    def bw(g_clips, g_frames=None):
        d_frames, d_video, d_ws = np.empty((n, dim)), None, [None, None, None]
        first = len(clips_out)
        for start, stop, length, clips, vjp in reversed(batches):
            first -= clips
            if clip_rows_only:
                g = g_clips[first:first + clips]
            else:
                g = np.empty((clips, length + 1, dim))
                g[:, 0] = g_clips[first:first + clips]
                g[:, 1:] = g_frames[start:stop].reshape(clips, length, dim)
            dx, *dw = vjp(g.reshape(-1, dim), sequences(start, stop, length))
            d_ws = [b if a is None else a + b for a, b in zip(d_ws, dw)]
            dx = dx.reshape(clips, length + 1, dim)
            if clip_rows_only:
                dx[:, 0] += g  # the residual path, clip rows only
            else:
                dx += g  # the residual path
            d_frames[start:stop] = dx[:, 1:].reshape(-1, dim)
            row = dx[:, 0].sum(axis=0, keepdims=True)
            d_video = row if d_video is None else d_video + row
        return (d_frames, d_video, *d_ws)

    outputs = (clips_out,) if clip_rows_only else (clips_out, frames_out)
    recorded = _record_many("divide_attention", (frames, video, *ws), outputs, bw)
    return recorded[0] if clip_rows_only else recorded


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows needs at least one tensor")
    for t in parts:
        if t.data.ndim != 2 or t.shape[1] != parts[0].shape[1]:
            raise ShapeError(f"concat_rows needs 2-d tensors with equal widths, got "
                             f"{[p.shape for p in parts]}")
    out = np.concatenate([t.data for t in parts], axis=0)
    offsets = np.cumsum([0] + [t.shape[0] for t in parts])

    def bw(g):
        return tuple(g[start:stop] for start, stop in zip(offsets, offsets[1:]))

    return _record("concat_rows", tuple(parts), out, bw)


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
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be deterministic and return a scalar tensor built from
    ``params``. Relative error per coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8). Coordinates where the one-sided
    difference quotients disagree by more than 1e-2 relative (kinks, e.g.
    |x| at 0) are flagged as non-smooth and excluded from the error maximum.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    zero_grads(params)
    with Graph() as graph:
        loss = f()
    f0 = loss.item()
    if not math.isfinite(f0):
        raise FloatingPointError(f"objective is non-finite: {f0}")
    backward(loss, graph)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros(p.shape) for p in params]

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
            a = float(analytic[idx].reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.per_parameter.append(
            ParameterGradCheck(p.name or f"param{idx}", worst, flat.size, flagged))
    return report
