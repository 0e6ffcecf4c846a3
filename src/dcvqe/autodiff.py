"""Dense float64 tensors with taped reverse-mode automatic differentiation.

All model, loss, and metric math in this package runs on these primitives.
A ``Graph`` records every operation executed inside its context; ``backward``
replays the tape in reverse to populate leaf gradients. ``gradient_check``
compares analytic gradients against central finite differences and is the
ground truth the rest of the package is validated against.

Broadcasting is deliberately restricted to scalar-with-tensor and
same-shape operands, with two exceptions: ``matmul`` broadcasts leading
(batch) axes, and the mask of ``softmax_masked`` broadcasts to the logits.
Anything else needs an explicit reshape or gather. Every backward rule sums
its gradient back to the shape of its input, so each stays a few lines and
auditable.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(ValueError):
    """Backward invoked with a non-scalar loss, or a malformed tape."""


class DegenerateMaskError(ValueError):
    """A softmax mask admits no positions in at least one row."""


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    ``data`` is always a C-contiguous (row-major) float64 ndarray, so the
    flat buffer is the row-major enumeration of the logical array. ``grad``
    is filled in by ``backward`` for tensors with ``requires_grad`` and has
    the same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def as_tensor(x, requires_grad: bool = False) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=requires_grad)


@dataclass
class Node:
    """One recorded operation: inputs, output, and its vector-Jacobian rule."""

    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], tuple]
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


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    graph = _active_graph()
    if graph is not None and out.requires_grad:
        graph.nodes.append(Node(inputs, out, backward_fn, op))
    return out


def backward(loss: Tensor, graph: Graph) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Intermediate gradients live only inside this call; leaf gradients
    accumulate across calls, so running backward twice on the same graph
    yields exactly twice the single-pass gradient. A graph with no recorded
    nodes is a no-op.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced = {id(n.output) for n in graph.nodes}
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for node in reversed(graph.nodes):
        grad_out = flowing.pop(id(node.output), None)
        if grad_out is None:
            continue
        for tensor, grad in zip(node.inputs, node.backward_fn(grad_out)):
            if grad is None or not tensor.requires_grad:
                continue
            grad = np.asarray(grad, dtype=np.float64).reshape(tensor.shape)
            held = flowing.get(id(tensor))
            flowing[id(tensor)] = grad if held is None else held + grad
            if id(tensor) not in produced:
                leaves[id(tensor)] = tensor
    # one accumulation per leaf per pass, so repeated backward scales exactly
    for tid, tensor in leaves.items():
        total = flowing[tid]
        tensor.grad = total.copy() if tensor.grad is None else tensor.grad + total


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient over the axes its operand was broadcast along."""
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape) if axes else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    out = None
    if a.data.ndim >= 2 and b.data.ndim >= 2:
        with contextlib.suppress(ValueError):  # inner sizes or leading axes disagree
            out = a.data @ b.data
    if out is None:
        raise ShapeError(f"matmul needs [...,m,k] @ [...,k,n] with broadcastable leading "
                         f"axes, got {a.shape} and {b.shape}")

    def bw(g):
        ga = _sum_to(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = _sum_to(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return _record("matmul", (a, b), out, bw)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes of ``x``: output axis i is input axis ``axes[i]``."""
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation for shape {x.shape}")
    inverse = tuple(np.argsort(axes))
    return _record("transpose", (x,), np.transpose(x.data, axes),
                   lambda g: (np.transpose(g, inverse),))


def _binary_kind(a: Tensor, b: Tensor, op: str) -> None:
    # only same-shape or scalar-with-tensor; anything else is a contract error
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{op} supports same-shape or scalar operands, got {a.shape} and {b.shape}")


def _reduce_to(g: np.ndarray, t: Tensor) -> np.ndarray:
    if g.shape == t.shape:
        return g
    return np.asarray(g.sum()).reshape(t.shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_kind(a, b, "add")

    def bw(g):
        return (_reduce_to(g, a) if a.requires_grad else None,
                _reduce_to(g, b) if b.requires_grad else None)

    return _record("add", (a, b), a.data + b.data, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_kind(a, b, "sub")

    def bw(g):
        return (_reduce_to(g, a) if a.requires_grad else None,
                -_reduce_to(g, b) if b.requires_grad else None)

    return _record("sub", (a, b), a.data - b.data, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_kind(a, b, "mul")

    def bw(g):
        return (_reduce_to(g * b.data, a) if a.requires_grad else None,
                _reduce_to(g * a.data, b) if b.requires_grad else None)

    return _record("mul", (a, b), a.data * b.data, bw)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record("scale", (x,), x.data * c, lambda g: (g * c,))


def mean_axis(x: Tensor, axis: int | None = None) -> Tensor:
    """Mean over one axis (keepdims) or over all entries (axis=None, scalar)."""
    if axis is None:
        n = x.size
        out = x.data.mean()

        def bw(g):
            return (np.full(x.shape, np.asarray(g).item() / n),)
    else:
        if not -x.data.ndim <= axis < x.data.ndim:
            raise ShapeError(f"mean_axis axis {axis} out of range for shape {x.shape}")
        n = x.shape[axis]
        out = x.data.mean(axis=axis, keepdims=True)

        def bw(g):
            return (np.broadcast_to(g / n, x.shape).copy(),)

    return _record("mean_axis", (x,), out, bw)


def max0(x: Tensor) -> Tensor:
    """Rectifier max(0, x). Subgradient at 0 is defined as 0."""
    pos = x.data > 0
    return _record("max0", (x,), np.maximum(x.data, 0.0), lambda g: (g * pos,))


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at the kink."""
    sign = np.sign(x.data)
    return _record("absolute", (x,), np.abs(x.data), lambda g: (g * sign,))


def sum_all(x: Tensor) -> Tensor:
    out = np.float64(x.data.sum())
    return _record("sum_all", (x,), out, lambda g: (np.full(x.shape, np.asarray(g).item()),))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed in the overflow-safe split form."""
    z = x.data
    out = np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))), np.log1p(np.exp(z)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -700, 700)))
    return _record("softplus", (x,), out, lambda g: (g * sig,))


def softmax_masked(logits: Tensor, admissible: np.ndarray) -> Tensor:
    """Softmax along the last axis over the admitted entries of the logits.

    ``admissible`` is a boolean mask that broadcasts to the logits (one
    [n, m] mask serves every clip and head of a batch). Masked entries are
    exactly 0 in the output and receive exactly zero gradient; every row
    renormalizes over its admitted set. A row with no admitted entry is a
    contract violation.
    """
    admissible = np.asarray(admissible, dtype=bool)
    try:
        fits = np.broadcast_shapes(admissible.shape, logits.shape) == logits.shape
    except ValueError:
        fits = False
    if not fits or logits.data.ndim < 1:
        raise ShapeError(f"mask shape {admissible.shape} does not broadcast to logits shape "
                         f"{logits.shape}")
    rows_ok = admissible.any(axis=-1).reshape(-1)
    if not rows_ok.all():
        raise DegenerateMaskError(f"mask admits no positions in row {int(np.argmin(rows_ok))}")
    z = np.where(admissible, logits.data, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)  # exp(-inf) == 0.0, so masked entries are exact zeros
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax_masked", (logits,), y, bw)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows needs at least one tensor")
    for t in parts:
        if t.data.ndim != 2 or t.shape[1] != parts[0].shape[1]:
            raise ShapeError(f"concat_rows needs 2-d tensors with equal widths, got "
                             f"{[p.shape for p in parts]}")
    out = np.concatenate([t.data for t in parts], axis=0)
    sizes = [t.shape[0] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(g[offsets[i]:offsets[i + 1]] if parts[i].requires_grad else None
                     for i in range(len(parts)))

    return _record("concat_rows", tuple(parts), out, bw)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"slice_rows needs a 1-d or 2-d tensor, got {x.shape}")
    if not 0 <= start < stop <= x.shape[0]:
        raise ShapeError(f"row slice [{start}:{stop}] out of range for shape {x.shape}")
    out = x.data[start:stop]

    def bw(g):
        full = np.zeros(x.shape)
        full[start:stop] = g
        return (full,)

    return _record("slice_rows", (x,), out, bw)


def take(x: Tensor, index: np.ndarray) -> Tensor:
    """Gather rows: the output is ``x[index]``, of shape index.shape + x.shape[1:].

    Indices may repeat; the gradient of a repeated row is the sum over its
    copies.
    """
    index = np.asarray(index)
    if x.data.ndim < 1 or index.dtype.kind not in "iu":
        raise ShapeError(f"take needs a tensor with rows and integer indices, got shape "
                         f"{x.shape} and index dtype {index.dtype}")
    if index.size and not (0 <= index.min() and index.max() < x.shape[0]):
        raise ShapeError(f"take index out of range for {x.shape[0]} rows")

    def bw(g):
        full = np.zeros(x.shape)
        np.add.at(full, index, g)
        return (full,)

    return _record("take", (x,), x.data[index], bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)
    return _record("reshape", (x,), out, lambda g: (g.reshape(x.shape),))


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
                   h: float = 1e-5, kink_tol: float = 1e-2) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be deterministic and return a scalar tensor built from
    ``params``. Relative error per coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8). Coordinates where the one-sided
    difference quotients disagree (kinks, e.g. |x| at 0) are flagged as
    non-smooth and excluded from the error maximum.
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
            if abs(right - left) > kink_tol * max(1.0, abs(right), abs(left)):
                flagged += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[idx].reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.per_parameter.append(
            ParameterGradCheck(p.name or f"param{idx}", worst, flat.size, flagged))
    return report
