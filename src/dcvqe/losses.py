"""Training losses: L1, the rank-correlation penalty, and a pairwise baseline.

The correlation penalty rewards predictions whose deviations from the batch
mean agree in sign with the ground-truth deviations; it is an unnormalized
Spearman-style order constraint, in the mean-deviation form
N * sum_n max(0, -(p_n - mean(p)) * (g_n - mean(g))), which equals the
double-sum anchor form of the definition algebraically. It is zero exactly
whenever p is a positive affine transform of g. The N prefactor makes the
term scale with batch size; tune its weight per batch size. The pairwise
baseline averages log(1 + exp(-sign(g_n - g_m) * (p_n - p_m))) over the
ordered pairs with g_n != g_m.

``total_loss`` is one tape node with a numpy forward and one hand-written
VJP per term; its inputs are the predictions, whose rows it joins, and
the ground truths are constants. For an incoming gradient c the VJPs are
L1 (c * alpha / N) * sign(p - g); correlation h - mean(h) with
h = (c * beta * N) * [hinge > 0] * -(g - mean(g)), the mean coming through
the prediction mean; pwrl, over the P untied pairs (n, m), the pair
gradients d = (c * beta / P) * sigmoid(z) * s, each added to n's gradient
and subtracted from m's by ``np.bincount`` (no [P, N] pair selector is
built). Each input gets its rows of the gradient. A batch
without an untied pair (one video, or every ground truth tied) has nothing
to rank: its pwrl term is 0 with a zero gradient, as the correlation term
is for one video. The order term's gradient comes first and the L1
gradient is added to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


VARIANTS = ("correlation", "pwrl", "l1")


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.7   # weight of the L1 term
    beta: float = 0.3    # weight of the order-constraint term
    variant: str = "correlation"

    def __post_init__(self):
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):  # NaN fails too
            raise ValueError(f"loss weights must be finite and >= 0, got alpha={self.alpha}, "
                             f"beta={self.beta}")
        if self.alpha + self.beta <= 0:
            raise ValueError("alpha + beta must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}, expected one of {VARIANTS}")


def _column(x, what: str) -> np.ndarray:
    a = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if a.ndim > 2 or a.ndim == 2 and a.shape[1] != 1:
        raise ad.ShapeError(f"{what} must be vectors, got shape {a.shape}")
    return a.reshape(-1, 1)


def _mean(a: np.ndarray) -> np.float64:
    """``a.mean()``, or the sum of each entry divided by the count when that
    sum overflows although every entry is finite."""
    with np.errstate(over="ignore"):
        mean = a.mean()
    return (a / a.size).sum() if np.isinf(mean) and np.isfinite(a).all() else mean


# Each term returns its value, times its weight, and its VJP.
def _l1_term(p: np.ndarray, g: np.ndarray, alpha: float):
    diff = p - g
    sign = np.sign(diff)

    def vjp(c):
        return (c.item() * alpha / p.size) * sign

    return _mean(np.abs(diff)) * alpha, vjp


def _correlation_term(p: np.ndarray, g: np.ndarray, beta: float):
    dev_g = g - _mean(g)
    hinge = (p - _mean(p)) * dev_g * -1.0

    def vjp(c):
        h = (c.item() * beta * p.size) * (hinge > 0) * -dev_g
        return h - h.mean()

    return np.maximum(hinge, 0.0).sum() * float(p.size) * beta, vjp


def _pairwise_term(p: np.ndarray, g: np.ndarray, beta: float):
    gv = g.reshape(-1)
    a, b = np.nonzero(gv[:, None] != gv[None, :])  # untied pairs in row-major order
    if not a.size:  # one video, or every ground truth tied: nothing to rank
        return np.float64(0.0), lambda c: np.zeros(p.shape)
    neg_sign = -np.sign(gv[a] - gv[b]).reshape(-1, 1)
    z = (p[a] - p[b]) * neg_sign
    # softplus as max(z, 0) + log1p(exp(-|z|)) and its derivative: no exp overflows
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    sigmoid = 1.0 / (1.0 + np.exp(-np.clip(z, -700, 700)))

    def vjp(c):
        d = ((c.item() * beta / a.size) * sigmoid * neg_sign).ravel()
        return (np.bincount(a, d, len(p)) - np.bincount(b, d, len(p))).reshape(-1, 1)

    return _mean(softplus) * beta, vjp


def total_loss(p, g, cfg: LossConfig) -> Tensor:
    """Weighted combination alpha * L1 + beta * order term (per variant), as
    one tape node whose inputs are the ``Tensor``s among the predictions.

    ``p`` is one vector ([N] or [N, 1]) or a list or tuple of scores or
    vectors, joined in order; ``g`` is a vector of the same length N >= 1.
    The order term is left out when ``beta`` is 0 or the variant is "l1",
    and the L1 term when ``alpha`` is 0, unless it is then the only term.
    """
    items = p if isinstance(p, (list, tuple)) else [p]
    cols = [_column(x, "predictions") for x in items]
    gv = _column(g, "ground truths")
    bounds = np.cumsum([0] + [len(c) for c in cols])
    if bounds[-1] != len(gv) or not bounds[-1]:
        raise ad.ShapeError(f"the loss needs N >= 1 predictions and N ground truths, got "
                            f"{bounds[-1]} and {len(gv)}")
    pv = np.concatenate(cols)
    order = cfg.variant != "l1" and cfg.beta > 0
    terms = []
    if cfg.alpha > 0 or not order:
        terms.append(_l1_term(pv, gv, float(cfg.alpha)))
    if order:
        term = _correlation_term if cfg.variant == "correlation" else _pairwise_term
        terms.append(term(pv, gv, float(cfg.beta)))
    values, vjps = zip(*terms)

    def bw(c):  # the order term's gradient first, then the L1 gradient added
        grads = [vjp(c) for vjp in reversed(vjps)]
        grad = sum(grads[1:], grads[0])
        return tuple(grad[start:stop] for x, start, stop in zip(items, bounds, bounds[1:])
                     if isinstance(x, Tensor))

    inputs = tuple(x for x in items if isinstance(x, Tensor))
    return ad._record("total_loss", inputs, sum(values[1:], values[0]), bw)
