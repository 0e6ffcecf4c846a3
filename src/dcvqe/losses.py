"""Training losses: L1, the rank-correlation penalty, and a pairwise baseline.

The correlation penalty rewards predictions whose deviations from the batch
mean agree in sign with the ground-truth deviations; it is an unnormalized
Spearman-style order constraint, in the mean-deviation form, which equals
the double-sum anchor form of the definition algebraically.

``total_loss`` is one tape node with a numpy forward and one hand-written
VJP per term; the ground truths are constants. For an incoming gradient c
the VJPs sum in the order of the elementwise graph that the node replaced,
whose bits they keep: L1 (c * alpha / N) * sign(p - g); correlation
h = ((c * beta * N) * [hinge > 0]) * -1 * (g - mean(g)), then
h + (-sum(h) / N) through the prediction mean; pwrl
d = ((c * beta / P) * sigmoid(z)) * s over the P untied pairs, then
(d.T @ select).T with the [P, N] pair selector. A batch without an untied
pair (one video, or every ground truth tied) has nothing to rank: its pwrl
term is 0 with a zero gradient, as the correlation term is for one video.
The order term's gradient comes first and the L1 gradient is added to it.
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


def _vector(x, what: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if not (t.data.ndim == 1 or t.data.ndim == 2 and t.shape[1] == 1):
        raise ad.ShapeError(f"{what} must be a vector, got shape {t.shape}")
    return t


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
        return np.full(p.shape, (c * alpha).item() / p.size) * sign

    return _mean(np.abs(diff)) * alpha, vjp


def _correlation_term(p: np.ndarray, g: np.ndarray, beta: float):
    dev_g = g - _mean(g)
    hinge = (p - _mean(p)) * dev_g * -1.0

    def vjp(c):
        h = np.full(p.shape, (c * beta * float(p.size)).item()) * (hinge > 0) * -1.0 * dev_g
        return h + np.full(p.shape, -h.sum() / p.size)

    return np.maximum(hinge, 0.0).sum() * float(p.size) * beta, vjp


def _pairwise_term(p: np.ndarray, g: np.ndarray, beta: float):
    gv = g.reshape(-1)
    a, b = np.nonzero(gv[:, None] != gv[None, :])  # untied pairs in row-major order
    if not a.size:  # one video, or every ground truth tied: nothing to rank
        return np.float64(0.0), lambda c: np.zeros(p.shape)
    select = np.zeros((a.size, len(p)))  # +1 at n and -1 at m in the row of pair (n, m)
    rows = np.arange(a.size)
    select[rows, a] = 1.0
    select[rows, b] = -1.0
    neg_sign = -np.sign(gv[a] - gv[b]).reshape(-1, 1)
    z = (select @ p) * neg_sign
    # softplus as max(z, 0) + log1p(exp(-|z|)) and its derivative: no exp overflows
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    sigmoid = 1.0 / (1.0 + np.exp(-np.clip(z, -700, 700)))

    def vjp(c):
        d = np.full(z.shape, (c * beta).item() / z.size) * sigmoid * neg_sign
        return (d.T @ select).T

    return _mean(softplus) * beta, vjp


def total_loss(p, g, cfg: LossConfig) -> Tensor:
    """Weighted combination alpha * L1 + beta * order term (per variant), as
    one tape node with the predictions ``p`` as its input.

    ``p`` and ``g`` are vectors ([N] or [N, 1]) of one length N >= 1. The
    order term is left out when ``beta`` is 0 or the variant is "l1", and
    the L1 term when ``alpha`` is 0, unless it is then the only term.
    """
    pt = _vector(p, "predictions")
    pv = pt.data.reshape(-1, 1)
    gv = _vector(g, "ground truths").data.reshape(-1, 1)
    if len(pv) != len(gv) or not len(pv):
        raise ad.ShapeError(f"the loss needs N >= 1 predictions and N ground truths, got "
                            f"{len(pv)} and {len(gv)}")
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
        return (sum(grads[1:], grads[0]),)

    return ad._record("total_loss", (pt,), sum(values[1:], values[0]), bw)


def l1_loss(p, g) -> Tensor:
    """Mean absolute error; subgradient 0 where prediction equals target."""
    return total_loss(p, g, LossConfig(alpha=1.0, beta=0.0, variant="l1"))


def correlation_loss(p, g) -> Tensor:
    """Order-constraint penalty, mean-deviation form (the training path).

    N * sum_n max(0, -(p_n - mean(p)) * (g_n - mean(g))). Gradient flows
    through the prediction mean. Zero exactly whenever p is a positive
    affine transform of g. The N prefactor makes the term scale with batch
    size; tune its weight per batch size.
    """
    return total_loss(p, g, LossConfig(alpha=0.0, beta=1.0))


def pairwise_ranking_loss(p, g) -> Tensor:
    """Cross-entropy pairwise ranking baseline: the mean over ordered pairs
    (n, m), n != m, of log(1 + exp(-sign(g_n - g_m) * (p_n - p_m))); pairs
    with tied ground truths are skipped, and without an untied pair the
    loss is 0 with a zero gradient."""
    return total_loss(p, g, LossConfig(alpha=0.0, beta=1.0, variant="pwrl"))
