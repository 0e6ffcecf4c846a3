"""Training losses: L1, the rank-correlation penalty, and a pairwise baseline.

The correlation penalty rewards predictions whose deviations from the batch
mean agree in sign with the ground-truth deviations; it is an unnormalized
Spearman-style order constraint, in the mean-deviation form, which equals
the double-sum anchor form of the definition algebraically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class TiedGroundTruthError(ValueError):
    """Every ground-truth pair is tied; the pairwise loss is undefined."""


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


def _as_column(x, what: str) -> Tensor:
    t = ad.as_tensor(x)
    if t.data.ndim == 1:
        t = ad.reshape(t, (t.size, 1))
    if t.data.ndim != 2 or t.shape[1] != 1:
        raise ad.ShapeError(f"{what} must be a vector, got shape {t.shape}")
    return t


def _pair(p, g) -> tuple[Tensor, Tensor]:
    pc = _as_column(p, "predictions")
    gc = _as_column(g, "ground truths")
    if pc.shape[0] != gc.shape[0]:
        raise ad.ShapeError(f"length mismatch: {pc.shape[0]} predictions vs "
                            f"{gc.shape[0]} ground truths")
    return pc, gc


def l1_loss(p, g) -> Tensor:
    """Mean absolute error; subgradient 0 where prediction equals target."""
    pc, gc = _pair(p, g)
    return ad.mean_axis(ad.absolute(ad.sub(pc, gc)), None)


def correlation_loss(p, g) -> Tensor:
    """Order-constraint penalty, mean-deviation form (the training path).

    N * sum_n max(0, -(p_n - mean(p)) * (g_n - mean(g))). Gradient flows
    through the prediction mean. Zero exactly whenever p is a positive
    affine transform of g. Note the N prefactor is kept, so the term scales
    with batch size; tune its weight per batch size.
    """
    pc, gc = _pair(p, g)
    n = pc.shape[0]
    dev_p = ad.sub(pc, ad.mean_axis(pc, None))
    dev_g = ad.sub(gc, ad.mean_axis(gc, None))
    hinge = ad.max0(ad.scale(ad.mul(dev_p, dev_g), -1.0))
    return ad.scale(ad.sum_all(hinge), float(n))


def pairwise_ranking_loss(p, g) -> Tensor:
    """Cross-entropy pairwise ranking baseline.

    Mean over ordered pairs (n, m), n != m, of
    log(1 + exp(-sign(g_n - g_m) * (p_n - p_m))); pairs with tied ground
    truths are skipped. The differences p_n - p_m come from one ``linear``
    node: a [P, N] selector with +1 at n and -1 at m in each pair's row,
    which is never differentiated, times the predictions [N, 1] as the
    weight, plus a zero bias.
    """
    pc, gc = _pair(p, g)
    n = pc.shape[0]
    if n < 2:
        raise ad.ShapeError(f"pairwise ranking loss needs >= 2 samples, got {n}")
    gv = gc.data.reshape(-1)
    a, b = np.nonzero(gv[:, None] != gv[None, :])  # untied pairs in row-major order
    if not a.size:
        raise TiedGroundTruthError("all ground truths tied; no rankable pairs")
    select = np.zeros((a.size, n))
    rows = np.arange(a.size)
    select[rows, a] = 1.0
    select[rows, b] = -1.0
    neg_sign = Tensor(-np.sign(gv[a] - gv[b]).reshape(-1, 1))
    diffs = ad.linear(select, pc, Tensor(np.zeros((1, 1))))
    return ad.mean_axis(ad.softplus(ad.mul(diffs, neg_sign)), None)


def total_loss(p, g, cfg: LossConfig) -> Tensor:
    """Weighted combination alpha * L1 + beta * order term (per variant)."""
    pc, gc = _pair(p, g)
    terms = []
    if cfg.alpha > 0:
        terms.append(ad.scale(l1_loss(pc, gc), cfg.alpha))
    if cfg.variant != "l1" and cfg.beta > 0:
        order = correlation_loss if cfg.variant == "correlation" else pairwise_ranking_loss
        terms.append(ad.scale(order(pc, gc), cfg.beta))
    if not terms:
        return ad.scale(l1_loss(pc, gc), 0.0)
    out = terms[0]
    for t in terms[1:]:
        out = ad.add(out, t)
    return out
