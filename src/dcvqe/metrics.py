"""Evaluation criteria: SRCC, KRCC, PLCC, RMSE, and median aggregation.

SRCC uses average ranks for ties; KRCC is tau-b over every sample pair,
counted one row of pairs at a time in O(n) memory; PLCC is plain Pearson
with no logistic remapping applied beforehand (stated explicitly since
toolchains differ on this). Every criterion rejects a non-finite input with
``DegenerateInputError``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DegenerateInputError(ValueError):
    """Criterion undefined: non-finite input, constant input or all pairs tied."""


@dataclass(frozen=True)
class MetricsReport:
    srcc: float
    krcc: float
    plcc: float
    rmse: float
    n: int


def _vector(x, what: str, min_len: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if v.size < min_len:
        raise ValueError(f"{what} needs at least {min_len} samples, got {v.size}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:  # NaN != NaN would stall the tie scan of _average_ranks
        raise DegenerateInputError(f"{what} hold a non-finite value {v[bad[0]]} at index "
                                   f"{bad[0]}")
    return v


def _pair(p, g, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    pv = _vector(p, "predictions", min_len)
    gv = _vector(g, "ground truths", min_len)
    if pv.size != gv.size:
        raise ValueError(f"length mismatch: {pv.size} vs {gv.size}")
    return pv, gv


def _average_ranks(x: np.ndarray) -> np.ndarray:
    # ties get the mean of the rank span they occupy (1-based ranks)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    i = 0
    while i < x.size:
        j = i + 1  # always advances, even past a value unequal to itself
        while j < x.size and x[order[j]] == x[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("correlation undefined for constant input")
    # single sqrt keeps equal (or mirrored) inputs at exactly +/-1
    r = float((dx * dy).sum()) / np.sqrt(sxx * syy)
    return float(min(1.0, max(-1.0, r)))


def srcc(p, g) -> float:
    """Spearman rank-order correlation: Pearson over average ranks."""
    pv, gv = _pair(p, g, 2)
    return _pearson(_average_ranks(pv), _average_ranks(gv))


def krcc(p, g) -> float:
    """Kendall tau-b, counted one row of pairs at a time: row i compares
    sample i with every later one, by comparisons, in O(n) memory."""
    pv, gv = _pair(p, g, 2)
    score = untied_p = untied_g = 0  # concordant minus discordant pairs, untied pairs
    for i in range(pv.size - 1):
        # sign(x[i] - x[j]) for j > i, without a subtraction that could overflow
        dp, dg = ((x[i + 1:] < x[i]).view(np.int8) - (x[i + 1:] > x[i]).view(np.int8)
                  for x in (pv, gv))
        score += int((dp * dg).sum())
        untied_p += np.count_nonzero(dp)
        untied_g += np.count_nonzero(dg)
    denom = float(np.sqrt(float(untied_p) * float(untied_g)))
    if denom == 0.0:
        raise DegenerateInputError("tau undefined: all pairs tied on one side")
    return score / denom


def plcc(p, g) -> float:
    """Pearson linear correlation (no nonlinear remapping beforehand)."""
    pv, gv = _pair(p, g, 2)
    return _pearson(pv, gv)


def rmse(p, g) -> float:
    pv, gv = _pair(p, g, 1)
    return float(np.sqrt(((pv - gv) ** 2).mean()))


def compute_report(p, g) -> MetricsReport:
    pv = _vector(p, "predictions", 2)
    return MetricsReport(srcc=srcc(p, g), krcc=krcc(p, g), plcc=plcc(p, g),
                         rmse=rmse(p, g), n=int(pv.size))


def median_report(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Field-wise median (mean of the middle two for even counts)."""
    if not reports:
        raise ValueError("median_report needs at least one report")
    med_n = statistics.median([r.n for r in reports])
    return MetricsReport(
        srcc=float(statistics.median([r.srcc for r in reports])),
        krcc=float(statistics.median([r.krcc for r in reports])),
        plcc=float(statistics.median([r.plcc for r in reports])),
        rmse=float(statistics.median([r.rmse for r in reports])),
        n=int(med_n) if float(med_n).is_integer() else int(round(med_n)),
    )
