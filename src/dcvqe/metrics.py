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
    if bad.size:
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
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True, equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _pearson(x: np.ndarray, y: np.ndarray, errors: str = "raise") -> float:
    """Pearson correlation; if a sum over- or underflows, that of the inputs
    scaled by powers of two, which leave the correlation as it is."""
    try:
        with np.errstate(over=errors, under=errors):
            dx, dy = x - x.mean(), y - y.mean()
            sxx, syy, sxy = (dx * dx).sum(), (dy * dy).sum(), (dx * dy).sum()
            denom = np.sqrt(sxx * syy)  # one root keeps equal (or mirrored) inputs at +/-1
    except FloatingPointError:
        return _pearson(*(np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y)), "ignore")
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("correlation undefined for constant input")
    return float(min(1.0, max(-1.0, sxy / denom)))


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
    """Root mean squared error; if a sum over- or underflows, that of both
    inputs scaled by one power of two, scaled back."""
    pv, gv = _pair(p, g, 1)
    try:
        with np.errstate(over="raise", under="raise"):
            return float(np.sqrt(((pv - gv) ** 2).mean()))
    except FloatingPointError:
        exp = np.frexp(max(np.abs(pv).max(), np.abs(gv).max()))[1]
        d = np.ldexp(pv, -exp) - np.ldexp(gv, -exp)
        with np.errstate(over="ignore"):  # an rmse beyond the float range is inf
            return float(np.ldexp(np.sqrt((d ** 2).mean()), exp))


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
        n=int(round(med_n)),
    )
