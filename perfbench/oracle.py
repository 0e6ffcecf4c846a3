"""Tape-free numpy reference for DCVQE scores and the training loss.

Written from the model's definition, not from its code: every clip's
attention is one dense, batched-over-heads computation with a banded mask
built here, and the loss is evaluated from its formula. The benchmark
compares the package's outputs against these values outside its timed
regions.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def read_features(path: Path) -> np.ndarray:
    """The DCVQ payload as float64, parsed here rather than by the package."""
    raw = path.read_bytes()
    _, _, frames, dim = struct.unpack_from("<4sIII", raw, 0)
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(frames, dim).astype(np.float64)


def _attention(x: np.ndarray, wq, wk, wv, heads: int, admissible) -> np.ndarray:
    n, width = x.shape
    dh = width // heads

    def split(w):
        return (x @ w).reshape(n, heads, dh).transpose(1, 0, 2)

    q, k, v = split(wq), split(wk), split(wv)
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
    if admissible is not None:
        scores = np.where(admissible, scores, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return (weights @ v).transpose(1, 0, 2).reshape(n, width)


def _band(size: int, radius: int | None) -> np.ndarray | None:
    if radius is None:
        return None
    idx = np.arange(size)
    return ((np.abs(idx[:, None] - idx[None, :]) <= radius)
            | (idx[:, None] == 0) | (idx[None, :] == 0))


def reference_score(params: dict[str, np.ndarray], cfg, features: np.ndarray) -> float:
    """Score of one (already truncated) video from raw parameter arrays."""
    p = params
    n = features.shape[0]
    frames = features @ p["input.weight"] + p["input.bias"] + p["positional"][1:n + 1]
    video = p["video_token"] + p["positional"][:1]
    for layer in range(1, cfg.num_layers + 1):
        clip_len = cfg.base_clip_len * 2 ** (layer - 1)
        d = [p[f"layer{layer}.divide.{r}"] for r in ("query", "key", "value")]
        c = [p[f"layer{layer}.conquer.{r}"] for r in ("query", "key", "value")]
        new_frames, clip_embs = [], []
        for start in range(0, n, clip_len):
            seq = np.vstack([video, frames[start:start + clip_len]])
            out = seq + _attention(seq, *d, cfg.num_heads, _band(len(seq), cfg.temporal_range))
            clip_embs.append(out[:1])
            new_frames.append(out[1:])
        frames = np.vstack(new_frames)
        video = _attention(np.vstack(clip_embs), *c, cfg.num_heads, None).mean(axis=0,
                                                                              keepdims=True)
    return float((video @ p["regressor.weight"] + p["regressor.bias"])[0, 0])


def reference_loss(preds, targets, alpha: float, beta: float) -> float:
    """alpha * mean|p - g| + beta * N * sum max(0, -(p - mean p)(g - mean g))."""
    p = np.asarray(preds, dtype=np.float64)
    g = np.asarray(targets, dtype=np.float64)
    l1 = np.abs(p - g).mean()
    order = len(p) * np.maximum(0.0, -(p - p.mean()) * (g - g.mean())).sum()
    return float(alpha * l1 + beta * order)


def matches(value: float, reference: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= REL_TOL * abs(reference)
