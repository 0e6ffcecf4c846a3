"""Reference computations, observation and a tape op that only the tests use.

``weighted_sum`` is the scalar that engine and op tests differentiate.
``correlation_loss_raw`` is the double-sum anchor form of the order
constraint, evaluated literally, against which the mean-deviation form of
the correlation term of ``losses.total_loss`` is checked. ``linear_probe``
is a learnability check for a synthetic dataset. ``initial_params`` spells
out the seeded parameter draw of ``DCVQEModel.initialize`` one parameter at
a time. ``krcc_pairs`` is Kendall tau-b from the full matrix of pair signs.
``clip_maps`` reads the per-clip attention weights off a tape, and
``record`` every layer's activations and attention maps.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from dcvqe import autodiff as ad
from dcvqe import metrics
from dcvqe.data import DatasetManifest, load_sequences
from dcvqe.model import AttentionMask, layer_clip_len, split_clips, transformer_c, transformer_d


def weighted_sum(*terms, power: int = 1) -> ad.Tensor:
    """sum_i sum(w_i * x_i ** power) over (tensor, constant weights) pairs,
    recorded as one tape node. Each weight broadcasts to its tensor's shape.
    A term that repeats (the same tensor with the same weight object) gets
    the same gradient array each time, so the node hands one array to
    several inputs, as a rule may."""
    value = np.float64(0.0)
    for x, w in terms:
        value = value + (w * x.data ** power).sum()

    def bw(g):
        grads = {}
        for x, w in terms:
            if (id(x), id(w)) not in grads:
                grads[id(x), id(w)] = g * power * w * x.data ** (power - 1)
        return tuple(grads[id(x), id(w)] for x, w in terms)

    return ad._record("weighted_sum", tuple(x for x, _ in terms), value, bw)


def clip_maps(graph: ad.Graph) -> list[np.ndarray]:
    """The [H, m, L] attention weights of every clip of the graph's
    ``divide_attention`` nodes, in the order recorded, read from the nodes'
    ``weights`` as ``record`` reads them."""
    return [clip for node in graph.nodes if node.op == "divide_attention"
            for batch in node.weights for clip in batch]


@dataclass
class LayerActivations:
    """Per-layer quantities of one video, the final layer evaluated in full."""

    clip_boundaries: list[list[tuple[int, int]]]
    frame_embeddings: list[np.ndarray]
    clip_embeddings: list[np.ndarray]
    video_embeddings: list[np.ndarray]
    divide_attention: list[list[np.ndarray]]
    conquer_attention: list[np.ndarray]


def record(model, features) -> LayerActivations:
    """Every layer's activations and attention maps for the features
    [S, input_dim] (an array) of one video.

    The model's layers run once inside a throwaway ``Graph``, so nothing
    reaches a caller's tape, each with the full banded mask of its clips,
    the final layer included: its clip and video embeddings agree with
    ``embed``'s to rounding, not bit for bit. Every array is the output or
    ``weights`` of one of that graph's attention nodes."""
    cfg = model.config
    with ad.Graph() as graph:
        video, frames = model.add_positional(model.project_input(features))
        for layer in range(1, cfg.num_layers + 1):
            mask = AttentionMask.banded(layer_clip_len(cfg, layer) + 1, cfg.temporal_range)
            clips, frames = transformer_d(model._projections(layer, "divide"), cfg.num_heads,
                                          video, frames, mask)
            video = transformer_c(model._projections(layer, "conquer"), cfg.num_heads, clips)
    divides = [node for node in graph.nodes if node.op == "divide_attention"]
    conquers = [node for node in graph.nodes if node.op == "conquer_attention"]
    return LayerActivations(
        clip_boundaries=[split_clips(len(features), layer_clip_len(cfg, layer))
                         for layer in range(1, cfg.num_layers + 1)],
        frame_embeddings=[node.outputs[1].data for node in divides],
        clip_embeddings=[node.outputs[0].data for node in divides],
        video_embeddings=[node.outputs[0].data for node in conquers],
        divide_attention=[[clip for batch in node.weights for clip in batch]
                          for node in divides],
        conquer_attention=[node.weights[0] for node in conquers])


def correlation_loss_raw(p, g) -> float:
    """Double-sum anchor form of the order constraint, evaluated literally.

    (1/N) * sum_n max(0, -(sum_m (p_n-p_m)) * (sum_m (g_n-g_m))). A
    plain-float oracle for the mean-deviation form; not differentiable.
    """
    pv = np.asarray(p, dtype=np.float64).reshape(-1)
    gv = np.asarray(g, dtype=np.float64).reshape(-1)
    if pv.size != gv.size:
        raise ad.ShapeError(f"length mismatch: {pv.size} vs {gv.size}")
    sum_p = (pv[:, None] - pv[None, :]).sum(axis=1)
    sum_g = (gv[:, None] - gv[None, :]).sum(axis=1)
    return float(np.maximum(0.0, -(sum_p * sum_g)).mean())


def linear_probe(manifest: DatasetManifest, seed: int = 0) -> float:
    """SRCC of a ridge regression (penalty 1e-3) on mean-pooled features,
    fitted on a seeded 80% of the videos and scored on the other 20%.

    A cheap learnability check for a dataset: if a linear probe cannot rank
    it, no amount of model training will.
    """
    seqs = load_sequences(manifest, max_len=sys.maxsize)  # every frame
    # accumulating in float64 gives the same bits as the mean of the widened rows
    x = np.stack([s.features.mean(axis=0, dtype=np.float64) for s in seqs])
    y = np.array([s.mos for s in seqs])
    n = len(seqs)
    perm = np.random.default_rng(seed).permutation(n)
    cut = max(1, math.floor(0.8 * n))
    tr, te = perm[:cut], perm[cut:]
    if te.size < 2:
        raise ValueError(f"probe needs >= 2 held-out videos, got {te.size}")
    x_mean = x[tr].mean(axis=0)
    y_mean = y[tr].mean()
    xt = x[tr] - x_mean
    w = np.linalg.solve(xt.T @ xt + 1e-3 * np.eye(x.shape[1]), xt.T @ (y[tr] - y_mean))
    pred = (x[te] - x_mean) @ w + y_mean
    return metrics.srcc(pred, y[te])


def initial_params(config, seed: int, init_scale: float = 0.02) -> dict[str, np.ndarray]:
    """The seeded draw of a fresh model, written out name by name: every
    projection and embedding N(0, init_scale^2) from one generator, in this
    order, and both biases zero without a draw."""
    rng = np.random.default_rng(seed)
    d = config.model_dim

    def normal(shape):
        return rng.normal(0.0, init_scale, shape)

    params = {}
    params["input.weight"] = normal((config.input_dim, d))
    params["input.bias"] = np.zeros((1, d))
    params["positional"] = normal((config.max_seq_len + 1, d))
    params["video_token"] = normal((1, d))
    for k in range(1, config.num_layers + 1):
        for module in ("divide", "conquer"):
            for role in ("query", "key", "value"):
                params[f"layer{k}.{module}.{role}"] = normal((d, d))
    params["regressor.weight"] = normal((d, 1))
    params["regressor.bias"] = np.zeros((1, 1))
    return params


def krcc_pairs(p, g) -> float:
    """Kendall tau-b by exhaustive enumeration: the signs of every pair's
    differences, gathered from the n x n matrices into the upper triangle."""
    pv = np.asarray(p, dtype=np.float64).reshape(-1)
    gv = np.asarray(g, dtype=np.float64).reshape(-1)
    iu = np.triu_indices(pv.size, k=1)
    dp = np.sign(pv[:, None] - pv[None, :])[iu]
    dg = np.sign(gv[:, None] - gv[None, :])[iu]
    concordant = int(((dp * dg) > 0).sum())
    discordant = int(((dp * dg) < 0).sum())
    n0 = dp.size
    ties_p = int((dp == 0).sum())
    ties_g = int((dg == 0).sum())
    return (concordant - discordant) / float(np.sqrt(float(n0 - ties_p) * float(n0 - ties_g)))
