"""Reference computations and a tape op that only the tests use.

``weighted_sum`` is the scalar that engine and op tests differentiate.
``correlation_loss_raw`` is the double-sum anchor form of the order
constraint, evaluated literally, against which the mean-deviation form of
``losses.correlation_loss`` is checked. ``linear_probe`` is a learnability
check for a synthetic dataset. ``initial_params`` spells out the seeded
parameter draw of ``DCVQEModel.initialize`` one parameter at a time.
``krcc_pairs`` is Kendall tau-b from the full matrix of pair signs.
"""

import math
import sys

import numpy as np

from dcvqe import autodiff as ad
from dcvqe import metrics
from dcvqe.data import DatasetManifest, load_sequences


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
