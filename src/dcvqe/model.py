"""Hierarchical divide-and-conquer quality network.

The forward pass projects per-frame features to the model width, attaches
positional embeddings plus a learned video-level token, then stacks
divide-and-conquer layers: windowed multi-head attention inside clips
(divide, with a residual path) followed by unmasked attention plus average
pooling over the clip embeddings (conquer, no residual). Clip coverage
doubles at every layer. A linear regressor on the final video embedding
produces the scalar quality score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class SequenceLengthError(ValueError):
    """Input sequence is empty or longer than the configured maximum."""


@dataclass(frozen=True)
class DCVQEConfig:
    """Architecture hyperparameters.

    ``temporal_range`` is the attention-window radius inside a clip;
    ``None`` admits the whole clip. ``base_clip_len`` is the clip length at
    the first layer; layer k covers ``base_clip_len * 2**(k-1)`` frames.
    """

    input_dim: int = 4096
    model_dim: int = 128
    num_heads: int = 4
    num_layers: int = 3
    base_clip_len: int = 30
    temporal_range: int | None = 15
    max_seq_len: int = 600

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(f"model_dim {self.model_dim} not divisible by "
                             f"num_heads {self.num_heads}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.base_clip_len < 1:
            raise ValueError(f"base_clip_len must be >= 1, got {self.base_clip_len}")
        if self.temporal_range is not None and self.temporal_range < 1:
            raise ValueError(f"temporal_range must be >= 1 or None, got {self.temporal_range}")
        if self.max_seq_len < self.base_clip_len:
            raise ValueError(f"max_seq_len {self.max_seq_len} < base_clip_len "
                             f"{self.base_clip_len}")


@dataclass(frozen=True)
class AttentionMask:
    """Boolean admissibility matrix for one clip's attention.

    Position 0 is reserved for the video-level embedding: row 0 and column 0
    are always admissible. Frame positions i, j >= 1 are admissible iff
    |i - j| <= temporal_range (always, when the range is None). The matrix
    is symmetric with an admissible diagonal.
    """

    size: int
    admissible: np.ndarray
    temporal_range: int | None

    @classmethod
    def banded(cls, size: int, temporal_range: int | None) -> "AttentionMask":
        if size < 1:
            raise ValueError(f"mask size must be >= 1, got {size}")
        if temporal_range is None:
            adm = np.ones((size, size), dtype=bool)
        else:
            idx = np.arange(size)
            adm = np.abs(idx[:, None] - idx[None, :]) <= temporal_range
            adm[0, :] = True
            adm[:, 0] = True
        return cls(size=size, admissible=adm, temporal_range=temporal_range)


@dataclass
class AttentionCost:
    """Multiply-accumulate counter for the attention stages.

    Counts the score products (Q.K) and the weighted-value products for
    every attention call, keyed by (layer, stage); projection matmuls are
    excluded since the clip-splitting claim is about the attention term.
    """

    macs: dict[tuple[int, str], int] = field(default_factory=dict)

    def add(self, key: tuple[int, str], seq_len: int, width: int, clips: int = 1) -> None:
        """Count ``clips`` attention calls over ``seq_len`` positions each."""
        self.macs[key] = self.macs.get(key, 0) + 2 * clips * seq_len * seq_len * width

    def layer_stage(self, layer: int, stage: str) -> int:
        return self.macs.get((layer, stage), 0)

    @property
    def total(self) -> int:
        return sum(self.macs.values())


@dataclass
class LayerActivations:
    """Per-layer intermediate quantities, detached for export/inspection."""

    clip_boundaries: list[list[tuple[int, int]]] = field(default_factory=list)
    frame_embeddings: list[np.ndarray] = field(default_factory=list)
    clip_embeddings: list[np.ndarray] = field(default_factory=list)
    video_embeddings: list[np.ndarray] = field(default_factory=list)
    divide_attention: list[list[np.ndarray]] = field(default_factory=list)
    conquer_attention: list[np.ndarray] = field(default_factory=list)


def split_clips(length: int, clip_len: int) -> list[tuple[int, int]]:
    """Consecutive disjoint [start, end) clip boundaries covering [0, length).

    Every clip has ``clip_len`` frames except possibly the last, which keeps
    the remainder (always >= 1); no padding is ever introduced.
    """
    if length < 1 or clip_len < 1:
        raise ValueError(f"length and clip_len must be >= 1, got {length}, {clip_len}")
    return [(start, min(start + clip_len, length)) for start in range(0, length, clip_len)]


@dataclass(frozen=True)
class AttentionProjections:
    """The query/key/value projection weights of one attention module."""

    query: Tensor
    key: Tensor
    value: Tensor


def multi_head_attention(x: Tensor, proj: AttentionProjections, num_heads: int,
                         admissible: np.ndarray | None,
                         cost: AttentionCost | None = None,
                         cost_key: tuple[int, str] = (0, ""),
                         attn_sink: list[np.ndarray] | None = None) -> Tensor:
    """Scaled dot-product attention with heads split along the feature axis.

    ``x`` is one sequence [n, D] or a batch of equal-length sequences
    [..., n, D]. Each of the query/key/value projections is D x D; head h
    uses columns [h*D/H, (h+1)*D/H). Scores are scaled by 1/sqrt(D/H).
    ``admissible`` [n, n] restricts attention in every sequence and head
    (None means fully admissible). ``attn_sink`` receives one [H, n, n]
    weight array per sequence. No output projection, no residual: callers
    add those as the surrounding module dictates.
    """
    *lead, n, dim = x.shape
    if dim % num_heads != 0:
        raise ValueError(f"feature width {dim} not divisible by {num_heads} heads")
    head_dim = dim // num_heads
    if admissible is None:
        admissible = np.ones((n, n), dtype=bool)
    if cost is not None:
        cost.add(cost_key, n, dim, clips=math.prod(lead))
    b = len(lead)
    heads_first = (*range(b), b + 1, b, b + 2)  # [..., n, H, D/H] <-> [..., H, n, D/H]

    def project(weight: Tensor, axes: tuple[int, ...]) -> Tensor:
        split = ad.reshape(ad.matmul(x, weight), (*lead, n, num_heads, head_dim))
        return ad.transpose(split, axes)

    q = project(proj.query, heads_first)
    k_t = project(proj.key, (*range(b), b + 1, b + 2, b))
    v = project(proj.value, heads_first)
    scores = ad.scale(ad.matmul(q, k_t), 1.0 / math.sqrt(head_dim))
    attn = ad.softmax_masked(scores, admissible)
    if attn_sink is not None:
        attn_sink.extend(attn.data.reshape(-1, num_heads, n, n))
    return ad.reshape(ad.transpose(ad.matmul(attn, v), heads_first), (*lead, n, dim))


def transformer_d(proj: AttentionProjections, num_heads: int, video_qe: Tensor,
                  clip_frames: Tensor, mask: AttentionMask,
                  cost: AttentionCost | None = None,
                  cost_key: tuple[int, str] = (0, "divide"),
                  attn_sink: list[np.ndarray] | None = None) -> tuple[Tensor, Tensor]:
    """Divide-stage attention over one clip [L, D] or a batch of C
    equal-length clips [C, L, D], with the video slot at position 0 of each.

    Each sequence [video_qe; frames] goes through masked multi-head
    attention, and the module input is added back (residual). Returns the
    clip-level embeddings ([1, D], or [C, 1, D]) and the updated frame
    embeddings (the shape of ``clip_frames``).
    """
    *lead, n_frames, dim = clip_frames.shape
    if mask.size != n_frames + 1:
        raise ad.ShapeError(f"mask size {mask.size} != clip length {n_frames} + 1")
    clips, seq_len = math.prod(lead), n_frames + 1
    # row 0 of ``rows`` is the video embedding, row 1 + c*L + j frame j of clip c
    rows = ad.concat_rows([video_qe, ad.reshape(clip_frames, (clips * n_frames, dim))])
    gather = np.arange(clips)[:, None] * n_frames + np.arange(seq_len)
    gather[:, 0] = 0
    x = ad.take(rows, gather.reshape(*lead, seq_len))
    attended = multi_head_attention(x, proj, num_heads, mask.admissible,
                                    cost=cost, cost_key=cost_key, attn_sink=attn_sink)
    out = ad.reshape(ad.add(x, attended), (clips * seq_len, dim))
    firsts = np.arange(clips)[:, None] * seq_len
    clip_qe = ad.take(out, firsts.reshape(*lead, 1))
    frames = ad.take(out, (firsts + np.arange(1, seq_len)).reshape(*lead, n_frames))
    return clip_qe, frames


def transformer_c(proj: AttentionProjections, num_heads: int, clip_qes: Tensor,
                  cost: AttentionCost | None = None,
                  cost_key: tuple[int, str] = (0, "conquer"),
                  attn_sink: list[np.ndarray] | None = None) -> Tensor:
    """Conquer-stage attention over the clip embeddings.

    Unmasked multi-head attention with no residual path, then average
    pooling over the clip axis. The pooled output is invariant to any
    permutation of the input rows.
    """
    attended = multi_head_attention(clip_qes, proj, num_heads, None,
                                    cost=cost, cost_key=cost_key, attn_sink=attn_sink)
    return ad.mean_axis(attended, axis=0)


class DCVQEModel:
    """The full learnable parameter set plus its forward pass."""

    def __init__(self, config: DCVQEConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: DCVQEConfig, seed: int, init_scale: float = 0.02) -> "DCVQEModel":
        """Deterministic seeded init: projections and embeddings N(0, scale^2),
        biases zero."""
        rng = np.random.default_rng(seed)
        d = config.model_dim

        def normal(name, shape):
            return Tensor(rng.normal(0.0, init_scale, shape), requires_grad=True, name=name)

        def zeros(name, shape):
            return Tensor(np.zeros(shape), requires_grad=True, name=name)

        params: dict[str, Tensor] = {}
        params["input.weight"] = normal("input.weight", (config.input_dim, d))
        params["input.bias"] = zeros("input.bias", (1, d))
        params["positional"] = normal("positional", (config.max_seq_len + 1, d))
        params["video_token"] = normal("video_token", (1, d))
        for k in range(1, config.num_layers + 1):
            for module in ("divide", "conquer"):
                for role in ("query", "key", "value"):
                    name = f"layer{k}.{module}.{role}"
                    params[name] = normal(name, (d, d))
        params["regressor.weight"] = normal("regressor.weight", (d, 1))
        params["regressor.bias"] = zeros("regressor.bias", (1, 1))
        return cls(config, params)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def zero_grads(self) -> None:
        ad.zero_grads(self.parameters())

    def _projections(self, layer: int, module: str) -> AttentionProjections:
        return AttentionProjections(self.params[f"layer{layer}.{module}.query"],
                                    self.params[f"layer{layer}.{module}.key"],
                                    self.params[f"layer{layer}.{module}.value"])

    def project_input(self, features: Tensor) -> Tensor:
        """Affine map from raw per-frame features to the model width."""
        if features.data.ndim != 2 or features.shape[1] != self.config.input_dim:
            raise ad.ShapeError(f"features must be [S,{self.config.input_dim}], "
                                f"got {features.shape}")
        bias = ad.take(self.params["input.bias"], np.zeros(features.shape[0], dtype=int))
        return ad.add(ad.matmul(features, self.params["input.weight"]), bias)

    def add_positional(self, frames: Tensor) -> tuple[Tensor, Tensor]:
        """Attach positional embeddings; index 0 is reserved for the video token.

        Returns (video embedding, frame embeddings); frame t gets table row t
        (1-based).
        """
        n = frames.shape[0]
        if n > self.config.max_seq_len:
            raise SequenceLengthError(f"sequence length {n} exceeds max_seq_len "
                                      f"{self.config.max_seq_len}")
        table = self.params["positional"]
        video = ad.add(self.params["video_token"], ad.slice_rows(table, 0, 1))
        frames = ad.add(frames, ad.slice_rows(table, 1, n + 1))
        return video, frames

    def dctr_layer(self, layer: int, frames: Tensor, video_qe: Tensor,
                   cost: AttentionCost | None = None,
                   activations: LayerActivations | None = None,
                   record_attention: bool = False) -> tuple[Tensor, Tensor]:
        """One divide-and-conquer layer.

        Splits the frames into clips of ``base_clip_len * 2**(layer-1)``,
        runs the divide transformer once over all full-length clips as one
        batch and once more over a shorter last clip if there is one (shared
        weights, same input video embedding at position 0), then the
        conquer transformer plus pooling over the collected clip embeddings.
        """
        cfg = self.config
        n, dim = frames.shape
        clip_len = cfg.base_clip_len * 2 ** (layer - 1)
        bounds = split_clips(n, clip_len)
        d_proj = self._projections(layer, "divide")
        c_proj = self._projections(layer, "conquer")
        divide_sink: list[np.ndarray] | None = [] if record_attention else None
        conquer_sink: list[np.ndarray] | None = [] if record_attention else None

        full = n - n % clip_len  # frames in full-length clips
        clip_qes, new_frames = [], []
        for start, stop, length in ((0, full, clip_len), (full, n, n - full)):
            if stop == start:
                continue
            clips = (stop - start) // length
            clip_qe, clip_frames = transformer_d(
                d_proj, cfg.num_heads, video_qe,
                ad.reshape(ad.slice_rows(frames, start, stop), (clips, length, dim)),
                AttentionMask.banded(length + 1, cfg.temporal_range),
                cost=cost, cost_key=(layer, "divide"), attn_sink=divide_sink)
            clip_qes.append(ad.reshape(clip_qe, (clips, dim)))
            new_frames.append(ad.reshape(clip_frames, (stop - start, dim)))
        frames_out = ad.concat_rows(new_frames)
        clip_matrix = ad.concat_rows(clip_qes)
        video_out = transformer_c(c_proj, cfg.num_heads, clip_matrix,
                                  cost=cost, cost_key=(layer, "conquer"), attn_sink=conquer_sink)

        if activations is not None:
            activations.clip_boundaries.append(bounds)
            activations.frame_embeddings.append(frames_out.data.copy())
            activations.clip_embeddings.append(clip_matrix.data.copy())
            activations.video_embeddings.append(video_out.data.copy())
            if record_attention:
                activations.divide_attention.append(divide_sink or [])
                activations.conquer_attention.append((conquer_sink or [np.empty(0)])[0])
        return frames_out, video_out

    def forward(self, features, record: bool = False, record_attention: bool = False,
                cost: AttentionCost | None = None) -> tuple[Tensor, LayerActivations | None]:
        """Score one video. ``features`` is [S, input_dim] (array or tensor).

        Returns the scalar score tensor (shape [1,1]) and, when ``record``,
        the per-layer activations.
        """
        feats = ad.as_tensor(features)
        if feats.data.ndim != 2:
            raise ad.ShapeError(f"features must be 2-d, got shape {feats.shape}")
        n = feats.shape[0]
        if n < 1:
            raise SequenceLengthError("empty feature sequence")
        if n > self.config.max_seq_len:
            raise SequenceLengthError(f"sequence length {n} exceeds max_seq_len "
                                      f"{self.config.max_seq_len}; truncate first")
        activations = LayerActivations() if (record or record_attention) else None
        frames = self.project_input(feats)
        video_qe, frames = self.add_positional(frames)
        for layer in range(1, self.config.num_layers + 1):
            frames, video_qe = self.dctr_layer(layer, frames, video_qe, cost=cost,
                                               activations=activations,
                                               record_attention=record_attention)
        score = ad.add(ad.matmul(video_qe, self.params["regressor.weight"]),
                       self.params["regressor.bias"])
        return score, activations

    def predict(self, features) -> float:
        """Plain inference: scalar score with no graph recorded."""
        score, _ = self.forward(features)
        return score.item()
