"""Hierarchical divide-and-conquer quality network.

The forward pass projects per-frame features to the model width, attaches
positional embeddings plus a learned video-level token, then stacks
divide-and-conquer layers: windowed multi-head attention inside clips
(divide, with a residual path) followed by unmasked attention plus average
pooling over the clip embeddings (conquer, no residual). Clip coverage
doubles at every layer. A linear regressor on the final video embedding
produces the scalar quality score. The final layer's divide stage evaluates
only the clip rows, since its updated frames reach nothing downstream.
"""

from __future__ import annotations

import functools
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
        if min(self.model_dim, self.num_heads) < 1 or self.model_dim % self.num_heads:
            raise ValueError(f"model_dim {self.model_dim} not divisible by "
                             f"num_heads {self.num_heads}, or one of them < 1")
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
    is symmetric with an admissible diagonal. ``banded`` returns one shared,
    read-only mask per (size, temporal_range).
    """

    size: int
    admissible: np.ndarray
    temporal_range: int | None

    @classmethod
    @functools.lru_cache(maxsize=256)
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
        adm.flags.writeable = False
        return cls(size=size, admissible=adm, temporal_range=temporal_range)


@dataclass
class AttentionCost:
    """Multiply-accumulate count of the attention stages, keyed by (layer, stage).

    The count comes from the clip layout alone: the score products (Q.K) and
    the weighted-value products, 2 * L^2 * D for a sequence of L positions,
    summed over the ``[video; clip]`` sequences of each layer's divide stage
    and over the single sequence of clip embeddings of its conquer stage.
    Projection products are excluded since the clip-splitting claim is about
    the attention term. It is the dense clip attention of the model's
    definition, not the rows evaluated: the final layer's divide stage forms
    only the clip rows but is counted as the full [L, L] attention of every
    clip.
    """

    macs: dict[tuple[int, str], int] = field(default_factory=dict)

    def count_video(self, config: DCVQEConfig, n_frames: int) -> None:
        """Add the attention MACs of one forward over ``n_frames`` frames."""
        dim = config.model_dim
        for layer in range(1, config.num_layers + 1):
            clips = split_clips(n_frames, config.base_clip_len * 2 ** (layer - 1))
            divide = sum(2 * (stop - start + 1) ** 2 * dim for start, stop in clips)
            conquer = 2 * len(clips) ** 2 * dim
            for key, macs in (((layer, "divide"), divide), ((layer, "conquer"), conquer)):
                self.macs[key] = self.macs.get(key, 0) + macs

    def layer_stage(self, layer: int, stage: str) -> int:
        return self.macs.get((layer, stage), 0)


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


def transformer_d(proj: AttentionProjections, num_heads: int, video_qe: Tensor,
                  frames: Tensor, mask: AttentionMask,
                  attn_sink: list[np.ndarray] | None = None,
                  clip_len: int | None = None,
                  clip_rows_only: bool = False) -> tuple[Tensor, Tensor | None]:
    """Divide-stage attention over the frames [n, D] of one video, cut into
    clips of ``clip_len`` frames (default: one clip of all n frames).

    Each clip runs as the sequence [video_qe; clip frames] through masked
    multi-head attention, and the module input is added back (residual).
    ``mask`` is the mask of a full clip (size ``clip_len + 1``); a shorter
    last clip uses its leading block, which for a banded mask is the banded
    mask of that size. Returns the clip-level embeddings [C, D] and the
    updated frame embeddings [n, D], or None for them with
    ``clip_rows_only``, which evaluates the clip rows alone (see
    ``autodiff.divide_attention``). The whole stage is one
    ``autodiff.divide_attention`` node on the tape. Its attention MACs
    follow from the clip layout alone (``AttentionCost``).
    """
    clip_len = frames.shape[0] if clip_len is None else clip_len
    out = ad.divide_attention(frames, video_qe, proj.query, proj.key, proj.value, num_heads,
                              clip_len, mask.admissible, sink=attn_sink,
                              clip_rows_only=clip_rows_only)
    return (out, None) if clip_rows_only else out


def transformer_c(proj: AttentionProjections, num_heads: int, clip_qes: Tensor,
                  attn_sink: list[np.ndarray] | None = None) -> Tensor:
    """Conquer-stage attention over the clip embeddings [C, D].

    Unmasked multi-head attention (``autodiff.attention``, no output
    projection) with no residual path, then average pooling over the clip
    axis. The pooled output is invariant to any permutation of the input
    rows. ``attn_sink`` receives the [H, C, C] attention weights.
    """
    attended = ad.attention(clip_qes, proj.query, proj.key, proj.value, num_heads, None,
                            sink=attn_sink)
    return ad.mean_axis(attended, axis=0)


def parameter_shapes(config: DCVQEConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter that ``config`` defines, in the
    order that ``DCVQEModel.initialize`` draws them and checkpoints store them."""
    d = config.model_dim
    shapes = {"input.weight": (config.input_dim, d), "input.bias": (1, d),
              "positional": (config.max_seq_len + 1, d), "video_token": (1, d)}
    for k in range(1, config.num_layers + 1):
        for module in ("divide", "conquer"):
            for role in ("query", "key", "value"):
                shapes[f"layer{k}.{module}.{role}"] = (d, d)
    shapes["regressor.weight"] = (d, 1)
    shapes["regressor.bias"] = (1, 1)
    return shapes


class DCVQEModel:
    """The full learnable parameter set plus its forward pass."""

    def __init__(self, config: DCVQEConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: DCVQEConfig, seed: int, init_scale: float = 0.02) -> "DCVQEModel":
        """Deterministic seeded init over ``parameter_shapes(config)``, in its
        order: the biases are zero and draw nothing, every other parameter is
        drawn N(0, init_scale^2) from one generator seeded with ``seed``."""
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in parameter_shapes(config).items():
            value = (np.zeros(shape) if name.endswith(".bias")
                     else rng.normal(0.0, init_scale, shape))
            params[name] = Tensor(value, requires_grad=True, name=name)
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

    def project_input(self, features) -> Tensor:
        """Affine map from raw per-frame features [S, input_dim] (array or
        tensor) to the model width, one ``autodiff.linear`` node: the float32
        rows of a ``FeatureSequence`` are widened to float64, exactly, only
        inside the projection's GEMMs."""
        if len(features.shape) != 2 or features.shape[1] != self.config.input_dim:
            raise ad.ShapeError(f"features must be [S,{self.config.input_dim}], "
                                f"got {features.shape}")
        return ad.linear(features, self.params["input.weight"], self.params["input.bias"])

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
                   activations: LayerActivations | None = None,
                   record_attention: bool = False) -> tuple[Tensor | None, Tensor]:
        """One divide-and-conquer layer.

        Splits the frames into clips of ``base_clip_len * 2**(layer-1)``
        (the last one keeps the remainder), runs the divide transformer over
        every clip (shared weights, same input video embedding at position
        0), then the conquer transformer plus pooling over the clip
        embeddings. Returns the updated frames and the video embedding.

        The final layer's updated frames reach neither the score nor the
        loss, so that layer evaluates the clip rows of its divide stage only
        and returns None for the frames. When ``activations`` are kept, a
        separate full divide evaluation, off the tape, supplies that layer's
        frame embeddings and divide attention maps; the clip embeddings and
        the score still come from the clip-row path, so observing a forward
        never changes its score. The layer's attention MACs follow from its
        clip layout alone; ``forward`` counts them (``AttentionCost``).
        """
        cfg = self.config
        clip_len = cfg.base_clip_len * 2 ** (layer - 1)
        last = layer == cfg.num_layers
        divide_sink: list[np.ndarray] | None = [] if record_attention else None
        conquer_sink: list[np.ndarray] | None = [] if record_attention else None
        proj = self._projections(layer, "divide")
        mask = AttentionMask.banded(clip_len + 1, cfg.temporal_range)
        clip_matrix, frames_out = transformer_d(
            proj, cfg.num_heads, video_qe, frames, mask,
            attn_sink=None if last else divide_sink, clip_len=clip_len, clip_rows_only=last)
        video_out = transformer_c(self._projections(layer, "conquer"), cfg.num_heads,
                                  clip_matrix, attn_sink=conquer_sink)

        if activations is not None:
            recorded_frames = frames_out
            if last:  # detached operands keep the record's evaluation off the tape
                _, recorded_frames = ad.divide_attention(
                    Tensor(frames.data), Tensor(video_qe.data),
                    *(Tensor(w.data) for w in (proj.query, proj.key, proj.value)),
                    cfg.num_heads, clip_len, mask.admissible, sink=divide_sink)
            activations.clip_boundaries.append(split_clips(frames.shape[0], clip_len))
            activations.frame_embeddings.append(recorded_frames.data.copy())
            activations.clip_embeddings.append(clip_matrix.data.copy())
            activations.video_embeddings.append(video_out.data.copy())
            if record_attention:
                activations.divide_attention.append(divide_sink or [])
                activations.conquer_attention.append((conquer_sink or [np.empty(0)])[0])
        return frames_out, video_out

    def forward(self, features, record: bool = False, record_attention: bool = False,
                cost: AttentionCost | None = None) -> tuple[Tensor, LayerActivations | None]:
        """Score one video. ``features`` is [S, input_dim] (array or tensor).

        An array is not copied: the float32 rows of a ``FeatureSequence``
        stay float32 on the tape and are widened only inside the input
        projection's GEMMs (``project_input``).

        Returns the scalar score tensor (shape [1,1]) and, when ``record``,
        the per-layer activations. Once the forward has succeeded, ``cost``
        gets this video's attention MACs, computed from the clip layout.
        """
        feats = features if isinstance(features, Tensor) else np.asarray(features)
        if len(feats.shape) != 2:
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
            frames, video_qe = self.dctr_layer(layer, frames, video_qe, activations=activations,
                                               record_attention=record_attention)
        score = ad.linear(video_qe, self.params["regressor.weight"],
                          self.params["regressor.bias"])
        if cost is not None:
            cost.count_video(self.config, n)
        return score, activations

    def predict(self, features) -> float:
        """Plain inference: scalar score with no graph recorded."""
        score, _ = self.forward(features)
        return score.item()
