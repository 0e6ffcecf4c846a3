"""Hierarchical divide-and-conquer quality network.

The forward pass projects per-frame features to the model width, attaches
positional embeddings plus a learned video-level token, then stacks
divide-and-conquer layers: windowed multi-head attention inside clips
(divide, with a residual path) followed by unmasked attention plus average
pooling over the clip embeddings (conquer, no residual). Clip coverage
doubles at every layer. An attention mask describes its divide call: its
columns give the clip length plus the video row, its rows the query rows
evaluated. The final layer's mask is row 0 alone, since its updated frames
reach nothing downstream. ``embed`` returns the final video embedding and
``forward`` its scalar score from a linear regressor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class DCVQEConfig:
    """Architecture hyperparameters.

    ``temporal_range`` is the attention-window radius inside a clip;
    ``None`` admits the whole clip. ``base_clip_len`` is the clip length at
    the first layer; layer k covers ``min(base_clip_len * 2**(k-1), max_seq_len)`` frames.
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
    """Boolean admissibility matrix for one clip's attention: its rows are
    the query rows evaluated (all ``size``, or row 0 alone), its ``size``
    columns the keys, which fix the clip length at ``size - 1`` frames.

    Position 0 is reserved for the video-level embedding: row 0 and column 0
    are always admissible. Frame positions i, j >= 1 are admissible iff
    |i - j| <= temporal_range (always, when the range is None). ``banded``
    returns one shared, read-only, symmetric [size, size] mask per (size,
    temporal_range).
    """

    size: int
    admissible: np.ndarray

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
        return cls(size=size, admissible=adm)


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
            clips = split_clips(n_frames, layer_clip_len(config, layer))
            divide = sum(2 * (stop - start + 1) ** 2 * dim for start, stop in clips)
            conquer = 2 * len(clips) ** 2 * dim
            for key, macs in (((layer, "divide"), divide), ((layer, "conquer"), conquer)):
                self.macs[key] = self.macs.get(key, 0) + macs

    def layer_stage(self, layer: int, stage: str) -> int:
        return self.macs.get((layer, stage), 0)


def layer_clip_len(config: DCVQEConfig, layer: int) -> int:
    """Frames per clip at ``layer`` (1-based): ``base_clip_len * 2**(layer-1)``,
    at most ``max_seq_len``, the longest video."""
    return min(config.base_clip_len * 2 ** (layer - 1), config.max_seq_len)


def split_clips(length: int, clip_len: int) -> list[tuple[int, int]]:
    """Consecutive disjoint [start, end) clip boundaries covering [0, length).

    Every clip has ``clip_len`` frames except possibly the last, which keeps
    the remainder (always >= 1); no padding is ever introduced.
    """
    if length < 1 or clip_len < 1:
        raise ValueError(f"length and clip_len must be >= 1, got {length}, {clip_len}")
    return [(start, min(start + clip_len, length)) for start in range(0, length, clip_len)]


def transformer_d(proj: tuple[Tensor, Tensor, Tensor], num_heads: int, video_qe: Tensor,
                  frames: Tensor, mask: AttentionMask) -> tuple[Tensor, Tensor | None]:
    """Divide-stage attention over the frames [n, D] of one video, cut into
    clips of ``mask.size - 1`` frames.

    ``proj`` is the (query, key, value) weights. Each clip runs as the
    sequence [video_qe; clip frames] through masked multi-head attention,
    and the module input is added back (residual). ``mask`` is the mask of
    a full clip; a shorter last clip uses its leading block, which for a
    banded mask is the banded mask of that size. Returns the clip-level
    embeddings [C, D] and the updated frame embeddings [n, D], or None for
    them when the mask is row 0 alone, which evaluates the clip rows only
    (see ``autodiff.divide_attention``). The whole stage is one
    ``autodiff.divide_attention`` node on the tape. Its attention MACs
    follow from the clip layout alone (``AttentionCost``).
    """
    return ad.divide_attention(frames, video_qe, *proj, num_heads, mask.admissible)


def transformer_c(proj: tuple[Tensor, Tensor, Tensor], num_heads: int,
                  clip_qes: Tensor) -> Tensor:
    """Conquer-stage attention over the clip embeddings [C, D].

    Unmasked multi-head attention with no output projection (``proj`` the
    (query, key, value) weights) and no residual path, then average pooling
    over the clip axis: one ``autodiff.conquer_attention`` node. The pooled
    output is invariant to any permutation of the input rows.
    """
    return ad.conquer_attention(clip_qes, *proj, num_heads)


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
            params[name] = Tensor(value, name=name)
        return cls(config, params)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def _projections(self, layer: int, module: str) -> tuple[Tensor, Tensor, Tensor]:
        return tuple(self.params[f"layer{layer}.{module}.{r}"] for r in ("query", "key", "value"))

    def project_input(self, features) -> Tensor:
        """Affine map from raw per-frame features [S, input_dim] (array or
        tensor) to the model width, one ``autodiff.linear`` node: the float32
        rows of a ``FeatureSequence`` are widened to float64, exactly, only
        inside the projection's GEMMs. Before any product, a non-2-d input, a
        wrong width or a length outside 1..``max_seq_len`` is a ``ShapeError``."""
        shape, cfg = features.shape, self.config
        if len(shape) != 2 or shape[1] != cfg.input_dim:
            raise ad.ShapeError(f"features must be [S,{cfg.input_dim}], got {shape}")
        if not 1 <= shape[0] <= cfg.max_seq_len:
            raise ad.ShapeError(f"sequence length {shape[0]} is outside 1.."
                                f"{cfg.max_seq_len} (max_seq_len); truncate first")
        return ad.linear(features, self.params["input.weight"], self.params["input.bias"])

    def add_positional(self, frames: Tensor) -> tuple[Tensor, Tensor]:
        """Attach positional embeddings; index 0 is reserved for the video token.

        Returns (video embedding, frame embeddings); frame t gets table row t
        (1-based). One ``autodiff.positional`` node.
        """
        return ad.positional(frames, self.params["video_token"], self.params["positional"])

    def dctr_layer(self, layer: int, frames: Tensor,
                   video_qe: Tensor) -> tuple[Tensor | None, Tensor]:
        """One divide-and-conquer layer: ``transformer_d`` over clips of
        ``layer_clip_len(config, layer)`` frames, then ``transformer_c`` over
        their embeddings. Returns the updated frames and the video embedding.
        The final layer's mask is row 0 alone: it evaluates the clip rows
        only and returns None for the frames, which reach nothing."""
        cfg = self.config
        mask = AttentionMask.banded(layer_clip_len(cfg, layer) + 1, cfg.temporal_range)
        if layer == cfg.num_layers:
            mask = AttentionMask(mask.size, mask.admissible[:1])
        clips, frames = transformer_d(self._projections(layer, "divide"), cfg.num_heads,
                                      video_qe, frames, mask)
        return frames, transformer_c(self._projections(layer, "conquer"), cfg.num_heads, clips)

    def embed(self, features) -> Tensor:
        """The [1, D] video embedding that the regressor scores, for features
        [S, input_dim] (array or tensor). An array is not copied: the float32
        rows of a ``FeatureSequence`` stay float32 on the tape and are widened
        only inside the input projection's GEMMs (``project_input``)."""
        video, frames = self.add_positional(self.project_input(features))
        for layer in range(1, self.config.num_layers + 1):
            frames, video = self.dctr_layer(layer, frames, video)
        return video

    def forward(self, features, cost: AttentionCost | None = None) -> Tensor:
        """Score one video: the [1, 1] regression of ``embed(features)``.
        Once the forward has succeeded, ``cost`` gets this video's attention
        MACs, computed from the clip layout."""
        score = ad.linear(self.embed(features), self.params["regressor.weight"],
                          self.params["regressor.bias"])
        if cost is not None:
            cost.count_video(self.config, features.shape[0])
        return score

    def predict(self, features) -> float:
        """Plain inference: scalar score with no graph recorded."""
        return self.forward(features).item()
