"""The benchmark's workloads: seeded inputs, set-up, and one closed-loop sample.

Every workload has a single caller: sample ``i + 1`` starts when sample
``i`` returns. Inputs are a function of the workload seed only. The first
``warmup`` samples run untimed, so that allocator and cache state settle
before timing; every sample's output is checked (see ``correct``).
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dcvqe import data, training
from dcvqe.losses import LossConfig
from dcvqe.model import AttentionCost, AttentionMask, DCVQEConfig, DCVQEModel, split_clips

import oracle

PAPER = DCVQEConfig()  # 4096-d input, width 128, 4 heads, 3 layers, clip 30, range 15, 600 frames
SMALL = DCVQEConfig(input_dim=64, model_dim=32, num_heads=4, num_layers=3,
                    base_clip_len=30, temporal_range=15, max_seq_len=600)
LOSS = LossConfig(alpha=0.7, beta=0.3, variant="correlation")
LEARNING_RATE = 1e-3


def write_videos(out_dir: Path, n_videos: int, len_range: tuple[int, int], dim: int,
                 seed: int) -> Path:
    """Random-feature DCVQ files plus a manifest; returns the manifest path.

    The lengths are evenly spaced over ``len_range`` whatever the seed, so
    that per-sample times compare across seeds; the seed sets the contents,
    the scores and the order.
    """
    rng = np.random.default_rng(seed)
    lengths = [int(n) for n in rng.permutation(
        np.linspace(len_range[0], len_range[1], n_videos).round())]
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, n_frames in enumerate(lengths):
        seq = data.FeatureSequence(video_id=f"video{k:04d}", mos=float(rng.uniform(1.0, 5.0)),
                                   features=rng.standard_normal((n_frames, dim),
                                                                dtype=np.float32))
        data.write_features(out_dir / f"{seq.video_id}.dcvq", seq)
        entries.append(data.ManifestEntry(seq.video_id, f"{seq.video_id}.dcvq", seq.mos))
    path = out_dir / "manifest.jsonl"
    data.save_manifest(data.DatasetManifest(entries, 1.0, 5.0, out_dir), path)
    return path


def parameters(m: DCVQEModel) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in m.named_parameters()}


@dataclass(frozen=True)
class TrainWorkload:
    """``training.train_epoch`` over one batch per sample: forward, loss,
    backward and one Adam step."""

    name: str
    config: DCVQEConfig
    videos: int
    batch_size: int
    len_range: tuple[int, int]
    synth: bool  # inputs from data.synth_dataset, else from write_videos
    kind = "train"

    def setup(self, seed: int, workdir: Path) -> dict:
        if self.synth:
            manifest = data.synth_dataset(workdir, n_videos=self.videos,
                                          len_range=self.len_range,
                                          dim=self.config.input_dim, seed=seed)
        else:
            manifest = data.load_manifest(write_videos(workdir, self.videos, self.len_range,
                                                       self.config.input_dim, seed))
        seqs = data.load_sequences(manifest, max_len=self.config.max_seq_len)
        net = DCVQEModel.initialize(self.config, seed=seed)
        return {"seed": seed, "seqs": seqs, "model": net,
                "adam": training.AdamState.for_model(net),
                "train_cfg": training.TrainConfig(batch_size=self.batch_size,
                                                  learning_rate=LEARNING_RATE, loss=LOSS,
                                                  seed=seed)}

    def _batch(self, state: dict, i: int) -> list[data.FeatureSequence]:
        seqs = state["seqs"]
        epoch, b = divmod(i, len(seqs) // self.batch_size)
        order = np.random.default_rng([state["seed"], epoch]).permutation(len(seqs))
        return [seqs[j] for j in order[b * self.batch_size:(b + 1) * self.batch_size]]

    def warmup(self, state: dict) -> int:
        return 1

    def inputs(self, state: dict, i: int) -> list[np.ndarray]:
        return [s.features for s in self._batch(state, i)]

    def prepare_oracle(self, state: dict) -> None:
        """Reference loss of the first step, from the parameters before it."""
        params = parameters(state["model"])
        batch = self._batch(state, 0)
        preds = [oracle.reference_score(params, self.config, s.features) for s in batch]
        state["first_loss"] = oracle.reference_loss(preds, [s.mos for s in batch],
                                                    LOSS.alpha, LOSS.beta)

    def sample(self, state: dict, i: int) -> tuple[float, int]:
        batch = self._batch(state, i)
        loss = training.train_epoch(state["model"], batch, state["train_cfg"],
                                    state["adam"], i)
        return loss, sum(s.num_frames for s in batch)

    def correct(self, state: dict, i: int, loss: float) -> bool:
        return oracle.matches(loss, state["first_loss"]) if i == 0 else math.isfinite(loss)


@dataclass(frozen=True)
class ScoreWorkload:
    """One ``dcvqe predict`` per sample: read a feature file, truncate it to
    ``max_seq_len`` and score it with a model loaded from a checkpoint."""

    name: str
    config: DCVQEConfig
    videos: int
    len_range: tuple[int, int]
    kind = "score"

    def setup(self, seed: int, workdir: Path) -> dict:
        manifest = data.load_manifest(write_videos(workdir, self.videos, self.len_range,
                                                   self.config.input_dim, seed))
        net = DCVQEModel.initialize(self.config, seed=seed)
        ckpt = workdir / "model.ckpt"
        training.save_checkpoint(ckpt, training.Checkpoint.snapshot(
            net, training.AdamState.for_model(net), 0.0, 0))
        return {"paths": [manifest.resolve(e) for e in manifest.entries],
                "params": parameters(net),
                "model": training.load_checkpoint(ckpt).build_model()}

    def _path(self, state: dict, i: int) -> Path:
        return state["paths"][i % len(state["paths"])]

    def warmup(self, state: dict) -> int:
        return len(state["paths"])  # one pass over the files

    def inputs(self, state: dict, i: int) -> list[np.ndarray]:
        return [oracle.read_features(self._path(state, i))[:self.config.max_seq_len]]

    def prepare_oracle(self, state: dict) -> None:
        """Reference score of every file, from the parameters that were saved."""
        state["scores"] = [
            oracle.reference_score(state["params"], self.config,
                                   oracle.read_features(p)[:self.config.max_seq_len])
            for p in state["paths"]]

    def sample(self, state: dict, i: int) -> tuple[float, int]:
        seq = data.truncate(data.read_features(self._path(state, i)), self.config.max_seq_len)
        return state["model"].predict(seq.features), seq.num_frames

    def correct(self, state: dict, i: int, score: float) -> bool:
        return oracle.matches(score, state["scores"][i % len(state["scores"])])


WORKLOADS = {
    # per-clip and per-head Python overhead and the tape dominate the step
    "train-small": TrainWorkload("train-small", SMALL, videos=512, batch_size=16,
                                 len_range=(60, 300), synth=True),
    # tape-free; a third of the files are longer than 600 frames and get truncated
    "score-paper": ScoreWorkload("score-paper", PAPER, videos=16, len_range=(60, 900)),
    # BLAS, the 4096x128 input gradient and its Adam update weigh more
    "train-paper": TrainWorkload("train-paper", PAPER, videos=16, batch_size=4,
                                 len_range=(60, 300), synth=False),
}


@dataclass
class Loop:
    """Attempts and failures over the whole run, and the timings of one phase."""

    workload: object
    state: dict
    attempted: int = 0
    failed: int = 0
    times: list[float] = field(default_factory=list)
    frames: int = 0

    def attempt(self, i: int) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            out, frames = self.workload.sample(self.state, i)
        except Exception:  # a failed sample is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if not self.workload.correct(self.state, i, out):
            self.failed += 1
        self.frames += frames
        return elapsed

    def phase(self, seconds: float, first: int) -> None:
        """Timed samples ``first``, ``first + 1``, ... until ``seconds`` have
        passed."""
        self.times, self.frames = [], 0
        deadline = time.perf_counter() + seconds
        i = first
        while i == first or time.perf_counter() < deadline:
            self.times.append(self.attempt(i))
            i += 1


def attention_counts(config: DCVQEConfig, net: DCVQEModel, videos: list[np.ndarray]) -> dict:
    """MACs from an untimed forward with ``AttentionCost``, and the share of
    dense divide-score entries that the banded mask admits, per layer."""
    cost = AttentionCost()
    for features in videos:
        net.forward(features, cost=cost)
    out = {"model.attn_macs.divide": sum(cost.layer_stage(k, "divide")
                                         for k in range(1, config.num_layers + 1)),
           "model.attn_macs.conquer": sum(cost.layer_stage(k, "conquer")
                                          for k in range(1, config.num_layers + 1))}
    for k in range(1, config.num_layers + 1):
        admitted = dense = 0
        for features in videos:
            for start, stop in split_clips(len(features), config.base_clip_len * 2 ** (k - 1)):
                mask = AttentionMask.banded(stop - start + 1, config.temporal_range)
                admitted += int(mask.admissible.sum())
                dense += mask.size ** 2
        out[f"model.divide_admitted_frac.l{k}"] = admitted / dense
    return out


def summarize(loop: Loop, setup_times: list[float], peak_rss_mb: float) -> dict[str, float]:
    return {"setup_s": statistics.median(setup_times),
            "frames_per_s": loop.frames / sum(loop.times),
            "sample_ms_p50": 1e3 * statistics.median(loop.times),
            "sample_ms_p90": 1e3 * float(np.percentile(loop.times, 90)),
            "peak_rss_mb": peak_rss_mb}
