"""Optimizer, training loop, best-checkpoint retention, and repetitions.

Batches are formed over whole videos; each video in a batch runs its forward
pass sequentially on one shared graph so the correlation term of the loss
sees the entire batch, as its definition requires. Validation after every
epoch retains the checkpoint with the lowest validation loss (ties keep the
earlier epoch).
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import data as data_io
from .autodiff import Graph, Tensor
from .data import DatasetManifest, FeatureSequence
from .losses import LossConfig, total_loss
from .metrics import MetricsReport, compute_report, median_report
from .model import DCVQEConfig, DCVQEModel, parameter_shapes

CHECKPOINT_MAGIC = b"DCKP"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 75
    batch_size: int = 16
    learning_rate: float = 1e-4
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.learning_rate < math.inf:  # 0 freezes the parameters; NaN fails
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        # the correlation term needs at least two samples to be informative
        if self.loss.variant != "l1" and self.loss.beta > 0 and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 when the order-constraint term is active")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def for_model(cls, model: DCVQEModel) -> "AdamState":
        return cls(step=0,
                   m={name: np.zeros(p.shape) for name, p in model.named_parameters()},
                   v={name: np.zeros(p.shape) for name, p in model.named_parameters()})


# elements per block of an Adam update (2**14 measured fastest at the 4096 x 128
# input weight): a block of each of the six arrays involved fits in the cache
ADAM_BLOCK = 1 << 14
# the moment decay rates and the denominator guard of Kingma and Ba's defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(named_params: Sequence[tuple[str, Tensor]], state: AdamState, lr: float) -> None:
    """One Adam update with bias correction, at b1 = ``ADAM_BETA1``,
    b2 = ``ADAM_BETA2`` and eps = ``ADAM_EPS``. The moments and the parameters
    are updated in place, in the float order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, so results are bit-identical
    to that formula. Missing gradients are treated as zero (the moments
    still decay). A non-finite gradient raises ``FloatingPointError`` before
    any parameter, moment or the step count changes.

    The update runs over flat views of the gradient, the moments and
    ``p.data``, ``ADAM_BLOCK`` elements at a time, through two scratch
    buffers of one block: each element sees the same operations as in one
    pass over whole arrays, but the working set stays in the cache. The
    views write through to the arrays that the model and the state hold."""
    for name, p in named_params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    corr1, corr2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    largest = max((p.size for _, p in named_params), default=0)
    buf_a, buf_b = np.empty((2, min(largest, ADAM_BLOCK)))
    for name, p in named_params:
        g = p.grad if p.grad is not None else np.zeros(p.shape)
        # a flat view of a C-ordered array is no copy (p.data is C-ordered by contract)
        m = state.m[name] = np.ascontiguousarray(state.m[name])
        v = state.v[name] = np.ascontiguousarray(state.v[name])
        gf, mf, vf, pf = (a.reshape(-1) for a in (g, m, v, p.data))
        for lo in range(0, pf.size, ADAM_BLOCK):
            blk = slice(lo, lo + ADAM_BLOCK)
            g, m, v, q = gf[blk], mf[blk], vf[blk], pf[blk]
            a, b = buf_a[:q.size], buf_b[:q.size]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
            np.multiply(g, g, out=a)
            a *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += a
            np.divide(m, corr1, out=a)
            a *= lr
            np.divide(v, corr2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            q -= a


def _batch_predictions(model: DCVQEModel, batch: Sequence[FeatureSequence]) -> Tensor:
    return ad.concat_rows([model.forward(seq.features) for seq in batch])


def train_epoch(model: DCVQEModel, train_seqs: Sequence[FeatureSequence],
                cfg: TrainConfig, state: AdamState, epoch_index: int) -> float:
    """One pass over the training videos; returns the mean batch loss.

    The shuffle depends only on (seed, epoch_index), so resumed runs replay
    the exact same batch order.
    """
    if not train_seqs:
        raise ValueError("training set is empty")
    order = np.random.default_rng([cfg.seed, epoch_index]).permutation(len(train_seqs))
    losses = []
    for lo in range(0, len(order), cfg.batch_size):
        batch = [train_seqs[i] for i in order[lo:lo + cfg.batch_size]]
        ad.zero_grads(model.parameters())
        with Graph() as graph:
            preds = _batch_predictions(model, batch)
            targets = Tensor(np.array([[s.mos] for s in batch]))
            loss = total_loss(preds, targets, cfg.loss)
        value = loss.item()
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite training loss {value} in epoch "
                                     f"{epoch_index + 1}")
        ad.backward(loss, graph)
        adam_step(model.named_parameters(), state, cfg.learning_rate)
        losses.append(value)
    return float(np.mean(losses))


def validation_loss(model: DCVQEModel, val_seqs: Sequence[FeatureSequence],
                    loss_cfg: LossConfig) -> float:
    """Total loss over the whole validation set, no graph retained."""
    if not val_seqs:
        raise ValueError("validation set is empty")
    preds = np.array([[model.predict(s.features)] for s in val_seqs])
    targets = np.array([[s.mos] for s in val_seqs])
    return total_loss(Tensor(preds), Tensor(targets), loss_cfg).item()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: DCVQEConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_step_count: int
    best_val_loss: float
    epoch: int

    @classmethod
    def snapshot(cls, model: DCVQEModel, state: AdamState, val_loss: float,
                 epoch: int) -> "Checkpoint":
        return cls(config=model.config,
                   params={k: p.data.copy() for k, p in model.named_parameters()},
                   adam_m={k: a.copy() for k, a in state.m.items()},
                   adam_v={k: a.copy() for k, a in state.v.items()},
                   adam_step_count=state.step, best_val_loss=val_loss, epoch=epoch)

    def build_model(self) -> DCVQEModel:
        """A model over copies of ``params``: nothing is drawn at random, and
        training the model leaves the checkpoint as it is."""
        return DCVQEModel(self.config, {name: Tensor(value.copy(), name=name)
                                        for name, value in self.params.items()})

    def adam_state(self) -> AdamState:
        return AdamState(step=self.adam_step_count,
                         m={k: a.copy() for k, a in self.adam_m.items()},
                         v={k: a.copy() for k, a in self.adam_v.items()})


def save_checkpoint(path, cp: Checkpoint) -> None:
    """Deterministic binary serialization: byte-identical for equal contents."""
    names = list(cp.params)
    header = json.dumps({
        "config": asdict(cp.config),
        "epoch": cp.epoch,
        "best_val_loss": cp.best_val_loss,
        "adam_step": cp.adam_step_count,
        "params": [{"name": n, "shape": list(cp.params[n].shape)} for n in names],
    }, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for group in (cp.params, cp.adam_m, cp.adam_v):
            for n in names:
                fh.write(np.ascontiguousarray(group[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a file written by ``save_checkpoint``. A malformed header (counters
    that are not integers >= 0, a NaN loss, JSON nested too deeply), a short
    or over-long payload and a non-finite value in ``params``, ``adam_m`` or
    ``adam_v`` each raise ``FormatError`` at the offending byte offset. The
    header's ``params`` must list ``parameter_shapes`` of its config exactly
    (names, order, integer shapes); the first entry that differs fails at
    byte 12. Payloads are read by the shapes that the config derives."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise data_io.FormatError(f"{path} is not a checkpoint file", offset=0)
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise data_io.FormatError(f"unsupported checkpoint version {version}", offset=4)
    try:  # a malformed header surfaces as one of these while it is read
        header = json.loads(raw[12:12 + header_len])
        config = header["config"]
        keys = set(asdict(DCVQEConfig()))
        if not (isinstance(config, dict) and set(config) == keys and all(
                type(v) is int or (k == "temporal_range" and v is None)
                for k, v in config.items())):
            raise ValueError(f"config {config} is not a model configuration")
        cfg = DCVQEConfig(**config)
        listed = header["params"]
        if cfg.num_layers > len(listed):  # cannot match; bounds the layout derived next
            raise ValueError(f"{cfg.num_layers} layers, but {len(listed)} parameters listed")
        shapes = parameter_shapes(cfg)
        layout = [{"name": n, "shape": list(dims)} for n, dims in shapes.items()]
        for i, (entry, want) in enumerate(itertools.zip_longest(listed, layout)):
            # compared as JSON text: as numbers, 6.0 and true would pass for 6 and 1
            if json.dumps(entry, sort_keys=True) != json.dumps(want, sort_keys=True):
                raise ValueError(f"parameter {i} of the header is {entry}, but the config "
                                 f"lays out {want}")
        adam_step, epoch, loss = header["adam_step"], header["epoch"], header["best_val_loss"]
        if not all(type(n) is int and n >= 0 for n in (adam_step, epoch)):
            raise ValueError(f"adam_step {adam_step!r} and epoch {epoch!r} must be integers >= 0")
        if type(loss) not in (int, float) or math.isnan(loss):  # Infinity: no epoch ran
            raise ValueError(f"best_val_loss must be a number other than NaN, got {loss!r}")
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise data_io.FormatError(f"corrupt checkpoint header: {exc!r}", offset=12) from exc
    offset = 12 + header_len
    groups = []
    for what in ("params", "adam_m", "adam_v"):
        group = {}
        for n, shape in shapes.items():
            count = math.prod(shape)
            end = offset + count * 8
            if end > len(raw):
                raise data_io.FormatError(f"checkpoint payload truncated at {len(raw)}",
                                          offset=len(raw))
            values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:  # training never writes one, so the file is corrupt
                raise data_io.FormatError(f"non-finite value {values[bad[0]]} in {what} "
                                          f"{n!r} at element {bad[0]}",
                                          offset=offset + 8 * int(bad[0]))
            group[n] = values.reshape(shape).copy()
            offset = end
        groups.append(group)
    if offset != len(raw):
        raise data_io.FormatError(f"{len(raw) - offset} trailing bytes", offset=offset)
    return Checkpoint(config=cfg, params=groups[0], adam_m=groups[1], adam_v=groups[2],
                      adam_step_count=adam_step, best_val_loss=float(loss), epoch=epoch)


# ---------------------------------------------------------------------------
# fit / evaluate / repetitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    wall_time_s: float


@dataclass
class FitResult:
    best: Checkpoint      # lowest validation loss (ties: earlier epoch)
    final: Checkpoint     # state after the last epoch, for resuming
    history: list[EpochRecord]


def fit(model: DCVQEModel, train_seqs: Sequence[FeatureSequence],
        val_seqs: Sequence[FeatureSequence], cfg: TrainConfig,
        start_epoch: int = 0, state: AdamState | None = None,
        on_epoch: Callable[[EpochRecord], None] | None = None) -> FitResult:
    """Train for up to ``max_epochs`` epochs with per-epoch validation.

    ``start_epoch``/``state`` allow resuming from a prior checkpoint's final
    state; the shuffle schedule depends only on (seed, epoch), so a resumed
    run reproduces the unbroken trajectory.
    """
    if not val_seqs:
        raise ValueError("validation set is empty")
    if state is None:
        state = AdamState.for_model(model)
    history: list[EpochRecord] = []
    best: Checkpoint | None = None
    for epoch_index in range(start_epoch, cfg.max_epochs):
        t0 = time.perf_counter()
        train_loss = train_epoch(model, train_seqs, cfg, state, epoch_index)
        val_loss = validation_loss(model, val_seqs, cfg.loss)
        if not math.isfinite(val_loss):  # a NaN would never compare as worse than "best"
            raise FloatingPointError(f"non-finite validation loss {val_loss} in epoch "
                                     f"{epoch_index + 1}")
        record = EpochRecord(epoch=epoch_index + 1, train_loss=train_loss,
                             val_loss=val_loss, wall_time_s=time.perf_counter() - t0)
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if best is None or val_loss < best.best_val_loss:
            best = Checkpoint.snapshot(model, state, val_loss, epoch_index + 1)
    final = Checkpoint.snapshot(model, state,
                                history[-1].val_loss if history else math.inf,
                                history[-1].epoch if history else start_epoch)
    if best is None:  # start_epoch beyond max_epochs: nothing trained
        best = final
    return FitResult(best=best, final=final, history=history)


def evaluate(model: DCVQEModel, test_seqs: Sequence[FeatureSequence]) -> MetricsReport:
    """Per-video inference (no graphs), then the four criteria."""
    if len(test_seqs) < 2:
        raise ValueError(f"evaluate needs >= 2 videos, got {len(test_seqs)}")
    preds = [model.predict(s.features) for s in test_seqs]
    targets = [s.mos for s in test_seqs]
    return compute_report(preds, targets)


@dataclass
class RepetitionRun:
    seed: int
    report: MetricsReport


@dataclass
class RepetitionResult:
    median: MetricsReport
    runs: list[RepetitionRun]


def run_repetitions(manifest: DatasetManifest, model_cfg: DCVQEConfig,
                    train_cfg: TrainConfig) -> RepetitionResult:
    """Repeat split + init + fit + evaluate with seeds seed+r; report medians."""
    runs = []
    for r in range(train_cfg.repetitions):
        seed_r = train_cfg.seed + r
        tr_m, va_m, te_m = data_io.split(manifest, seed_r)
        if len(te_m) < 2:  # same size in every repetition: fail before the first fit
            raise ValueError(f"evaluate needs >= 2 videos, got {len(te_m)}")
        train_seqs = data_io.load_sequences(tr_m, max_len=model_cfg.max_seq_len)
        val_seqs = data_io.load_sequences(va_m, max_len=model_cfg.max_seq_len)
        test_seqs = data_io.load_sequences(te_m, max_len=model_cfg.max_seq_len)
        model = DCVQEModel.initialize(model_cfg, seed=seed_r)
        best = fit(model, train_seqs, val_seqs, replace(train_cfg, seed=seed_r)).best
        runs.append(RepetitionRun(seed=seed_r, report=evaluate(best.build_model(), test_seqs)))
    return RepetitionResult(median=median_report([run.report for run in runs]), runs=runs)


# ---------------------------------------------------------------------------
# finite-difference suite on a tiny end-to-end configuration
# ---------------------------------------------------------------------------

TINY_CONFIG = DCVQEConfig(input_dim=12, model_dim=8, num_heads=2, num_layers=2,
                          base_clip_len=4, temporal_range=2, max_seq_len=12)


def gradcheck_suite(seed: int = 0, h: float = 1e-5,
                    batch: int = 3, seq_len: int = 10) -> ad.GradCheckReport:
    """Check every model parameter's gradient of the full training loss
    against central differences on a tiny configuration.

    Parameters are drawn at a larger scale than the training init: near zero
    the attention softmax is uniform and deep-path gradients sink below
    finite-difference resolution, which would test noise instead of the
    chain rule.
    """
    rng = np.random.default_rng(seed)
    model = DCVQEModel.initialize(TINY_CONFIG, seed=seed, init_scale=0.5)
    videos = [rng.normal(0.0, 1.0, (seq_len, TINY_CONFIG.input_dim)) for _ in range(batch)]
    targets = Tensor(rng.uniform(1.0, 5.0, (batch, 1)))
    loss_cfg = LossConfig(alpha=0.7, beta=0.3, variant="correlation")

    def objective() -> Tensor:
        preds = ad.concat_rows([model.forward(v) for v in videos])
        return total_loss(preds, targets, loss_cfg)

    return ad.gradient_check(objective, model.parameters(), h=h)
