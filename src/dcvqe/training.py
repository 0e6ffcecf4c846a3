"""Optimizer, training loop, best-checkpoint retention, and repetitions.

Batches are formed over whole videos. Each video's forward records on a
graph of its own, and the loss on one more whose inputs are all the
batch's scores, so the correlation term sees the entire batch, as its
definition requires. Each video's backward is seeded with its score's
gradient of the loss, and the sum of the videos' gradients keeps the bits
of one graph over the whole batch. At the paper shape, with a second core
free, a batch's videos run on two threads. Validation after every epoch
retains the checkpoint with the lowest validation loss (ties keep the
earlier epoch). Validation and every scoring command run ``score_each``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


def adam_step(named_params: Sequence[tuple[str, Tensor]], grads: Sequence[np.ndarray],
              state: AdamState, lr: float) -> None:
    """One Adam update with bias correction, at b1 = ``ADAM_BETA1``,
    b2 = ``ADAM_BETA2`` and eps = ``ADAM_EPS``, of each parameter by the
    gradient at its position in ``grads``, as ``backward`` returns them. The
    moments and the parameters are updated in place, in the float order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, so results are bit-identical
    to that formula. A non-finite gradient raises ``FloatingPointError``
    before any parameter, moment or the step count changes.

    The update runs over flat views of the gradient, the moments and
    ``p.data``, ``ADAM_BLOCK`` elements at a time, through two scratch
    buffers of one block: each element sees the same operations as in one
    pass over whole arrays, but the working set stays in the cache. The
    views write through to the arrays that the model and the state hold."""
    for (name, _), g in zip(named_params, grads, strict=True):
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    corr1, corr2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    largest = max((p.size for _, p in named_params), default=0)
    buf_a, buf_b = np.empty((2, min(largest, ADAM_BLOCK)))
    for (name, p), g in zip(named_params, grads):
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


@contextlib.contextmanager
def numeric_failure(where: str):
    """Raise at the first overflow, invalid value or division by zero, not
    warn on the way to a non-finite loss or score, and name ``where`` in the
    error. Every training batch, validation pass and scored video runs
    under it. Underflow stays silent: the masked softmax relies on it."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} in {where}") from exc


def train_epoch(model: DCVQEModel, train_seqs: Sequence[FeatureSequence],
                cfg: TrainConfig, state: AdamState, epoch_index: int) -> float:
    """One pass over the training videos; returns the mean batch loss.

    The shuffle depends only on (seed, epoch_index), so resumed runs replay
    the exact same batch order. Each batch's step (``_batch_step``) and Adam
    update run under ``numeric_failure`` (epoch and 1-based batch)."""
    if not train_seqs:
        raise ValueError("training set is empty")
    order = np.random.default_rng([cfg.seed, epoch_index]).permutation(len(train_seqs))
    losses = []
    for number, lo in enumerate(range(0, len(order), cfg.batch_size), start=1):
        batch = [train_seqs[i] for i in order[lo:lo + cfg.batch_size]]
        with numeric_failure(f"epoch {epoch_index + 1}, batch {number}"):
            value, grads = _batch_step(model, batch, cfg.loss)
            adam_step(model.named_parameters(), grads, state, cfg.learning_rate)
        losses.append(value)
    return float(np.mean(losses))


def _batch_step(model: DCVQEModel, batch: Sequence[FeatureSequence],
                loss_cfg: LossConfig) -> tuple[float, list[np.ndarray]]:
    """The loss of one batch and its gradient for each model parameter.

    Each video's forward records on a graph of its own and the loss on one
    more, whose inputs are the videos' scores; the loss is the one term
    that couples the videos. Each video's backward is then seeded with its
    score's row of the loss gradient, taken last video first, and its graph
    is dropped. The per-video gradients are summed as ``backward`` sums
    them over one graph of the whole batch, ``((g_B + g_B-1) + ...) + g_1``,
    each as soon as its turn comes, so the bits are those of that graph.

    When the second core is free and ``linear`` would split every video's
    input projection (``autodiff._large``), the forwards, and then the
    backwards, are shared between this thread and autodiff's helper thread,
    each taking the next video when it is free, and ``linear`` splits
    nothing meanwhile. The loss and the sum stay on this thread. A
    non-finite loss raises ``FloatingPointError``."""
    params = model.parameters()
    n = len(batch)
    graphs, scores, grads = [None] * n, [None] * n, [None] * n
    total: list[np.ndarray] = []  # the sum over videos n - 1, ..., n - added
    added = 0
    both = (n > 1 and ad._two_cores()
            and all(ad._large(s.features, model.config.model_dim) for s in batch))

    def each(work, items, after=lambda: None):
        if both:
            ad._each_on_two_threads(work, items, after)
        else:
            for item in items:
                work(item)
                after()

    def forward(i):
        with Graph() as graphs[i]:
            scores[i] = model.forward(batch[i].features)

    each(forward, range(n))
    with Graph() as graph:
        loss = total_loss(scores, [s.mos for s in batch], loss_cfg)
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite training loss {value}")
    seeds = ad.backward(loss, graph, scores)

    def backward(i):
        grads[i] = ad.backward(scores[i], graphs[i], params, seed=seeds[i])
        graphs[i] = None

    def add_ready():  # the next term of the sum, and any after it, if ready
        nonlocal added, total
        while added < n and grads[n - 1 - added] is not None:
            term, grads[n - 1 - added] = grads[n - 1 - added], None
            if not added:
                total = term
            elif added == 1:  # the backward's arrays are read-only: the sum gets its own
                total = [acc + g for acc, g in zip(total, term)]
            else:
                for acc, g in zip(total, term):
                    acc += g
            added += 1

    each(backward, range(n - 1, -1, -1), add_ready)
    return value, total


def score_each(model: DCVQEModel, seqs: Iterable[FeatureSequence], embed: bool = False,
               name=lambda s: f"video {s.video_id!r}") -> Iterator[tuple]:
    """Each of ``seqs`` in turn with its score (``model.predict``), or with
    its flat embedding if ``embed``, computed with no graph under
    ``numeric_failure(name(seq))``; a non-finite result raises
    ``FloatingPointError`` naming it too. Every scored video runs here."""
    for seq in seqs:
        where = name(seq)
        with numeric_failure(where):
            out = (model.embed(seq.features).data.reshape(-1) if embed
                   else model.predict(seq.features))
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite {'embedding' if embed else 'score'} "
                                     f"for {where}")
        yield seq, out


def validation_loss(model: DCVQEModel, val_seqs: Sequence[FeatureSequence],
                    loss_cfg: LossConfig) -> float:
    """Total loss over the whole validation set, scored by ``score_each``."""
    scored = list(score_each(model, val_seqs))
    return total_loss([p for _, p in scored], [s.mos for s, _ in scored], loss_cfg).item()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """The model's config and parameters, the optimizer state that trained
    them, and the epoch and validation loss at which they were taken."""

    config: DCVQEConfig
    params: dict[str, np.ndarray]
    adam: AdamState
    best_val_loss: float
    epoch: int

    @classmethod
    def snapshot(cls, model: DCVQEModel, state: AdamState, val_loss: float,
                 epoch: int) -> "Checkpoint":
        """Copies of the parameters and of the Adam state: training on
        leaves the checkpoint as it is."""
        return cls(config=model.config,
                   params={k: p.data.copy() for k, p in model.named_parameters()},
                   adam=AdamState(step=state.step, m={k: a.copy() for k, a in state.m.items()},
                                  v={k: a.copy() for k, a in state.v.items()}),
                   best_val_loss=val_loss, epoch=epoch)

    def build_model(self) -> DCVQEModel:
        """A model over copies of ``params``: nothing is drawn at random, and
        training the model leaves the checkpoint as it is."""
        return DCVQEModel(self.config, {name: Tensor(value.copy(), name=name)
                                        for name, value in self.params.items()})


def save_checkpoint(path, cp: Checkpoint) -> None:
    """Deterministic binary serialization: byte-identical for equal contents.

    The bytes stream to a temporary file in the directory of ``path``, which
    then replaces ``path`` in one rename: a write that fails leaves the
    previous file as it was and no temporary file (a killed one may leave
    the temporary file, never a cut checkpoint)."""
    path = Path(path)
    tmp = path.with_name(f".checkpoint-{os.getpid()}.tmp")
    names = list(cp.params)
    header = json.dumps({
        "config": asdict(cp.config),
        "epoch": cp.epoch,
        "best_val_loss": cp.best_val_loss,
        "adam_step": cp.adam.step,
        "params": [{"name": n, "shape": list(cp.params[n].shape)} for n in names],
    }, sort_keys=True).encode()
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
            fh.write(header)
            for group in (cp.params, cp.adam.m, cp.adam.v):
                for n in names:
                    fh.write(np.ascontiguousarray(group[n], dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:  # after the rename there is nothing left to remove
        tmp.unlink(missing_ok=True)


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
    return Checkpoint(config=cfg, params=groups[0],
                      adam=AdamState(step=adam_step, m=groups[1], v=groups[2]),
                      best_val_loss=float(loss), epoch=epoch)


# ---------------------------------------------------------------------------
# fit / evaluate / repetitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    wall_time_s: float


def fit(model: DCVQEModel, train_seqs: Sequence[FeatureSequence],
        val_seqs: Sequence[FeatureSequence], cfg: TrainConfig,
        start_epoch: int = 0, state: AdamState | None = None,
        on_epoch: Callable[[EpochRecord], None] | None = None) -> Checkpoint:
    """Train for up to ``max_epochs`` epochs with per-epoch validation and
    return the checkpoint of the lowest validation loss (ties: the earlier
    epoch), or, when no epoch runs, a snapshot at an infinite loss.

    ``model`` and ``state`` (a fresh ``AdamState`` when None) are updated in
    place and hold the final state; each epoch's record reaches the caller
    only through ``on_epoch``. A run resumes at ``start_epoch`` with the
    ``state`` it trained with. The shuffle schedule depends only on (seed,
    epoch), so a resumed run reproduces the unbroken run's parameters, but
    its best checkpoint covers only the epochs that it ran. Validation runs
    under ``numeric_failure`` too.
    """
    if not val_seqs:
        raise ValueError("validation set is empty")
    if state is None:
        state = AdamState.for_model(model)
    best: Checkpoint | None = None
    for epoch_index in range(start_epoch, cfg.max_epochs):
        t0 = time.perf_counter()
        train_loss = train_epoch(model, train_seqs, cfg, state, epoch_index)
        with numeric_failure(f"epoch {epoch_index + 1}, validation"):
            val_loss = validation_loss(model, val_seqs, cfg.loss)
            if not math.isfinite(val_loss):  # a NaN would never compare as worse than "best"
                raise FloatingPointError(f"non-finite validation loss {val_loss}")
        if on_epoch is not None:
            on_epoch(EpochRecord(epoch=epoch_index + 1, train_loss=train_loss,
                                 val_loss=val_loss, wall_time_s=time.perf_counter() - t0))
        if best is None or val_loss < best.best_val_loss:
            best = Checkpoint.snapshot(model, state, val_loss, epoch_index + 1)
    if best is None:  # start_epoch at or beyond max_epochs: nothing trained
        best = Checkpoint.snapshot(model, state, math.inf, start_epoch)
    return best


def evaluate(model: DCVQEModel, test_seqs: Iterable[FeatureSequence]) -> MetricsReport:
    """The four criteria over the videos of ``test_seqs``, each scored in
    turn by ``score_each`` and dropped: ``test_seqs`` may read them one at
    a time (``data.read_sequences``)."""
    scored = [(p, s.mos) for s, p in score_each(model, test_seqs)]
    return compute_report([p for p, _ in scored], [g for _, g in scored])


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
        best = fit(model, train_seqs, val_seqs, replace(train_cfg, seed=seed_r))
        runs.append(RepetitionRun(seed=seed_r, report=evaluate(best.build_model(), test_seqs)))
    return RepetitionResult(median=median_report([run.report for run in runs]), runs=runs)


# ---------------------------------------------------------------------------
# finite-difference suite on a tiny end-to-end configuration
# ---------------------------------------------------------------------------

TINY_CONFIG = DCVQEConfig(input_dim=12, model_dim=8, num_heads=2, num_layers=2,
                          base_clip_len=4, temporal_range=2, max_seq_len=12)


def gradcheck_suite(seed: int = 0) -> ad.GradCheckReport:
    """Check every model parameter's gradient of the full training loss
    against central differences on ``TINY_CONFIG``: a batch of 3 videos of
    10 frames each, drawn with ``seed``, and a step of h = 1e-5.

    Parameters are drawn at a larger scale than the training init: near zero
    the attention softmax is uniform and deep-path gradients sink below
    finite-difference resolution, which would test noise instead of the
    chain rule.
    """
    rng = np.random.default_rng(seed)
    model = DCVQEModel.initialize(TINY_CONFIG, seed=seed, init_scale=0.5)
    videos = [rng.normal(0.0, 1.0, (10, TINY_CONFIG.input_dim)) for _ in range(3)]
    targets = rng.uniform(1.0, 5.0, (3, 1))
    loss_cfg = LossConfig(alpha=0.7, beta=0.3, variant="correlation")

    def objective() -> Tensor:
        return total_loss([model.forward(v) for v in videos], targets, loss_cfg)

    return ad.gradient_check(objective, model.parameters(), h=1e-5)
