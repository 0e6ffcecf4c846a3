"""Spans around the calls into dcvqe's modules, recorded from outside.

``Tracer.installed()`` replaces the public functions of ``data``, ``model``,
``autodiff``, ``losses`` and ``training`` by wrappers that record one span
per call: name, start, end, parent span and the sample (step or video id)
that was running. Nothing in the package itself changes; the originals are
put back when the context exits. Autodiff primitives are not wrapped, since
a training step makes over ten thousand of them: the tape handed to
``autodiff.backward`` is counted by op instead.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter
from dataclasses import dataclass

from dcvqe import autodiff, data, losses, model, training

# (owner, attribute, span name). ``training`` imports ``total_loss`` by name,
# so it is wrapped at both places it can be looked up from.
TRACED = (
    (data, "synth_dataset", "data.synth_dataset"),
    (data, "load_sequences", "data.load_sequences"),
    (data, "read_features", "data.read_features"),
    (data, "truncate", "data.truncate"),
    (model.DCVQEModel, "forward", "model.forward"),
    (model.DCVQEModel, "predict", "model.predict"),
    (model.DCVQEModel, "project_input", "model.project_input"),
    (model.DCVQEModel, "add_positional", "model.add_positional"),
    (model.DCVQEModel, "dctr_layer", "model.dctr_layer"),
    (model, "transformer_d", "model.transformer_d"),
    (model, "transformer_c", "model.transformer_c"),
    (losses, "total_loss", "losses.total_loss"),
    (training, "total_loss", "losses.total_loss"),
    (training, "train_epoch", "training.train_epoch"),
    (training, "adam_step", "training.adam_step"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (autodiff, "backward", "autodiff.backward"),
)

TAPE_OPS = ("matmul", "slice_cols", "softmax_masked", "concat_cols", "transpose", "scale")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    sample: object   # step or video index, or a set-up label

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``sample`` is set by the loop driving it."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.tapes: dict[object, Counter] = {}
        self.sample: object = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "model.dctr_layer":
                label = f"{name}{args[1]}"  # (self, layer, ...)
            elif name == "autodiff.backward":
                graph = args[1] if len(args) > 1 else kwargs["graph"]
                self.tapes[self.sample] = Counter(node.op for node in graph.nodes)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(label, start, end, parent, self.sample)
        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TRACED]
        try:
            for owner, attr, name in TRACED:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def layer_metrics(self, samples: list[int], num_layers: int) -> dict[str, float]:
        """Per-layer times (median over ``samples`` of each sample's total)
        and the tape counts of the first of them."""
        chosen = set(samples)
        child_time = Counter()
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        per_sample: dict[int, Counter] = {s: Counter() for s in samples}
        for index, span in enumerate(self.spans):
            if span.sample not in chosen:
                continue
            totals = per_sample[span.sample]
            totals[span.name] += span.duration
            totals[span.name + "#calls"] += 1
            if span.name.startswith("model.dctr_layer"):
                totals["model.dctr_layer_self"] += span.duration - child_time[index]

        def ms(key: str) -> float:
            return 1e3 * statistics.median(t[key] for t in per_sample.values())

        out = {
            "model.forward_ms": 1e3 * statistics.median(
                t["model.forward"] / t["model.forward#calls"] for t in per_sample.values()),
            "model.project_input_ms": ms("model.project_input"),
            "model.dctr_layer_self_ms": ms("model.dctr_layer_self"),
            "model.transformer_d_ms": ms("model.transformer_d"),
            "model.transformer_c_ms": ms("model.transformer_c"),
            "model.transformer_d_calls": per_sample[samples[0]]["model.transformer_d#calls"],
        }
        for layer in range(1, num_layers + 1):
            out[f"model.dctr_layer{layer}_ms"] = ms(f"model.dctr_layer{layer}")
        optional = {"data.read_features_ms": "data.read_features",
                    "autodiff.backward_ms": "autodiff.backward",
                    "losses.total_loss_ms": "losses.total_loss",
                    "training.adam_step_ms": "training.adam_step"}
        for metric, key in optional.items():
            if any(t[key + "#calls"] for t in per_sample.values()):
                out[metric] = ms(key)
        setup = [s.duration for s in self.spans
                 if s.name == "data.load_sequences" and isinstance(s.sample, str)]
        if setup:
            out["data.load_sequences_s"] = statistics.median(setup)
        tape = self.tapes.get(samples[0], Counter())
        out["autodiff.tape_nodes_per_step"] = sum(tape.values())
        for op in TAPE_OPS:
            out[f"autodiff.tape_nodes.{op}"] = tape[op]
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "sample": s.sample} for s in self.spans]
