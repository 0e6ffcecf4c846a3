"""Checks of the benchmark itself, on tiny workloads that run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math

import numpy as np
import pytest

import run

SPEC = run.use_source_tree()

import oracle  # noqa: E402  (needs the source tree on the path)
import spans  # noqa: E402
import workloads  # noqa: E402
from dcvqe import losses  # noqa: E402
from dcvqe.model import DCVQEConfig, DCVQEModel  # noqa: E402

TINY = DCVQEConfig(input_dim=8, model_dim=8, num_heads=2, num_layers=3, base_clip_len=4,
                   temporal_range=2, max_seq_len=40)
TINY_TRAIN = workloads.TrainWorkload("tiny-train", TINY, videos=8, batch_size=4,
                                     len_range=(5, 30), synth=True)
TINY_SCORE = workloads.ScoreWorkload("tiny-score", TINY, videos=4, len_range=(5, 60))


def _run(tmp_path, workload, trace=False, seed=3):
    return run.run_workload(workload, seed, 0.3, trace, tmp_path, setups=1)


def test_oracle_matches_model_and_loss():
    rng = np.random.default_rng(0)
    net = DCVQEModel.initialize(TINY, seed=1, init_scale=0.5)
    params = workloads.parameters(net)
    videos = [rng.normal(size=(n, TINY.input_dim)) for n in (3, 17, 40)]
    preds = [net.predict(v) for v in videos]
    refs = [oracle.reference_score(params, TINY, v) for v in videos]
    assert all(oracle.matches(p, r) for p, r in zip(preds, refs))
    targets = [1.0, 4.0, 2.5]
    loss = losses.total_loss(np.array(preds), np.array(targets), workloads.LOSS).item()
    assert oracle.matches(loss, oracle.reference_loss(refs, targets, 0.7, 0.3))


def test_corrupted_score_raises_failed_frac(tmp_path, monkeypatch):
    clean = _run(tmp_path / "clean", TINY_SCORE)
    assert clean["attempted"] > 5 and clean["failed_frac"] == 0.0

    predict = DCVQEModel.predict
    calls = []

    def corrupt_sixth(self, features):
        calls.append(None)
        score = predict(self, features)
        return score * (1 + 1e-6) if len(calls) == 6 else score

    monkeypatch.setattr(DCVQEModel, "predict", corrupt_sixth)
    corrupted = _run(tmp_path / "corrupted", TINY_SCORE)
    assert corrupted["failed"] == 1
    assert corrupted["failed_frac"] > clean["failed_frac"]


def test_training_loss_is_checked(tmp_path, monkeypatch):
    train_epoch = workloads.training.train_epoch
    monkeypatch.setattr(workloads.training, "train_epoch",
                        lambda *a: train_epoch(*a) + 1e-6)
    result = _run(tmp_path, TINY_TRAIN)
    assert result["failed"] == 1  # the first step, compared with the reference


COUNTS = ("model.transformer_d_calls", "model.attn_macs.divide", "model.attn_macs.conquer",
          "model.divide_admitted_frac.l1", "model.divide_admitted_frac.l2",
          "model.divide_admitted_frac.l3", "autodiff.tape_nodes_per_step",
          *(f"autodiff.tape_nodes.{op}" for op in spans.TAPE_OPS))


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_SCORE], ids=lambda w: w.name)
def test_traced_run_reports_every_layer_and_repeats_counts(tmp_path, workload):
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TRACED]
    first = _run(tmp_path / "a", workload, trace=True)
    second = _run(tmp_path / "b", workload, trace=True)
    assert [owner.__dict__[attr] for owner, attr, _ in spans.TRACED] == originals
    assert {m["name"] for m in SPEC["per_layer"]} <= set(first["metrics"])
    assert all(first["metrics"][c] == second["metrics"][c] for c in COUNTS)
    names = {s["name"] for s in first["spans"]}
    assert {"model.forward", "model.dctr_layer1", "model.transformer_d"} <= names
    if workload.kind == "train":
        assert first["metrics"]["autodiff.tape_nodes_per_step"] > 0
        assert {"autodiff.backward_ms", "training.adam_step_ms",
                "data.load_sequences_s"} <= set(first["metrics"])
    else:
        assert "data.read_features_ms" in first["metrics"]


def test_result_line_carries_exactly_the_declared_metrics(tmp_path, capsys):
    result = _run(tmp_path, TINY_SCORE)
    result["env"] = run.environment(3)
    run.report(result, SPEC)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [m for m in line["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in line["metrics"].values())


def test_compare_refuses_runs_with_other_settings(tmp_path):
    record = {"workload": "score-paper", "kind": "score", "trace": 0, "seconds": 30,
              "env": {"nproc": 2, "threads": {"OPENBLAS_NUM_THREADS": "1"}, "seed": 1},
              "metrics": {"frames_per_s": 10.0}, "failed_frac": 0.0}
    for side, threads in (("a", "1"), ("b", "2")):
        (tmp_path / side).mkdir()
        other = json.loads(json.dumps(record))
        other["env"]["threads"]["OPENBLAS_NUM_THREADS"] = threads
        (tmp_path / side / "r.json").write_text(json.dumps(other))
    with pytest.raises(run.BenchError, match="different settings"):
        run.compare(tmp_path / "a", tmp_path / "b", SPEC)


def test_verdict_marks_wide_spread_unresolved():
    assert run.verdict([100, 101, 102, 100], [130, 131, 129, 130], 0.1, "lower") == "worse"
    assert run.verdict([100, 101, 102, 100], [101, 100, 102, 101], 0.1, "lower") == "ok"
    assert run.verdict([60, 100, 140, 100], [70, 110, 150, 110], 0.1, "lower") == "unresolved"
