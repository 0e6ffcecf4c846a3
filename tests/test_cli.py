"""End-to-end command-line flows: synth -> train -> eval -> predict, plus the
diagnostic subcommands, exit codes, and config/flag/env precedence."""

import dataclasses
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcvqe import data as data_io
from dcvqe.cli import (_load_config_file, _model_config, _resolve_seed, _train_config,
                       build_parser, main)
from dcvqe.model import DCVQEConfig, DCVQEModel
from dcvqe.training import AdamState, Checkpoint, load_checkpoint, save_checkpoint

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TINY_MODEL = {"model_dim": 8, "num_heads": 2, "num_layers": 2, "base_clip_len": 4,
              "temporal_range": 2, "max_seq_len": 12}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    data_io.synth_dataset(root, n_videos=20, len_range=(4, 10), dim=6,
                          noise_sigma=0.05, seed=21)
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    cfg = dict(TINY_MODEL)
    cfg.update({"epochs": 2, "batch_size": 4, "learning_rate": 1e-3,
                "alpha": 0.7, "beta": 0.3, "seed": 21})
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, dataset_dir, config_file):
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), "--config", str(config_file)])
    assert code == 0
    return out


class TestSynth:
    def test_writes_dataset(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "d"), "--videos", "6",
                     "--min-len", "4", "--max-len", "8", "--dim", "5", "--seed", "3"])
        assert code == 0
        manifest = data_io.load_manifest(tmp_path / "d" / "manifest.jsonl")
        assert len(manifest) == 6
        assert "wrote 6 videos" in capsys.readouterr().out

    def test_flags_win_over_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"videos": 6, "min_len": 4, "max_len": 8, "dim": 5}))
        code = main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg),
                     "--videos", "8", "--seed", "3"])
        assert code == 0
        manifest = data_io.load_manifest(tmp_path / "d" / "manifest.jsonl")
        assert len(manifest) == 8  # the flag, not the file's 6
        seq = data_io.read_features(manifest.resolve(manifest.entries[0]))
        assert seq.feature_dim == 5 and 4 <= seq.num_frames <= 8  # the file, no flags


class TestTrainEvalPredict:
    def test_train_writes_checkpoint_and_log(self, trained_checkpoint):
        cp = load_checkpoint(trained_checkpoint)
        assert cp.config.model_dim == 8
        log_lines = (trained_checkpoint.parent / (trained_checkpoint.name + ".log")
                     ).read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert [r["epoch"] for r in records] == [1, 2]
        assert all("train_loss" in r and "val_loss" in r and "wall_time_s" in r
                   for r in records)

    def test_eval_prints_report(self, trained_checkpoint, dataset_dir, capsys):
        code = main(["eval", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--checkpoint", str(trained_checkpoint), "--split", "test",
                     "--seed", "21"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("srcc=", "krcc=", "plcc=", "rmse=", "n="):
            assert key in out

    def test_predict_prints_one_score_per_file(self, trained_checkpoint, dataset_dir, capsys):
        manifest = data_io.load_manifest(dataset_dir / "manifest.jsonl")
        files = [str(manifest.resolve(e)) for e in manifest.entries[:3]]
        code = main(["predict", "--checkpoint", str(trained_checkpoint)] + files)
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line, path in zip(lines, files):
            name, value = line.split("\t")
            assert name == path
            float(value)

    def test_deterministic_retrain(self, tmp_path, dataset_dir, config_file,
                                   trained_checkpoint):
        out = tmp_path / "again.ckpt"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(out), "--config", str(config_file)])
        assert code == 0
        assert out.read_bytes() == trained_checkpoint.read_bytes()


class TestGradcheck:
    def test_passes_and_prints(self, capsys):
        code = main(["gradcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall max relative error" in out

    def test_subprocess_module_entry(self):
        result = subprocess.run([sys.executable, "-m", "dcvqe", "gradcheck"],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["train", "--nonsense"]) == 1
        assert main([]) == 1

    def test_missing_manifest_is_two(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 2

    def test_corrupt_feature_file_is_two(self, tmp_path, trained_checkpoint, capsys):
        bad = tmp_path / "bad.dcvq"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        code = main(["predict", "--checkpoint", str(trained_checkpoint), str(bad)])
        assert code == 2

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(extra=1),
        lambda h: h.pop("params"),
        lambda h: h["config"].update(num_heads="2"),
    ], ids=["extra_config_key", "no_params", "string_num_heads"])
    def test_malformed_checkpoint_header_is_two(self, tmp_path, trained_checkpoint,
                                                dataset_dir, edit, capsys):
        raw = trained_checkpoint.read_bytes()
        version, length = struct.unpack_from("<II", raw, 4)
        header = json.loads(raw[12:12 + length])
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:4] + struct.pack("<II", version, len(blob)) + blob
                        + raw[12 + length:])
        with pytest.raises(data_io.FormatError):
            load_checkpoint(bad)
        manifest = data_io.load_manifest(dataset_dir / "manifest.jsonl")
        code = main(["predict", "--checkpoint", str(bad),
                     str(manifest.resolve(manifest.entries[0]))])
        assert code == 2
        assert "data error: corrupt checkpoint header" in capsys.readouterr().err

    def test_zero_model_eval_degenerate_is_three(self, tmp_path, dataset_dir, capsys):
        cfg = DCVQEConfig(input_dim=6, **{k: v for k, v in TINY_MODEL.items()})
        model = DCVQEModel.initialize(cfg, seed=0)
        for p in model.parameters():
            p.data[:] = 0.0
        cp = Checkpoint.snapshot(model, AdamState.for_model(model), val_loss=0.0, epoch=1)
        path = tmp_path / "zero.ckpt"
        save_checkpoint(path, cp)
        code = main(["eval", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--checkpoint", str(path)])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


class TestSeedPrecedence:
    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCVQE_SEED", "123")
        code = main(["synth", "--out", str(tmp_path / "env"), "--videos", "5",
                     "--min-len", "4", "--max-len", "6", "--dim", "4"])
        assert code == 0
        a = data_io.load_manifest(tmp_path / "env" / "manifest.jsonl")
        monkeypatch.delenv("DCVQE_SEED")
        code = main(["synth", "--out", str(tmp_path / "flag"), "--videos", "5",
                     "--min-len", "4", "--max-len", "6", "--dim", "4", "--seed", "123"])
        assert code == 0
        b = data_io.load_manifest(tmp_path / "flag" / "manifest.jsonl")
        assert [e.mos for e in a.entries] == [e.mos for e in b.entries]

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCVQE_SEED", "not-a-number")
        assert main(["synth", "--out", str(tmp_path / "x"), "--videos", "5"]) == 1

    def test_flag_overrides_config_file(self, tmp_path, dataset_dir, config_file, capsys):
        out = tmp_path / "one_epoch.ckpt"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(out), "--config", str(config_file), "--epochs", "1"])
        assert code == 0
        log = (tmp_path / "one_epoch.ckpt.log").read_text().splitlines()
        assert len(log) == 1  # flag value, not the config file's 2

    def test_temporal_range_all_flag_respected(self, tmp_path, dataset_dir,
                                               config_file, capsys):
        out = tmp_path / "all_range.ckpt"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(out), "--config", str(config_file),
                     "--epochs", "1", "--temporal-range", "all"])
        assert code == 0
        assert load_checkpoint(out).config.temporal_range is None


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["example.json", "ablate.json"])
    def test_every_key_reaches_the_run(self, name):
        file_cfg = _load_config_file(CONFIGS / name)
        args = build_parser().parse_args(["ablate", "--manifest", "m.jsonl"])
        runs = [dict(file_cfg, **overrides) for overrides in file_cfg.get("grid", [{}])]
        for run in runs:
            run.pop("grid", None)
            model_cfg = _model_config(args, run, input_dim=64)
            train_cfg = _train_config(args, run, _resolve_seed(args, run))
            resolved = dict(dataclasses.asdict(model_cfg), seed=train_cfg.seed,
                            epochs=train_cfg.max_epochs, batch_size=train_cfg.batch_size,
                            learning_rate=train_cfg.learning_rate,
                            repetitions=train_cfg.repetitions, alpha=train_cfg.loss.alpha,
                            beta=train_cfg.loss.beta, loss=train_cfg.loss.variant)
            assert {key: resolved[key] for key in run} == run
        if "grid" in file_cfg:  # the five-point alpha/beta table
            assert [(g["alpha"], g["beta"]) for g in file_cfg["grid"]] == [
                (1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0)]


class TestDumpEmbeddings:
    def test_writes_jsonl(self, tmp_path, dataset_dir, trained_checkpoint, capsys):
        out = tmp_path / "emb.jsonl"
        code = main(["dump-embeddings", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--checkpoint", str(trained_checkpoint), "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 20
        for row in rows:
            assert len(row["embedding"]) == 8
            assert set(row) == {"video_id", "mos", "embedding"}


class TestAblate:
    def test_five_point_alpha_beta_grid(self, tmp_path, dataset_dir, capsys):
        grid = [{"alpha": 1.0, "beta": 0.0}, {"alpha": 0.7, "beta": 0.3},
                {"alpha": 0.5, "beta": 0.5}, {"alpha": 0.3, "beta": 0.7},
                {"alpha": 0.0, "beta": 1.0}]
        cfg = dict(TINY_MODEL)
        cfg.update({"epochs": 1, "batch_size": 4, "learning_rate": 1e-3,
                    "seed": 21, "repetitions": 1, "grid": grid})
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.json"
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 5
        assert [r["overrides"] for r in rows] == grid
        for row in rows:
            assert set(row["median"]) == {"srcc", "krcc", "plcc", "rmse", "n"}
        printed = capsys.readouterr().out
        assert "srcc" in printed and "alpha" in printed
        assert printed.count("\n") >= 7  # header, rule, five data rows

    def test_missing_grid_is_usage_error(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "nogrid.json"
        cfg_path.write_text(json.dumps({"epochs": 1}))
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path)])
        assert code == 1
