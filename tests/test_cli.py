"""End-to-end command-line flows: synth -> train -> eval -> predict, plus the
diagnostic subcommands, exit codes, and config/flag/env precedence."""

import dataclasses
import importlib
import json
import math
import os
import pkgutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dcvqe
from dcvqe import cli, training
from dcvqe import data as data_io
from dcvqe.autodiff import ShapeError
from dcvqe.cli import _FIELD_NAMES, CONFIG_KEYS, _configs, _settings, build_parser, main
from dcvqe.losses import LossConfig
from dcvqe.metrics import DegenerateInputError, MetricsReport
from dcvqe.model import DCVQEConfig, DCVQEModel
from dcvqe.training import (AdamState, Checkpoint, TrainConfig, load_checkpoint,
                            save_checkpoint)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
# a child process does not see pytest's ``pythonpath``: it finds the package
# through PYTHONPATH, with the checkout's ``src`` first
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
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


def run_cli(*args):
    """``python -m dcvqe`` in a child process: a command that hangs fails its
    test at the timeout instead of stalling the suite."""
    return subprocess.run([sys.executable, "-m", "dcvqe", *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)


def package_exceptions() -> list[type]:
    """Every exception class that a module of the package defines."""
    found = []
    for info in pkgutil.iter_modules(dcvqe.__path__):
        if not info.name.startswith("_"):  # importing __main__ would run the CLI
            module = importlib.import_module(f"dcvqe.{info.name}")
            found += [obj for obj in vars(module).values()
                      if isinstance(obj, type) and issubclass(obj, BaseException)
                      and obj.__module__ == module.__name__]
    return found


def edited_checkpoint(src, dst, name, value):
    cp = load_checkpoint(src)
    cp.params[name][...] = value
    save_checkpoint(dst, cp)
    return dst


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise", "nan", "needs a finite noise_sigma >= 0, got nan"),
        ("--noise", "inf", "needs a finite noise_sigma >= 0, got inf"),
        ("--noise", "-1", "needs a finite noise_sigma >= 0, got -1.0"),
        ("--dim", "0", "needs dim >= 2, got 0"),
        ("--dim", "1", "needs dim >= 2, got 1"),
        ("--noise", "1e308", "needs a finite noise_sigma >= 0, got 1e+308 (at most 2.13e+37)"),
        ("--seed", "-1", "seed must be >= 0, got -1")],
        ids=["noise_nan", "noise_inf", "noise_negative", "dim_0", "dim_1", "noise_1e308",
             "seed_negative"])
    def test_bad_setting_is_named_before_anything_is_written(self, tmp_path, capsys, flag,
                                                              value, message):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--videos", "5", flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTrainEvalPredict:
    def test_train_writes_checkpoint_and_log(self, trained_checkpoint):
        cp = load_checkpoint(trained_checkpoint)
        assert cp.config.model_dim == 8
        log_lines = (trained_checkpoint.parent / (trained_checkpoint.name + ".log")
                     ).read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert [r["epoch"] for r in records] == [1, 2]
        assert all(list(r) == ["epoch", "train_loss", "val_loss", "wall_time_s"]
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

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_a_tolerance_that_cannot_pass_is_two_before_the_check(self, tol, monkeypatch,
                                                                  capsys):
        def never(seed):
            raise AssertionError("the check ran")

        monkeypatch.setattr(cli, "gradcheck_suite", never)
        assert main(["gradcheck", "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("data error: --tol must be a number >= 0")

    def test_subprocess_module_entry(self):
        result = subprocess.run([sys.executable, "-m", "dcvqe", "gradcheck"],
                                capture_output=True, text=True, timeout=300, env=CHILD_ENV)
        assert result.returncode == 0


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["train", "--nonsense"]) == 1
        assert main([]) == 1

    def test_the_package_defines_the_exceptions_that_main_sorts(self):
        assert {cli.UsageError, data_io.FormatError, DegenerateInputError,
                ShapeError} <= set(package_exceptions())

    @pytest.mark.parametrize("exc_type", [*package_exceptions(), FloatingPointError, OSError,
                                          MemoryError], ids=lambda t: t.__name__)
    def test_each_exception_class_exits_with_its_documented_code(self, exc_type, monkeypatch,
                                                                 capsys):
        def failing(args):
            raise exc_type("the command failed")

        monkeypatch.setitem(cli._COMMANDS, "gradcheck", failing)
        code = {cli.UsageError: 1, FloatingPointError: 3, DegenerateInputError: 3}
        assert main(["gradcheck"]) == code.get(exc_type, 2)
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(": the command failed\n") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_manifest_is_two(self, tmp_path, dataset_dir, capsys):
        code = main(["train", "--manifest", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(tmp_path / "x.ckpt"), "--config", str(tmp_path / "no.json")])
        assert code == 2
        assert "no.json" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_manifest_scale_bound_not_finite_is_two(self, tmp_path, trained_checkpoint,
                                                     capsys):
        bad = tmp_path / "manifest.jsonl"
        bad.write_text('{"scale_min": 1, "scale_max": NaN}\n'
                       '{"video_id": "a", "feature_path": "a.dcvq", "mos": 2.0}\n')
        assert main(["eval", "--manifest", str(bad),
                     "--checkpoint", str(trained_checkpoint)]) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err and len(err.splitlines()) == 1
        assert "scale_max must be finite" in err

    def test_manifest_integer_past_the_int_digit_limit_is_two(self, tmp_path, trained_checkpoint,
                                                              capsys):
        bad = tmp_path / "manifest.jsonl"
        bad.write_text('{"scale_min": 1, "scale_max": 5}\n'
                       '{"video_id": "a", "feature_path": "a.dcvq", "mos": %s}\n' % ("9" * 5000))
        assert main(["eval", "--manifest", str(bad),
                     "--checkpoint", str(trained_checkpoint)]) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err and len(err.splitlines()) == 1
        assert "mos inf of 'a' outside" in err

    def test_corrupt_feature_file_is_two(self, tmp_path, trained_checkpoint, capsys):
        bad = tmp_path / "bad.dcvq"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        code = main(["predict", "--checkpoint", str(trained_checkpoint), str(bad)])
        assert code == 2

    def test_input_path_under_a_file_is_two(self, tmp_path, trained_checkpoint, capsys):
        (tmp_path / "f").write_text("")
        code = main(["predict", "--checkpoint", str(trained_checkpoint),
                     str(tmp_path / "f" / "x.dcvq")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("parser", ["checkpoint", "config", "manifest"])
    def test_deeply_nested_json_is_two(self, tmp_path, dataset_dir, trained_checkpoint,
                                       parser, capsys):
        nested = b"[" * 100_000 + b"]" * 100_000
        bad = tmp_path / "nested"
        manifest = str(dataset_dir / "manifest.jsonl")
        if parser == "checkpoint":
            bad.write_bytes(b"DCKP" + struct.pack("<II", 1, len(nested)) + nested)
            argv = ["predict", "--checkpoint", bad, dataset_dir / "synth00000.dcvq"]
        elif parser == "config":  # read by train --config
            bad.write_bytes(nested)
            argv = ["train", "--manifest", manifest, "--out", tmp_path / "x.ckpt",
                    "--config", bad]
        else:  # the manifest's first line, read by eval
            bad.write_bytes(nested + b"\n")
            argv = ["eval", "--manifest", bad, "--checkpoint", trained_checkpoint]
        assert main([str(a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err and "data error" in err
        assert not (tmp_path / "x.ckpt").exists()

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

    def test_unknown_config_key_is_two(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps({"epoch": 1}))
        code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg_path)])
        assert code == 2
        assert "unknown config key(s) 'epoch'" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_unknown_grid_override_key_is_two(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "grid": [{"alpha": 1.0},
                                                              {"aplha": 0.5}]}))
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path)])
        assert code == 2
        assert "grid entry 1: unknown config key(s) 'aplha'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "dump-embeddings"])
    def test_mixed_feature_widths_are_two(self, tmp_path, trained_checkpoint, command,
                                          monkeypatch, capsys):
        data_io.synth_dataset(tmp_path, n_videos=6, len_range=(4, 8), dim=6, seed=3)
        wide = data_io.FeatureSequence("wide", np.ones((5, 7)), 2.0)
        data_io.write_features(tmp_path / "wide.dcvq", wide)
        manifest = data_io.load_manifest(tmp_path / "manifest.jsonl")
        manifest.entries.append(data_io.ManifestEntry("wide", "wide.dcvq", 2.0))
        data_io.save_manifest(manifest, tmp_path / "manifest.jsonl")
        monkeypatch.setattr("dcvqe.cli.fit", lambda *a, **k: pytest.fail("training ran"))
        monkeypatch.setattr("dcvqe.cli.evaluate", lambda *a: pytest.fail("evaluation ran"))
        args = {"train": ["--out", str(tmp_path / "x.ckpt")],
                "eval": ["--checkpoint", str(trained_checkpoint)],
                "dump-embeddings": ["--checkpoint", str(trained_checkpoint),
                                    "--out", str(tmp_path / "x.ckpt")]}[command]
        code = main([command, "--manifest", str(tmp_path / "manifest.jsonl"), *args])
        assert code == 2
        assert ("video 'wide' has feature width 7, but 'synth00000' has 6"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.ckpt").exists()

    def test_nonfinite_validation_loss_is_three(self, tmp_path, dataset_dir, config_file,
                                                monkeypatch, capsys):
        monkeypatch.setattr(training, "validation_loss", lambda *args: math.nan)
        code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(tmp_path / "nan.ckpt"), "--config", str(config_file)])
        assert code == 3
        assert "validation loss nan in epoch 1" in capsys.readouterr().err

    def test_diverging_run_is_three_without_a_warning_or_a_file(self, tmp_path, dataset_dir,
                                                                config_file):
        # the first Adam step moves the weights to about 1e308, so the second
        # batch's input projection overflows: that overflow is the failure,
        # and neither the checkpoint nor its log is written
        result = run_cli("train", "--manifest", dataset_dir / "manifest.jsonl", "--out",
                         tmp_path / "m.ckpt", "--config", config_file, "--lr", "1e308")
        assert result.returncode == 3
        assert result.stderr == ("numeric failure: overflow encountered in matmul in epoch 1, "
                                 "batch 2\n")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_nonfinite_checkpoint_value_is_two(self, tmp_path, dataset_dir, trained_checkpoint,
                                               command):
        bad = edited_checkpoint(trained_checkpoint, tmp_path / "nan.ckpt", "regressor.bias",
                                math.nan)
        manifest = dataset_dir / "manifest.jsonl"
        args = {"predict": ["--checkpoint", bad, dataset_dir / "synth00000.dcvq"],
                "eval": ["--manifest", manifest, "--checkpoint", bad]}[command]
        result = run_cli(command, *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert ("data error: non-finite value nan in params 'regressor.bias' at element 0"
                in result.stderr)

    def test_nonfinite_scores_in_eval_are_three(self, tmp_path, dataset_dir,
                                                trained_checkpoint):
        # finite but huge weights overflow the attention scores
        bad = edited_checkpoint(trained_checkpoint, tmp_path / "huge.ckpt", "input.weight",
                                1e300)
        manifest = dataset_dir / "manifest.jsonl"
        feature_file = dataset_dir / "synth00000.dcvq"
        # that first overflow is the failure, named with its file or video, and no
        # numpy warning is printed on the way
        for args, where in [
            (["eval", "--manifest", manifest, "--checkpoint", bad], "video 'synth00000'"),
            (["predict", "--checkpoint", bad, feature_file], f"file {feature_file}"),
            (["dump-embeddings", "--manifest", manifest, "--checkpoint", bad,
              "--out", tmp_path / "emb.jsonl"], "video 'synth00000'"),
        ]:
            result = run_cli(*args)
            assert result.returncode == 3, args[0]
            assert result.stderr == (f"numeric failure: overflow encountered in matmul in "
                                     f"{where}\n"), args[0]
            assert "nan" not in result.stdout.lower()
        assert not (tmp_path / "emb.jsonl").exists()  # nothing written, so no NaN either

    def test_overflow_on_the_second_thread_is_three_without_a_warning(self, tmp_path,
                                                                       second_core, capsys):
        # a paper-shape projection splits its rows over two threads; only the
        # second half of this file overflows, so the failure is raised on the
        # helper thread, under the errstate of the file it scores
        model = DCVQEModel.initialize(DCVQEConfig(), seed=0)
        model.params["input.weight"].data[:] = 1e300
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, Checkpoint.snapshot(model, AdamState.for_model(model),
                                                  val_loss=0.0, epoch=1))
        features = np.random.default_rng(0).standard_normal((64, 4096), dtype=np.float32)
        features[32:] *= 1e10
        path = tmp_path / "split.dcvq"
        data_io.write_features(path, data_io.FeatureSequence("split", features, 0.0))
        second_core.force(True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["predict", "--checkpoint", str(ckpt), str(path)])
        assert second_core.splits == 1
        assert code == 3
        assert capsys.readouterr() == (
            "", f"numeric failure: overflow encountered in matmul in file {path}\n")
        assert [str(w.message) for w in caught] == []

    def test_memory_error_is_two(self, tmp_path, trained_checkpoint, monkeypatch, capsys):
        # a config deep enough to exhaust memory is a data error, not a traceback
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_checkpoint", exhausted)
        code = main(["predict", "--checkpoint", str(trained_checkpoint), "x.dcvq"])
        assert code == 2
        assert capsys.readouterr().err == "data error: MemoryError\n"

    @pytest.mark.parametrize("command, flag, bad", [
        ("predict", "--checkpoint", "long"), ("train", "--manifest", "long"),
        ("synth", "--out", "long"), ("dump-embeddings", "--out", "long"),
        ("predict", "--checkpoint", "loop"), ("train", "--manifest", "loop")])
    def test_a_path_the_system_refuses_is_two_in_one_line(self, tmp_path, dataset_dir,
                                                          trained_checkpoint, command, flag,
                                                          bad, capsys):
        """A path component longer than the file system takes (ENAMETOOLONG)
        or a symbolic link to itself (ELOOP) is a data error: one line on
        stderr, no traceback and no file."""
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        manifest = dataset_dir / "manifest.jsonl"
        argv = {"predict": ["--checkpoint", trained_checkpoint, dataset_dir / "synth00000.dcvq"],
                "train": ["--manifest", manifest, "--out", tmp_path / "m.ckpt"],
                "synth": ["--out", tmp_path / "d", "--videos", 5],
                "dump-embeddings": ["--manifest", manifest, "--checkpoint", trained_checkpoint,
                                    "--out", tmp_path / "e.jsonl"]}[command]
        argv[argv.index(flag) + 1] = loop if bad == "loop" else tmp_path / ("x" * 300)
        before = sorted(tmp_path.iterdir())
        code = main([command, *map(str, argv)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["eval", "dump-embeddings", "predict"])
    def test_a_width_the_checkpoint_cannot_score_is_two_before_any_payload(
            self, tmp_path, trained_checkpoint, command, monkeypatch, capsys):
        data_io.synth_dataset(tmp_path, n_videos=6, len_range=(4, 8), dim=5, seed=3)
        manifest, first = tmp_path / "manifest.jsonl", tmp_path / "synth00000.dcvq"
        monkeypatch.setattr(data_io, "read_features",
                            lambda *a, **k: pytest.fail("payloads were read"))
        out = tmp_path / "e.jsonl"
        argv = {"eval": ["--manifest", manifest],
                "dump-embeddings": ["--manifest", manifest, "--out", out],
                "predict": [first]}[command]
        code = main([command, "--checkpoint", str(trained_checkpoint), *map(str, argv)])
        source = f"file {first}" if command == "predict" else f"manifest {manifest}"
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {source} has feature width 5, but checkpoint {trained_checkpoint} "
            f"takes 6\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
    def test_scoring_stops_at_the_first_failing_video_in_manifest_order(
            self, tmp_path, trained_checkpoint, command, capsys):
        # each video is read, scored and dropped in turn: an overflow in the
        # first video is the failure even though the fourth file is malformed,
        # and that file fails only once the videos before it have been scored
        data_io.synth_dataset(tmp_path, n_videos=6, len_range=(4, 8), dim=6, seed=3)
        bad = tmp_path / "synth00003.dcvq"
        raw = bytearray(bad.read_bytes())
        raw[16:20] = struct.pack("<f", math.nan)
        bad.write_bytes(bytes(raw))
        huge = edited_checkpoint(trained_checkpoint, tmp_path / "huge.ckpt", "input.weight",
                                 1e300)
        out = tmp_path / "e.jsonl"
        for ckpt, code, err in [
                (huge, 3, "numeric failure: overflow encountered in matmul in video "
                          "'synth00000'\n"),
                (trained_checkpoint, 2, f"data error: non-finite value at element 0 of {bad} "
                                        f"(byte offset 16)\n")]:
            scored = []  # each scored video is embedded once, by either command
            with pytest.MonkeyPatch.context() as mp:
                embed = DCVQEModel.embed
                mp.setattr(DCVQEModel, "embed", lambda m, f: scored.append(1) or embed(m, f))
                argv = [command, "--manifest", tmp_path / "manifest.jsonl", "--checkpoint",
                        ckpt, *(["--out", out] if command == "dump-embeddings" else [])]
                assert main(list(map(str, argv))) == code
            assert capsys.readouterr() == ("", err)
            assert len(scored) == (1 if code == 3 else 3)
            assert not out.exists()

    def test_eval_of_one_video_is_two(self, tmp_path, trained_checkpoint, capsys):
        data_io.synth_dataset(tmp_path, n_videos=5, len_range=(4, 8), dim=6, seed=3)
        manifest = data_io.load_manifest(tmp_path / "manifest.jsonl")
        manifest.entries[1:] = []
        data_io.save_manifest(manifest, tmp_path / "manifest.jsonl")
        code = main(["eval", "--manifest", str(tmp_path / "manifest.jsonl"),
                     "--checkpoint", str(trained_checkpoint)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "data error: predictions needs at least 2 samples, got 1\n")

    def test_predict_checks_every_width_before_it_reads_or_scores(
            self, tmp_path, dataset_dir, trained_checkpoint, monkeypatch, capsys):
        data_io.synth_dataset(tmp_path, n_videos=5, len_range=(4, 8), dim=5, seed=3)
        good, bad = dataset_dir / "synth00000.dcvq", tmp_path / "synth00000.dcvq"
        monkeypatch.setattr(data_io, "read_features",
                            lambda *a, **k: pytest.fail("a payload was read"))
        code = main(["predict", "--checkpoint", str(trained_checkpoint), str(good), str(bad)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (f"data error: file {bad} has feature width 5, but checkpoint "
                       f"{trained_checkpoint} takes 6\n")


class TestOutputPaths:
    """An output path that cannot be written is refused before any work:
    exit 2 with a message, and nothing is written."""

    @pytest.fixture
    def plain_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("not a directory\n")
        return path

    def refused(self, argv, capsys, tmp_path, before):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert "data error: cannot write" in captured.err
        assert "epoch" not in captured.out  # no training ran
        assert sorted(tmp_path.rglob("*")) == before  # nothing written

    def test_synth_under_a_file(self, tmp_path, plain_file, capsys):
        before = sorted(tmp_path.rglob("*"))
        self.refused(["synth", "--out", plain_file / "sub", "--videos", "5"], capsys,
                     tmp_path, before)
        self.refused(["synth", "--out", plain_file, "--videos", "5"], capsys, tmp_path, before)

    def test_train_under_a_file(self, tmp_path, plain_file, dataset_dir, config_file, capsys):
        before = sorted(tmp_path.rglob("*"))
        self.refused(["train", "--manifest", dataset_dir / "manifest.jsonl", "--out",
                      plain_file / "m.ckpt", "--config", config_file], capsys, tmp_path, before)

    def test_train_into_a_directory_stops_before_training(self, tmp_path, dataset_dir,
                                                          config_file, capsys):
        target = tmp_path / "ckpt"
        target.mkdir()
        before = sorted(tmp_path.rglob("*"))
        self.refused(["train", "--manifest", dataset_dir / "manifest.jsonl", "--out", target,
                      "--config", config_file], capsys, tmp_path, before)
        log_dir = tmp_path / "m.ckpt.log"
        log_dir.mkdir()
        before = sorted(tmp_path.rglob("*"))
        self.refused(["train", "--manifest", dataset_dir / "manifest.jsonl", "--out",
                      tmp_path / "m.ckpt", "--config", config_file], capsys, tmp_path, before)

    def test_dump_embeddings_and_ablate(self, tmp_path, plain_file, dataset_dir,
                                        trained_checkpoint, capsys):
        before = sorted(tmp_path.rglob("*"))
        self.refused(["dump-embeddings", "--manifest", dataset_dir / "manifest.jsonl",
                      "--checkpoint", trained_checkpoint, "--out", plain_file / "x.jsonl"],
                     capsys, tmp_path, before)
        self.refused(["dump-embeddings", "--manifest", dataset_dir / "manifest.jsonl",
                      "--checkpoint", trained_checkpoint, "--out", tmp_path],
                     capsys, tmp_path, before)
        self.refused(["ablate", "--manifest", dataset_dir / "manifest.jsonl",
                      "--out", tmp_path / "missing" / "table.json"], capsys, tmp_path, before)

    def test_dump_embeddings_writes_nothing_on_a_bad_payload(self, tmp_path,
                                                              trained_checkpoint, capsys):
        data_io.synth_dataset(tmp_path / "d", n_videos=6, len_range=(4, 8), dim=6, seed=3)
        cut = tmp_path / "d" / "synth00003.dcvq"
        cut.write_bytes(cut.read_bytes()[:-4])  # a payload cut short behind a valid header
        out = tmp_path / "emb.jsonl"
        code = main(["dump-embeddings", "--manifest", str(tmp_path / "d" / "manifest.jsonl"),
                     "--checkpoint", str(trained_checkpoint), "--out", str(out)])
        assert code == 2
        assert "payload" in capsys.readouterr().err
        assert not out.exists()

    def test_no_traceback_from_the_module_entry(self, tmp_path, plain_file):
        proc = run_cli("synth", "--out", plain_file / "sub", "--videos", "5")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "is not a directory" in proc.stderr


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

    @pytest.mark.parametrize("command, flags, env, code, message", [
        ("gradcheck", ["--seed", "-1"], None, 2, "data error: seed must be >= 0, got -1"),
        ("gradcheck", [], "-2", 1, "usage error: DCVQE_SEED must be an integer >= 0, got '-2'"),
        ("synth", ["--seed", "-1"], None, 2, "data error: seed must be >= 0, got -1"),
        ("synth", [], "-2", 1, "usage error: DCVQE_SEED must be an integer >= 0, got '-2'"),
        ("eval", ["--split", "test", "--seed", "-1"], None, 2,
         "data error: seed must be >= 0, got -1"),
        ("eval", ["--split", "test"], "-2", 1,
         "usage error: DCVQE_SEED must be an integer >= 0, got '-2'"),
        ("train", ["--config", "file"], None, 2, "data error: seed must be >= 0, got -3"),
        ("ablate", ["--config", "grid"], None, 2, "data error: seed must be >= 0, got -3"),
    ], ids=["gradcheck_flag", "gradcheck_env", "synth_flag", "synth_env", "eval_flag",
            "eval_env", "train_file", "ablate_grid_row"])
    def test_a_negative_seed_is_named_before_any_work(self, command, flags, env, code, message,
                                                      tmp_path, dataset_dir, trained_checkpoint,
                                                      monkeypatch, capsys):
        for name in ("gradcheck_suite", "load_checkpoint", "fit", "run_repetitions"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work started"))
        if env is not None:
            monkeypatch.setenv("DCVQE_SEED", env)
        configs = {"file": {"seed": -3}, "grid": {"grid": [{"seed": 0}, {"seed": -3}]}}
        for name, cfg in configs.items():
            (tmp_path / name).write_text(json.dumps(cfg))
        flags = [str(tmp_path / f) if f in configs else f for f in flags]
        manifest = str(dataset_dir / "manifest.jsonl")
        out = tmp_path / "out"
        argv = {"gradcheck": [], "synth": ["--out", out],
                "eval": ["--manifest", manifest, "--checkpoint", trained_checkpoint],
                "train": ["--manifest", manifest, "--out", out],
                "ablate": ["--manifest", manifest, "--out", out]}[command]
        assert main([command, *map(str, argv), *flags]) == code
        assert capsys.readouterr() == ("", message + "\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / name for name in sorted(configs)]

    def test_flag_overrides_config_file(self, tmp_path, dataset_dir, config_file, capsys):
        out = tmp_path / "one_epoch.ckpt"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(out), "--config", str(config_file), "--epochs", "1"])
        assert code == 0
        log = (tmp_path / "one_epoch.ckpt.log").read_text().splitlines()
        assert len(log) == 1  # flag value, not the config file's 2

    @pytest.mark.parametrize("command", ["train", "eval", "gradcheck", "ablate"])
    def test_flag_over_file_over_env_over_zero(self, command, tmp_path, dataset_dir,
                                               trained_checkpoint, monkeypatch, capsys):
        seeds = []  # every seed that reaches a split, a gradcheck or an ablate run

        def record(seed, result):
            seeds.append(seed)
            return result

        split = data_io.split
        monkeypatch.setattr(data_io, "split", lambda m, seed: record(seed, split(m, seed)))
        report = SimpleNamespace(per_parameter=[], max_rel_error=0.0, passes=lambda tol: True)
        monkeypatch.setattr(cli, "gradcheck_suite", lambda seed: record(seed, report))
        result = SimpleNamespace(median=MetricsReport(1.0, 1.0, 1.0, 0.0, 4), runs=[])
        monkeypatch.setattr(cli, "run_repetitions",
                            lambda manifest, model_cfg, cfg: record(cfg.seed, result))
        cfg = dict(TINY_MODEL, epochs=1, batch_size=4, repetitions=1, grid=[{"alpha": 1.0}])
        seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
        seeded.write_text(json.dumps(dict(cfg, seed=12)))
        unseeded.write_text(json.dumps(cfg))
        manifest = str(dataset_dir / "manifest.jsonl")
        argv = {"train": ["train", "--manifest", manifest, "--out", str(tmp_path / "m.ckpt")],
                "eval": ["eval", "--manifest", manifest, "--checkpoint",
                         str(trained_checkpoint), "--split", "val"],
                "gradcheck": ["gradcheck"],
                "ablate": ["ablate", "--manifest", manifest]}[command]
        for flags, config, env, expected in [(["--seed", "11"], seeded, "13", 11),
                                             ([], seeded, "13", 12),
                                             ([], unseeded, "13", 13),
                                             ([], unseeded, None, 0)]:
            if command == "gradcheck":  # it reads no config file
                if config is seeded and not flags:
                    continue
                config = None
            if env is None:
                monkeypatch.delenv("DCVQE_SEED", raising=False)
            else:
                monkeypatch.setenv("DCVQE_SEED", env)
            seeds.clear()
            assert main(argv + flags + (["--config", str(config)] if config else [])) == 0
            assert seeds and set(seeds) == {expected}, (flags, config, env)

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
        file_cfg = json.loads((CONFIGS / name).read_text())
        args = build_parser().parse_args(["ablate", "--manifest", "m.jsonl",
                                          "--config", str(CONFIGS / name)])
        settings = _settings(args)
        for overrides in settings.pop("grid", [{}]):
            model_cfg, train_cfg = _configs(_settings(args, {**settings, **overrides}), 64)
            run = {key: value for key, value in {**file_cfg, **overrides}.items()
                   if key != "grid"}
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

    def test_each_line_is_the_embedding_that_the_regressor_scores(self, tmp_path, dataset_dir,
                                                                  trained_checkpoint, capsys):
        out = tmp_path / "emb.jsonl"
        manifest = data_io.load_manifest(dataset_dir / "manifest.jsonl")
        assert main(["dump-embeddings", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--checkpoint", str(trained_checkpoint), "--out", str(out)]) == 0
        model = load_checkpoint(trained_checkpoint).build_model()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["video_id"] for row in rows] == [e.video_id for e in manifest.entries]
        for row, seq in zip(rows, data_io.load_sequences(manifest, max_len=12)):
            # JSON floats round-trip exactly, so this compares every bit
            assert row["embedding"] == model.embed(seq.features).data.reshape(-1).tolist()


class TestScoringMemory:
    """``eval`` and ``dump-embeddings`` read, score and drop one video at a
    time: their peak grows with the manifest's entries and results, not
    with its features."""

    @pytest.fixture(scope="class")
    def scored_dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("many")
        manifest = data_io.synth_dataset(root, n_videos=200, len_range=(20, 40), dim=256,
                                         seed=5)
        entries = manifest.entries
        manifest.entries = entries[:20]
        data_io.save_manifest(manifest, root / "m20.jsonl")
        manifest.entries = entries
        data_io.save_manifest(manifest, root / "m200.jsonl")
        model = DCVQEModel.initialize(DCVQEConfig(input_dim=256, model_dim=8, num_heads=2,
                                                  num_layers=2, base_clip_len=8,
                                                  max_seq_len=64), seed=0)
        save_checkpoint(root / "model.ckpt", Checkpoint.snapshot(
            model, AdamState.for_model(model), val_loss=0.0, epoch=1))
        extra = sum(data_io.read_header(root / e.feature_path)[0] * 256 * 4
                    for e in entries[20:])
        return root, extra

    @pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
    def test_peak_grows_by_a_tenth_of_the_features_at_most(self, scored_dataset, command,
                                                           capsys):
        root, extra = scored_dataset

        def peak(videos):
            argv = [command, "--manifest", root / f"m{videos}.jsonl", "--checkpoint",
                    root / "model.ckpt", *(["--out", root / "e.jsonl"]
                                           if command == "dump-embeddings" else [])]
            tracemalloc.start()
            try:
                assert main(list(map(str, argv))) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # imports and first-use caches stay out of the measurement
        growth = peak(200) - peak(20)
        # holding the 180 extra videos' float32 features, as a whole-manifest
        # load does, alone grows the peak by ``extra`` (5.5 MB)
        assert growth <= extra / 10, (growth, extra)

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

    def test_every_row_is_checked_before_any_row_trains(self, tmp_path, dataset_dir,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_repetitions",
                            lambda *a, **k: pytest.fail("a row trained"))
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({**TINY_MODEL, "epochs": 1, "grid": [
            {"alpha": 1.0, "beta": 0.0}, {"beta": -1.0}]}))
        out = tmp_path / "table.json"
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_grid_is_usage_error(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "nogrid.json"
        cfg_path.write_text(json.dumps({"epochs": 1}))
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path)])
        assert code == 1


class TestConfigValues:
    """Every config-file value is checked against the type of its key, and a
    command rejects the keys it does not read; both exit 2 naming the key."""

    def train(self, tmp_path, dataset_dir, cfg, *flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return main(["train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg_path), *flags])

    @pytest.mark.parametrize("value", [None, True, [1], 2.5, "2"])
    def test_integer_key_takes_only_integers(self, tmp_path, dataset_dir, value, capsys):
        assert self.train(tmp_path, dataset_dir, dict(TINY_MODEL, epochs=value)) == 2
        assert f"'epochs' must be an integer, got {json.dumps(value)}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("temporal_range", 2.5, "temporal_range must be an integer >= 1, 'all' or null"),
        ("temporal_range", 0, "temporal_range must be an integer >= 1, 'all' or null"),
        ("alpha", "0.5", "'alpha' must be a finite number"),
        ("alpha", float("nan"), "'alpha' must be a finite number"),
        ("loss", 1, "'loss' must be a string"),
        ("grid", 5, "'grid' must be a list, got 5"),
    ])
    def test_other_keys_take_their_type(self, tmp_path, dataset_dir, key, value, message,
                                        capsys):
        assert self.train(tmp_path, dataset_dir, dict(TINY_MODEL, **{key: value})) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--alpha", "nan"], "alpha"), (["--beta", "inf"], "beta"),
        (["--lr", "-1"], "learning_rate"), (["--lr", "inf"], "learning_rate"),
    ])
    def test_bad_weight_or_rate_flag_is_two(self, tmp_path, dataset_dir, flags, field,
                                            capsys):
        assert self.train(tmp_path, dataset_dir, dict(TINY_MODEL, epochs=1), *flags) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-1e-3", "-.5"])
    def test_negative_value_after_a_separate_flag_reads_as_the_value(self, tmp_path,
                                                                     dataset_dir, value,
                                                                     monkeypatch, capsys):
        # "--lr -inf" gets the exit code and message of "--lr=-inf", not a
        # usage error for a flag without its value
        cfg = dict(TINY_MODEL, epochs=1)
        messages = []
        for flags in (["--lr", value], [f"--lr={value}"]):
            assert self.train(tmp_path, dataset_dir, cfg, *flags) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert messages[0].startswith("data error: learning_rate must be finite and >= 0")
        assert not (tmp_path / "x.ckpt").exists()

        monkeypatch.setattr(cli, "gradcheck_suite", lambda seed: pytest.fail("the check ran"))
        for flags in (["--tol", value], [f"--tol={value}"]):
            assert main(["gradcheck", *flags]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("data error: --tol must be a number >= 0")

    def test_negative_learning_rate_in_file_is_two(self, tmp_path, dataset_dir, capsys):
        cfg = dict(TINY_MODEL, epochs=1, learning_rate=-1.0)
        assert self.train(tmp_path, dataset_dir, cfg) == 2
        assert "learning_rate must be finite and >= 0" in capsys.readouterr().err

    def test_every_config_field_has_a_key(self):
        # TrainConfig.loss is the nested LossConfig, whose fields are checked themselves,
        # and DCVQEConfig.input_dim is always the manifest's feature width
        reachable = {_FIELD_NAMES.get(key, key) for key in CONFIG_KEYS}
        unreachable = [f"{cls.__name__}.{f.name}"
                       for cls in (DCVQEConfig, TrainConfig, LossConfig)
                       for f in dataclasses.fields(cls) if f.name not in reachable
                       and (cls, f.name) not in {(TrainConfig, "loss"), (DCVQEConfig, "input_dim")}]
        assert unreachable == []

    def test_input_dim_in_a_file_is_two_before_any_output(self, tmp_path, dataset_dir, capsys):
        assert self.train(tmp_path, dataset_dir, dict(TINY_MODEL, epochs=1, input_dim=6)) == 2
        assert "for train: unknown config key(s) 'input_dim'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_input_dim_in_a_grid_row_is_two_before_any_output(self, tmp_path, dataset_dir,
                                                              capsys):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "grid": [{"input_dim": 6}]}))
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path), "--out", str(tmp_path / "table.json")])
        assert code == 2
        assert ("for ablate, grid entry 0: unknown config key(s) 'input_dim'"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_grid_of_wrong_type_is_two_in_ablate(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "grid": 5}))
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path)])
        assert code == 2
        assert "'grid' must be a list, got 5" in capsys.readouterr().err

    def test_grid_row_value_is_checked(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "grid": [{"alpha": 1.0},
                                                              {"epochs": True}]}))
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path)])
        assert code == 2
        assert "grid entry 1: 'epochs' must be an integer, got true" in capsys.readouterr().err

    def test_file_values_of_the_right_type_resolve(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"temporal_range": "all", "alpha": 1, "epochs": 3}))
        args = build_parser().parse_args(["ablate", "--manifest", "m.jsonl",
                                          "--config", str(path)])
        model_cfg, train_cfg = _configs(_settings(args), input_dim=6)
        assert (model_cfg.input_dim, model_cfg.temporal_range) == (6, None)
        assert (train_cfg.max_epochs, train_cfg.loss.alpha) == (3, 1.0)
        assert type(train_cfg.loss.alpha) is float

    def test_train_rejects_synth_keys(self, tmp_path, dataset_dir, capsys):
        code = self.train(tmp_path, dataset_dir, dict(TINY_MODEL, epochs=1, max_len=5))
        assert code == 2
        assert "for train: unknown config key(s) 'max_len'" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_synth_rejects_training_keys(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps({"videos": 6, "seed": 3, "epochs": 2}))
        code = main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg_path)])
        assert code == 2
        assert "for synth: unknown config key(s) 'epochs'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_ablate_rejects_synth_keys_in_grid_rows(self, tmp_path, dataset_dir, capsys):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "grid": [{"dim": 4}]}))
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path)])
        assert code == 2
        assert "for ablate, grid entry 0: unknown config key(s) 'dim'" in capsys.readouterr().err

    def test_eval_reads_the_training_config(self, trained_checkpoint, dataset_dir, capsys):
        code = main(["eval", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--checkpoint", str(trained_checkpoint),
                     "--config", str(CONFIGS / "example.json")])
        assert code == 0
        assert "srcc=" in capsys.readouterr().out


class TestAblateSeed:
    def test_grid_row_seed_reaches_its_run(self, tmp_path, dataset_dir, capsys):
        cfg = dict(TINY_MODEL, epochs=1, batch_size=4, repetitions=1,
                   grid=[{"seed": 1}, {"seed": 2}])
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "table.json"
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                     "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["overrides"] for r in rows] == [{"seed": 1}, {"seed": 2}]
        assert rows[0]["runs"] != rows[1]["runs"]
