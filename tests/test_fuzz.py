"""Derandomized fuzzing of the two binary parsers, ``read_features`` and
``load_checkpoint``, and of the two JSON inputs, ``load_manifest`` and CLI
config files: a valid file cut short or with one byte changed either loads
or raises ``FormatError`` (CLI exit 2), never anything else, and valid files
round-trip. A config file may also fail a dataclass range check, a
``ValueError`` that the CLI reports with exit 2 as well. ``predict`` runs on
checkpoints whose header values are replaced with hostile ones,
``dump-embeddings`` on cut and changed manifests and checkpoints, and
``predict`` and ``eval`` on cut and changed feature files; each exits with a
documented code and prints no traceback. ``train`` runs one epoch on small
manifests, every loss and batch layout, and exits 0."""

import contextlib
import dataclasses
import io
import json
import struct
import time
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcvqe.cli import (_load_config_file, _model_config, _resolve_seed, _train_config,
                       build_parser, main)
from dcvqe.data import (DatasetManifest, FeatureSequence, FormatError, ManifestEntry,
                        load_manifest, read_features, save_manifest, write_features)
from dcvqe.losses import VARIANTS
from dcvqe.model import DCVQEConfig, DCVQEModel
from dcvqe.training import AdamState, Checkpoint, load_checkpoint, save_checkpoint

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
CONFIG = DCVQEConfig(input_dim=6, model_dim=8, num_heads=2, num_layers=2,
                     base_clip_len=4, temporal_range=2, max_seq_len=12)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def feature_bytes(scratch):
    rows = np.random.default_rng(0).normal(size=(5, 3))
    write_features(scratch / "valid.dcvq", FeatureSequence("v", rows, 1.0))
    return (scratch / "valid.dcvq").read_bytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(scratch):
    model = DCVQEModel.initialize(CONFIG, seed=1)
    state = AdamState.for_model(model)
    state.step = 3
    save_checkpoint(scratch / "valid.ckpt", Checkpoint.snapshot(model, state, 0.5, 2))
    return (scratch / "valid.ckpt").read_bytes()


@pytest.fixture(scope="module")
def manifest_bytes(scratch):
    entries = [ManifestEntry(f"v{i}", f"v{i}.dcvq", 1.0 + 0.75 * i) for i in range(5)]
    save_manifest(DatasetManifest(entries, 1.0, 5.0, scratch), scratch / "valid.jsonl")
    return (scratch / "valid.jsonl").read_bytes()


# every key that train and ablate read, and grid rows that reset some of them
CONFIG_FILE = {"input_dim": 6, "model_dim": 8, "num_heads": 2, "num_layers": 2,
               "base_clip_len": 4, "temporal_range": 2, "max_seq_len": 12, "epochs": 3,
               "batch_size": 4, "learning_rate": 0.001, "alpha": 0.7, "beta": 0.3,
               "loss": "correlation", "seed": 7, "repetitions": 2,
               "grid": [{"alpha": 1.0, "beta": 0.0, "seed": 3},
                        {"temporal_range": "all", "loss": "pwrl"}]}
ABLATE_ARGS = build_parser().parse_args(["ablate", "--manifest", "m.jsonl"])


def resolve_config(path) -> list[dict]:
    """Each run the config file at ``path`` declares, resolved as ``ablate``
    resolves it (the file alone first, then each grid row over the file),
    as a flat dict of config keys."""
    file_cfg = _load_config_file(path)
    runs = []
    for row in [{}] + file_cfg.get("grid", []):
        run = {**file_cfg, **row}
        model_cfg = _model_config(ABLATE_ARGS, run, input_dim=6)
        train_cfg = _train_config(ABLATE_ARGS, run, _resolve_seed(ABLATE_ARGS, run))
        runs.append(dict(dataclasses.asdict(model_cfg), seed=train_cfg.seed,
                         epochs=train_cfg.max_epochs, batch_size=train_cfg.batch_size,
                         learning_rate=train_cfg.learning_rate,
                         repetitions=train_cfg.repetitions, alpha=train_cfg.loss.alpha,
                         beta=train_cfg.loss.beta, loss=train_cfg.loss.variant))
    return runs


def resolves_or_is_rejected(path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        resolve_config(path)
    except FormatError:
        pass
    except ValueError as exc:  # only a dataclass range check may raise a plain ValueError
        assert traceback.extract_tb(exc.__traceback__)[-1].name == "__post_init__", exc


def loads_or_format_error(load, path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        load(path)
    except FormatError:
        pass


def changed_byte(data, raw: bytes, focus: int) -> bytes:
    """``raw`` with one byte replaced, half the time within the first
    ``focus`` bytes (the header)."""
    at = data.draw(st.one_of(st.integers(0, focus - 1), st.integers(0, len(raw) - 1)))
    value = data.draw(st.integers(0, 255))
    return raw[:at] + bytes([value]) + raw[at + 1:]


def header_end(raw: bytes) -> int:
    return 12 + int.from_bytes(raw[8:12], "little")


@FUZZ
@given(st.data())
def test_cut_feature_file(scratch, feature_bytes, data):
    cut = data.draw(st.integers(0, len(feature_bytes) - 1))
    loads_or_format_error(read_features, scratch / "cut.dcvq", feature_bytes[:cut])


@FUZZ
@given(st.data())
def test_changed_byte_in_feature_file(scratch, feature_bytes, data):
    loads_or_format_error(read_features, scratch / "byte.dcvq",
                          changed_byte(data, feature_bytes, 16))


@FUZZ
@given(st.data())
def test_cut_checkpoint(scratch, checkpoint_bytes, data):
    cut = data.draw(st.one_of(st.integers(0, header_end(checkpoint_bytes)),
                              st.integers(0, len(checkpoint_bytes) - 1)))
    loads_or_format_error(load_checkpoint, scratch / "cut.ckpt", checkpoint_bytes[:cut])


@FUZZ
@given(st.data())
def test_changed_byte_in_checkpoint(scratch, checkpoint_bytes, data):
    loads_or_format_error(load_checkpoint, scratch / "byte.ckpt",
                          changed_byte(data, checkpoint_bytes, header_end(checkpoint_bytes)))


# values no valid header holds in a config field or a shape, next to ones it might
HOSTILE = st.one_of(st.sampled_from([2 ** 36, 2 ** 62, 2 ** 70, -1, 0, 1, 16, 3]),
                    st.integers(-2 ** 70, 2 ** 70), st.floats(), st.booleans(), st.none(),
                    st.text(max_size=4))


def hostile_header(data, header: dict) -> None:
    """Replace one to three values of the header's config and ``params`` list:
    a config value, a parameter's name or shape or one of its dimensions, or
    the whole entry; or drop an entry or add one."""
    params = header["params"]
    for _ in range(data.draw(st.integers(1, 3))):
        what = data.draw(st.sampled_from(["config", "name", "shape", "dim", "entry", "drop",
                                          "extra"]))
        if what == "config":
            key = data.draw(st.sampled_from(sorted(header["config"])))
            header["config"][key] = data.draw(st.integers(1, 16) | HOSTILE)
            continue
        if not params:
            continue
        at = data.draw(st.integers(0, len(params) - 1))
        entry = params[at] if isinstance(params[at], dict) else {}
        if what == "name" and entry:
            names = [p["name"] for p in params if isinstance(p, dict)]
            entry["name"] = data.draw(st.sampled_from(names) | st.text(max_size=12) | HOSTILE)
        elif what == "shape" and entry:
            entry["shape"] = data.draw(st.lists(HOSTILE, max_size=3) | HOSTILE)
        elif what == "dim" and isinstance(entry.get("shape"), list) and entry["shape"]:
            shape = entry["shape"]
            shape[data.draw(st.integers(0, len(shape) - 1))] = data.draw(HOSTILE)
        elif what == "entry":
            params[at] = data.draw(HOSTILE)
        elif what == "drop":
            del params[at]
        elif what == "extra":
            params.insert(at, {"name": data.draw(st.text(max_size=12)),
                               "shape": data.draw(st.lists(HOSTILE, max_size=3))})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_predict_on_a_hostile_checkpoint_header(scratch, checkpoint_bytes, data):
    end = header_end(checkpoint_bytes)
    header = json.loads(checkpoint_bytes[12:end])
    hostile_header(data, header)
    blob = json.dumps(header, sort_keys=True).encode()
    ckpt = scratch / "hostile.ckpt"
    ckpt.write_bytes(checkpoint_bytes[:8] + struct.pack("<I", len(blob)) + blob
                     + checkpoint_bytes[end:])
    rows = np.random.default_rng(0).normal(size=(5, CONFIG.input_dim))
    write_features(scratch / "predict.dcvq", FeatureSequence("v", rows, 3.0))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", "--checkpoint", str(ckpt), str(scratch / "predict.dcvq")])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def dump_manifest_bytes(scratch):
    """A manifest of three videos of ``CONFIG``'s width whose files exist."""
    rng = np.random.default_rng(4)
    entries = []
    for i, frames in enumerate((3, 7, CONFIG.max_seq_len + 2)):
        rows = rng.normal(size=(frames, CONFIG.input_dim))
        write_features(scratch / f"dump{i}.dcvq", FeatureSequence(f"d{i}", rows, 2.0 + i))
        entries.append(ManifestEntry(f"d{i}", f"dump{i}.dcvq", 2.0 + i))
    save_manifest(DatasetManifest(entries, 1.0, 5.0, scratch), scratch / "dump.jsonl")
    return (scratch / "dump.jsonl").read_bytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_dump_embeddings_on_cut_and_changed_inputs(scratch, checkpoint_bytes,
                                                   dump_manifest_bytes, data):
    files = {"manifest": dump_manifest_bytes, "checkpoint": checkpoint_bytes}
    which = data.draw(st.sampled_from(sorted(files)))
    raw = files[which]
    if data.draw(st.booleans()):
        files[which] = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        focus = raw.index(b"\n") if which == "manifest" else header_end(raw)
        files[which] = changed_byte(data, raw, focus)
    (scratch / "dump.jsonl").write_bytes(files["manifest"])
    (scratch / "dump.ckpt").write_bytes(files["checkpoint"])
    out = scratch / "embeddings.jsonl"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["dump-embeddings", "--manifest", str(scratch / "dump.jsonl"),
                     "--checkpoint", str(scratch / "dump.ckpt"), "--out", str(out)])
    assert code in (0, 1, 2, 3), stderr.getvalue()
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
    assert out.exists() == (code == 0), (code, stderr.getvalue())


@pytest.fixture(scope="module")
def scored_feature_bytes(scratch, checkpoint_bytes):
    """A checkpoint of ``CONFIG`` and a manifest of three feature files of its
    width; returns the bytes of the first file, the one the fuzz replaces."""
    (scratch / "score.ckpt").write_bytes(checkpoint_bytes)
    rng = np.random.default_rng(5)
    entries = []
    for i, frames in enumerate((7, 3, 9)):
        rows = rng.normal(size=(frames, CONFIG.input_dim))
        write_features(scratch / f"score{i}.dcvq", FeatureSequence(f"s{i}", rows, 2.0 + i))
        entries.append(ManifestEntry(f"s{i}", f"score{i}.dcvq", 2.0 + i))
    save_manifest(DatasetManifest(entries, 1.0, 5.0, scratch), scratch / "score.jsonl")
    return (scratch / "score0.dcvq").read_bytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_predict_and_eval_on_cut_and_changed_feature_files(scratch, scored_feature_bytes,
                                                            data):
    raw = scored_feature_bytes
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw = changed_byte(data, raw, 16)
    features, ckpt = str(scratch / "score0.dcvq"), str(scratch / "score.ckpt")
    (scratch / "score0.dcvq").write_bytes(raw)
    for argv in (["predict", "--checkpoint", ckpt, features],
                 ["eval", "--manifest", str(scratch / "score.jsonl"), "--checkpoint", ckpt]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv[0], stderr.getvalue())
        assert "Traceback" not in stdout.getvalue() + stderr.getvalue()


@FUZZ
@given(st.data())
def test_cut_manifest(scratch, manifest_bytes, data):
    cut = data.draw(st.integers(0, len(manifest_bytes) - 1))
    loads_or_format_error(load_manifest, scratch / "cut.jsonl", manifest_bytes[:cut])


@FUZZ
@given(st.data())
def test_changed_byte_in_manifest(scratch, manifest_bytes, data):
    loads_or_format_error(load_manifest, scratch / "byte.jsonl",
                          changed_byte(data, manifest_bytes, manifest_bytes.index(b"\n")))


@FUZZ
@given(st.data())
def test_cut_config_file(scratch, data):
    raw = json.dumps(CONFIG_FILE).encode()
    resolves_or_is_rejected(scratch / "cut.json", raw[:data.draw(st.integers(0, len(raw) - 1))])


@FUZZ
@given(st.data())
def test_changed_byte_in_config_file(scratch, data):
    raw = json.dumps(CONFIG_FILE).encode()
    resolves_or_is_rejected(scratch / "byte.json", changed_byte(data, raw, len(raw)))


finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
finite64 = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=finite32))
def test_feature_file_round_trip(scratch, rows):
    write_features(scratch / "rt.dcvq", FeatureSequence("rt", rows, 2.0))
    back = read_features(scratch / "rt.dcvq")
    assert np.array_equal(back.features, rows)
    write_features(scratch / "rt2.dcvq", back)
    assert (scratch / "rt.dcvq").read_bytes() == (scratch / "rt2.dcvq").read_bytes()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(arrays(np.float64, (8, 1), elements=finite64), finite64,
       st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
def test_checkpoint_round_trip(scratch, regressor, val_loss, step, epoch):
    model = DCVQEModel.initialize(CONFIG, seed=2)
    model.params["regressor.weight"].data = regressor
    state = AdamState.for_model(model)
    state.step = step
    state.m["regressor.weight"] = -regressor
    cp = Checkpoint.snapshot(model, state, val_loss, epoch)
    save_checkpoint(scratch / "rt.ckpt", cp)
    back = load_checkpoint(scratch / "rt.ckpt")
    assert (back.config, back.epoch, back.adam_step_count, back.best_val_loss) == \
        (CONFIG, epoch, step, val_loss)
    for group in ("params", "adam_m", "adam_v"):
        for name, value in getattr(cp, group).items():
            assert np.array_equal(getattr(back, group)[name], value)
    save_checkpoint(scratch / "rt2.ckpt", back)
    assert (scratch / "rt.ckpt").read_bytes() == (scratch / "rt2.ckpt").read_bytes()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=8), st.text(max_size=8), st.floats(1.0, 5.0)),
                max_size=4, unique_by=lambda e: e[0]))
def test_manifest_round_trip(scratch, entries):
    manifest = DatasetManifest([ManifestEntry(*e) for e in entries], 1.0, 5.0, scratch)
    save_manifest(manifest, scratch / "rt.jsonl")
    back = load_manifest(scratch / "rt.jsonl")
    assert (back.entries, back.scale_min, back.scale_max) == (manifest.entries, 1.0, 5.0)


@st.composite
def run_configs(draw) -> dict:
    """Some of the keys train and ablate read, each with a value that passes
    the range checks whatever defaults the other keys take."""
    number = st.floats(0.01, 10.0) | st.integers(1, 10)
    values = {"input_dim": st.integers(1, 4096),
              "model_dim": st.integers(1, 64).map(lambda k: 4 * k),
              "num_heads": st.sampled_from([1, 2, 4]), "num_layers": st.integers(1, 4),
              "base_clip_len": st.integers(1, 30),
              "temporal_range": st.none() | st.integers(1, 60),
              "max_seq_len": st.integers(30, 600), "epochs": st.integers(1, 100),
              "batch_size": st.integers(2, 64), "learning_rate": number, "alpha": number,
              "beta": number, "loss": st.sampled_from(VARIANTS),
              "seed": st.integers(0, 2 ** 63), "repetitions": st.integers(1, 9)}
    keys = draw(st.sets(st.sampled_from(sorted(values))))
    return {key: draw(values[key]) for key in sorted(keys)}


@settings(derandomize=True, max_examples=50, deadline=None)
@given(run_configs(), st.lists(run_configs(), max_size=3))
def test_config_file_round_trip(scratch, cfg, grid):
    if grid:
        cfg["grid"] = grid
    (scratch / "rt.json").write_text(json.dumps(cfg))
    assert _load_config_file(scratch / "rt.json") == cfg
    runs = resolve_config(scratch / "rt.json")
    for row, resolved in zip([{}] + grid, runs):
        run = {key: value for key, value in {**cfg, **row}.items() if key != "grid"}
        assert {key: resolved[key] for key in run} == run


def train_cases() -> list[tuple[int, int, str, str]]:
    """(videos, batch size, loss, MOS layout) for ``train``: first the batches
    that once stopped the pairwise loss, then seeded draws over 5-12 videos,
    batch sizes 2-4, every loss and every MOS layout."""
    cases = [(7, 3, "pwrl", "distinct"),   # a last batch of one video
             (5, 3, "pwrl", "distinct"),   # a one-video validation split
             (8, 4, "pwrl", "tied")]       # every MOS tied
    rng = np.random.default_rng(24)
    for loss in VARIANTS * 8:
        cases.append((int(rng.integers(5, 13)), int(rng.integers(2, 5)), loss,
                      str(rng.choice(["distinct", "levels", "tied"]))))
    return cases


def test_train_runs_on_small_manifests(scratch):
    """``train`` exits 0 and writes a checkpoint on every small manifest, for
    every loss, whatever the batch or split sizes and MOS ties."""
    cfg = scratch / "train.json"
    cfg.write_text(json.dumps({**dataclasses.asdict(CONFIG), "epochs": 1}))
    started = time.perf_counter()
    for k, (videos, batch, loss, layout) in enumerate(train_cases()):
        rng = np.random.default_rng(k)
        mos = {"distinct": rng.uniform(1.0, 5.0, videos),
               "levels": rng.integers(1, 4, videos).astype(float),
               "tied": np.full(videos, 3.0)}[layout]
        entries = []
        for i in range(videos):
            rows = rng.normal(size=(int(rng.integers(1, 2 * CONFIG.max_seq_len)), 6))
            write_features(scratch / f"train{i}.dcvq", FeatureSequence(f"t{i}", rows, mos[i]))
            entries.append(ManifestEntry(f"t{i}", f"train{i}.dcvq", float(mos[i])))
        save_manifest(DatasetManifest(entries, 1.0, 5.0, scratch), scratch / "train.jsonl")
        out = scratch / f"train{k}.ckpt"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["train", "--manifest", str(scratch / "train.jsonl"), "--out", str(out),
                         "--config", str(cfg), "--batch-size", str(batch), "--loss", loss,
                         "--seed", str(k)])
        case = (videos, batch, loss, layout, stderr.getvalue())
        assert code == 0 and out.exists(), case
        assert "Traceback" not in stdout.getvalue() + stderr.getvalue(), case
    assert time.perf_counter() - started < 5.0
