"""Derandomized fuzzing of the two binary parsers, ``read_features`` and
``load_checkpoint``, and of the two JSON inputs, ``load_manifest`` and CLI
config files: a valid file cut short or with one byte changed either loads
or raises ``FormatError`` (CLI exit 2), never anything else, and valid files
round-trip. A config file may also fail a dataclass range check, a
``ValueError`` that the CLI reports with exit 2 as well. ``predict`` runs on
checkpoints whose header values are replaced with hostile ones,
``dump-embeddings`` and ``eval`` on cut and changed manifests and
checkpoints, ``predict`` and ``eval`` on cut and changed feature files,
``train`` and ``ablate`` on cut and changed manifests and feature files,
and ``gradcheck`` on hostile seeds and tolerances; each exits with a
documented code and prints no traceback. ``train`` runs
one epoch on small manifests, every loss and batch layout, and exits 0.
``synth``, ``train``, ``eval`` and ``ablate`` run on cut and changed copies
of the shipped configs, shrunk to tiny settings, and on hostile flag values;
each exits with a documented code, prints no traceback, and leaves no
output on exit 1 or 2."""

import contextlib
import dataclasses
import io
import json
import shutil
import struct
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcvqe import autodiff as ad
from dcvqe.autodiff import GradCheckReport, ParameterGradCheck
from dcvqe.cli import (SEED_FLAG, SYNTH_FLAGS, TRAINING_FLAGS, _configs, _settings,
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
CONFIG_FILE = {"model_dim": 8, "num_heads": 2, "num_layers": 2,
               "base_clip_len": 4, "temporal_range": 2, "max_seq_len": 12, "epochs": 3,
               "batch_size": 4, "learning_rate": 0.001, "alpha": 0.7, "beta": 0.3,
               "loss": "correlation", "seed": 7, "repetitions": 2,
               "grid": [{"alpha": 1.0, "beta": 0.0, "seed": 3},
                        {"temporal_range": "all", "loss": "pwrl"}]}


def resolve_config(path) -> list[dict]:
    """Each run the config file at ``path`` declares, resolved as ``ablate``
    resolves it (the file alone first, then each grid row over the file),
    as a flat dict of config keys."""
    args = build_parser().parse_args(["ablate", "--manifest", "m.jsonl", "--config", str(path)])
    settings = _settings(args)
    runs = []
    for row in [{}] + settings.pop("grid", []):
        model_cfg, train_cfg = _configs(_settings(args, {**settings, **row}), input_dim=6)
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


def cut_or_changed(data, files: dict[str, bytes]) -> dict[str, bytes]:
    """``files`` (a manifest with a checkpoint or a feature file) with one of
    them cut short or with one byte changed, half the time in its header."""
    which = data.draw(st.sampled_from(sorted(files)))
    raw = files[which]
    if data.draw(st.booleans()):
        return {**files, which: raw[:data.draw(st.integers(0, len(raw) - 1))]}
    focus = (raw.index(b"\n") if which == "manifest"
             else header_end(raw) if which == "checkpoint" else 16)
    return {**files, which: changed_byte(data, raw, focus)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_dump_embeddings_on_cut_and_changed_inputs(scratch, checkpoint_bytes,
                                                   dump_manifest_bytes, data):
    files = cut_or_changed(data, {"manifest": dump_manifest_bytes,
                                  "checkpoint": checkpoint_bytes})
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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_eval_on_cut_and_changed_manifests_and_checkpoints(scratch, checkpoint_bytes,
                                                           dump_manifest_bytes, data):
    files = cut_or_changed(data, {"manifest": dump_manifest_bytes,
                                  "checkpoint": checkpoint_bytes})
    split = data.draw(st.sampled_from(["all", "test"]))
    (scratch / "eval.jsonl").write_bytes(files["manifest"])
    (scratch / "eval.ckpt").write_bytes(files["checkpoint"])
    before = sorted(scratch.iterdir())
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["eval", "--manifest", str(scratch / "eval.jsonl"),
                     "--checkpoint", str(scratch / "eval.ckpt"), "--split", split])
    assert code in (0, 1, 2, 3), stderr.getvalue()
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
    assert sorted(scratch.iterdir()) == before, (code, stderr.getvalue())


@pytest.fixture(scope="module")
def training_inputs(scratch):
    """A manifest of six short videos of ``CONFIG``'s width, the bytes of
    the manifest and of its first feature file, and a tiny config file with
    one grid row for ``ablate``."""
    rng = np.random.default_rng(7)
    entries = []
    for i in range(6):
        rows = rng.normal(size=(int(rng.integers(1, 2 * CONFIG.max_seq_len)), CONFIG.input_dim))
        write_features(scratch / f"fit{i}.dcvq", FeatureSequence(f"f{i}", rows, 1.0 + 0.7 * i))
        entries.append(ManifestEntry(f"f{i}", f"fit{i}.dcvq", 1.0 + 0.7 * i))
    save_manifest(DatasetManifest(entries, 1.0, 5.0, scratch), scratch / "fit.jsonl")
    model = {key: value for key, value in dataclasses.asdict(CONFIG).items() if key != "input_dim"}
    (scratch / "fit.json").write_text(json.dumps({**model, "epochs": 1, "batch_size": 3,
                                                  "grid": [{"loss": "pwrl"}]}))
    return {"manifest": (scratch / "fit.jsonl").read_bytes(),
            "features": (scratch / "fit0.dcvq").read_bytes()}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_train_and_ablate_on_cut_and_changed_manifests_and_feature_files(
        scratch, training_inputs, data):
    """Each run exits 0-3 with no traceback and no warning; an exit of 1 or
    2 leaves no checkpoint, log or table, and an exit of 0 leaves them."""
    files = cut_or_changed(data, training_inputs)
    (scratch / "fit.jsonl").write_bytes(files["manifest"])
    (scratch / "fit0.dcvq").write_bytes(files["features"])
    out = scratch / "fit-out"
    out.mkdir()
    command = data.draw(st.sampled_from(["train", "ablate"]))
    written = {"train": [out / "m.ckpt", out / "m.ckpt.log"], "ablate": [out / "t.json"]}
    argv = [command, "--manifest", str(scratch / "fit.jsonl"), "--config",
            str(scratch / "fit.json"), "--out", str(written[command][0])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    case = (argv, files, stderr.getvalue(), [str(w.message) for w in caught])
    assert code in (0, 1, 2, 3), case
    assert not caught, case
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue(), case
    if code in (1, 2):
        assert list(out.iterdir()) == [], case
    if code == 0:
        assert sorted(out.iterdir()) == sorted(written[command]), case
    shutil.rmtree(out)


# hostile --seed and --tol values, next to valid ones; the empty --seed is a
# usage error, the others reach the settings or the tolerance check
GRADCHECK_SEEDS = ["-1", "x", "2.5", "nan", "1e3", "", "-0", "0", str(2 ** 80), str(-2 ** 80)]
GRADCHECK_TOLS = ["x", "nan", "-1", "-inf", "inf", "1e400", "-0.0", "0", "1e-4", "-1e-3"]


def test_gradcheck_on_hostile_seeds_and_tolerances(monkeypatch):
    """Every pairing exits 0-3 with no traceback. The finite differences are
    replaced by one forward, so each accepted seed still draws the model and
    the videos that the suite checks."""
    def one_forward(f, params, h=1e-5):
        f()
        return GradCheckReport([ParameterGradCheck("loss", 0.0, 1, 0)])

    monkeypatch.setattr(ad, "gradient_check", one_forward)
    codes = set()
    started = time.perf_counter()
    for seed in GRADCHECK_SEEDS:
        for tol in GRADCHECK_TOLS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["gradcheck", "--seed", seed, "--tol", tol])
            case = (seed, tol, stderr.getvalue())
            assert code in (0, 1, 2, 3), case
            assert "Traceback" not in stdout.getvalue() + stderr.getvalue(), case
            codes.add(code)
    assert codes == {0, 1, 2}
    assert time.perf_counter() - started < 3.0


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
    assert (back.config, back.epoch, back.adam.step, back.best_val_loss) == \
        (CONFIG, epoch, step, val_loss)
    for group in (lambda c: c.params, lambda c: c.adam.m, lambda c: c.adam.v):
        for name, value in group(cp).items():
            assert np.array_equal(group(back)[name], value)
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
    values = {"model_dim": st.integers(1, 64).map(lambda k: 4 * k),
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
    model = {key: value for key, value in dataclasses.asdict(CONFIG).items() if key != "input_dim"}
    cfg.write_text(json.dumps({**model, "epochs": 1}))
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


# tiny values for the keys of the shipped configs, and a tiny synth config
TINY_SETTINGS = {"model_dim": 8, "num_heads": 2, "num_layers": 2, "base_clip_len": 4,
                 "temporal_range": 2, "max_seq_len": 12, "epochs": 1, "batch_size": 4,
                 "repetitions": 1}
SYNTH_FILE = {"seed": 7, "videos": 5, "min_len": 1, "max_len": 6, "dim": 3, "noise": 0.1}
COMMAND_FLAGS = {"synth": SYNTH_FLAGS, "train": TRAINING_FLAGS, "eval": SEED_FLAG,
                 "ablate": TRAINING_FLAGS}
# a wrong type, zero, a negative, nan, inf and a huge value, next to a valid one
HOSTILE_FLAG_VALUES = ["x", "2.5", "0", "-1", "nan", "inf", "1e308", "3"]


@pytest.fixture(scope="module")
def settings_inputs(scratch):
    """The raw config files that the settings fuzz cuts and changes, and a
    manifest of eight short videos of ``CONFIG``'s width with a checkpoint."""
    configs = sorted(Path(__file__).resolve().parents[1].glob("configs/*.json"))
    raws = [json.dumps({key: TINY_SETTINGS.get(key, value)
                        for key, value in json.loads(path.read_text()).items()}).encode()
            for path in configs]
    rng = np.random.default_rng(6)
    entries = []
    for i, frames in enumerate(rng.integers(1, 2 * CONFIG.max_seq_len, 8)):
        rows = rng.normal(size=(int(frames), CONFIG.input_dim))
        write_features(scratch / f"settings{i}.dcvq", FeatureSequence(f"s{i}", rows, 1.0 + i / 2))
        entries.append(ManifestEntry(f"s{i}", f"settings{i}.dcvq", 1.0 + i / 2))
    save_manifest(DatasetManifest(entries, 1.0, 5.0, scratch), scratch / "settings.jsonl")
    model = DCVQEModel.initialize(CONFIG, seed=3)
    save_checkpoint(scratch / "settings.ckpt",
                    Checkpoint.snapshot(model, AdamState.for_model(model), 0.5, 1))
    return raws, json.dumps(SYNTH_FILE).encode()


def settings_cases(shipped: list[bytes], synth_raw: bytes) -> list[tuple[str, bytes, list]]:
    """(command, config file bytes, flags): first every flag of every command
    with each hostile value over an unchanged config, then seeded draws of a
    config cut short or with one byte changed and up to two hostile flags."""
    raws = {"synth": [synth_raw], "train": shipped, "eval": shipped,
            "ablate": [raw for raw in shipped if b'"grid"' in raw]}
    cases = [(command, raws[command][i % len(raws[command])], [flag, value])
             for command, flags in COMMAND_FLAGS.items()
             for i, flag in enumerate(flags) for value in HOSTILE_FLAG_VALUES]
    rng = np.random.default_rng(25)
    for _ in range(200):
        command = str(rng.choice(list(COMMAND_FLAGS)))
        raw = shipped[rng.integers(len(shipped))] if command != "synth" else synth_raw
        at = int(rng.integers(len(raw)))
        raw = raw[:at] + (bytes([int(rng.integers(256))]) + raw[at + 1:]
                          if rng.integers(2) else b"")
        flags = []
        for flag in rng.permutation(list(COMMAND_FLAGS[command]))[:rng.integers(3)]:
            flags += [str(flag), str(rng.choice(HOSTILE_FLAG_VALUES))]
        cases.append((command, raw, flags))
    return cases


def test_settings_from_cut_and_changed_files_and_hostile_flags(scratch, settings_inputs):
    """Every command that takes settings exits 0-3 without a traceback on
    each case of ``settings_cases``, and an exit of 1 or 2 leaves no output
    behind. No run warns: a diverging run stops at its first overflow or
    invalid value, which is the numeric failure (exit 3)."""
    manifest, config, out = (str(scratch / "settings.jsonl"), scratch / "settings.json",
                             scratch / "settings-out")
    outputs = {"synth": ["--out", str(out / "data")],
               "train": ["--manifest", manifest, "--out", str(out / "m.ckpt")],
               "eval": ["--manifest", manifest, "--checkpoint", str(scratch / "settings.ckpt"),
                        "--split", "val"],
               "ablate": ["--manifest", manifest, "--out", str(out / "table.json")]}
    started = time.perf_counter()
    for command, raw, flags in settings_cases(*settings_inputs):
        config.write_bytes(raw)
        out.mkdir()
        argv = [command, "--config", str(config), *flags, *outputs[command]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning does not stop a command-line run
            code = main(argv)
        case = (argv, raw, stderr.getvalue(), [str(w.message) for w in caught])
        assert code in (0, 1, 2, 3), case
        assert not caught, case
        assert "Traceback" not in stdout.getvalue() + stderr.getvalue(), case
        if code in (1, 2):
            assert list(out.iterdir()) == [], case
        shutil.rmtree(out)
    assert time.perf_counter() - started < 10.0
