"""Command-line surface: synth | train | eval | predict | gradcheck |
dump-embeddings | ablate.

A flag wins over its key in the JSON config file (--config), a file value
over the default, and DCVQE_SEED is the seed fallback. synth reads the keys
seed, videos, min_len, max_len, dim and noise; train, eval and ablate read
seed and every other key. Integer keys take JSON integers, float keys finite
numbers, loss a string, temporal_range an integer >= 1, "all" or null. An
ablate grid row may set any key but grid, seed included. Any other key or
value is a data error that names the key.
Exit codes: 0 success, 1 usage, 2 data/format, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

from . import autodiff as ad
from . import data as data_io
from .data import FormatError
from .losses import VARIANTS, LossConfig
from .metrics import DegenerateInputError
from .model import DCVQEConfig, DCVQEModel
from .training import (TrainConfig, evaluate, fit, gradcheck_suite,
                       load_checkpoint, run_repetitions, save_checkpoint)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1 for usage
        raise UsageError(message)


def _temporal_range(value):
    """temporal_range from flag text or a config-file value: an integer >= 1,
    or "all" (or null) for attention over the whole clip."""
    if value is None or str(value).lower() == "all":
        return None
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    if type(value) is not int or value < 1:
        raise argparse.ArgumentTypeError(
            f"temporal_range must be an integer >= 1, 'all' or null, got {value!r}")
    return value


# every key a config file may hold, over all commands, with the type of its value
CONFIG_KEYS = {
    **dict.fromkeys(["input_dim", "model_dim", "num_heads", "num_layers", "base_clip_len",
                     "max_seq_len", "epochs", "batch_size", "repetitions", "seed", "videos",
                     "min_len", "max_len", "dim"], int),
    **dict.fromkeys(["learning_rate", "alpha", "beta", "noise"], float),
    "loss": str, "temporal_range": _temporal_range, "grid": list}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list"}
# config keys that name a dataclass field differently
_FIELD_NAMES = {"epochs": "max_epochs", "loss": "variant"}

# each flag sets the config key it maps to; eval and gradcheck take only --seed
SEED_FLAG = {"--seed": "seed"}
SYNTH_FLAGS = {**SEED_FLAG, "--videos": "videos", "--min-len": "min_len",
               "--max-len": "max_len", "--dim": "dim", "--noise": "noise"}
TRAINING_FLAGS = {**SEED_FLAG, "--epochs": "epochs", "--batch-size": "batch_size",
                  "--lr": "learning_rate", "--alpha": "alpha", "--beta": "beta",
                  "--loss": "loss", "--temporal-range": "temporal_range",
                  "--clip-len": "base_clip_len", "--layers": "num_layers",
                  "--heads": "num_heads", "--max-len": "max_seq_len"}


def _add_flags(p, flags: dict) -> None:
    # SUPPRESS leaves a flag that was not given out of vars(args), so that
    # "--temporal-range all" (None) still wins over a file value
    for flag, key in flags.items():
        p.add_argument(flag, dest=key, type=CONFIG_KEYS[key], default=argparse.SUPPRESS,
                       choices=VARIANTS if key == "loss" else None)


def build_parser() -> _Parser:
    parser = _Parser(prog="dcvqe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic feature dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=Path, help="JSON config file")
    _add_flags(p, SYNTH_FLAGS)

    p = sub.add_parser("train", help="fit a model, keep the best-validation checkpoint")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint path")
    p.add_argument("--config", type=Path, help="JSON config file")
    _add_flags(p, TRAINING_FLAGS)

    p = sub.add_parser("eval", help="print a metrics report for a checkpoint")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--split", choices=["all", "train", "val", "test"], default="all",
                   help="evaluate the whole manifest or one split of it")
    p.add_argument("--config", type=Path, help="JSON config file")
    _add_flags(p, SEED_FLAG)

    p = sub.add_parser("predict", help="print one score per feature file")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("features", nargs="+", type=Path)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    _add_flags(p, SEED_FLAG)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("dump-embeddings", help="write final video embeddings as JSONL")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("ablate", help="run a declared grid of config overrides")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, help="write the result table as JSON")
    p.add_argument("--config", type=Path, help="JSON config file")
    _add_flags(p, TRAINING_FLAGS)
    return parser


def _checked(cfg, keys, where: str) -> dict:
    """``cfg`` if it is an object of only ``keys``, each holding a value of
    the type CONFIG_KEYS gives it, grid rows included; else FormatError."""
    if not isinstance(cfg, dict):
        raise FormatError(f"{where} must be a JSON object")
    unknown = sorted(set(cfg) - keys)
    if unknown:
        raise FormatError(f"{where}: unknown config key(s) {', '.join(map(repr, unknown))} "
                          f"(known: {', '.join(sorted(keys))})")
    for key, value in cfg.items():
        kind = CONFIG_KEYS[key]
        if kind is _temporal_range:
            try:
                kind(value)
            except argparse.ArgumentTypeError as exc:
                raise FormatError(f"{where}: {exc}") from None
        elif not (type(value) is kind or (kind is float and type(value) is int)) or (
                kind is float and not abs(value) <= sys.float_info.max):  # NaN, inf, 10**400
            raise FormatError(f"{where}: {key!r} must be {_TYPE_NAMES[kind]}, "
                              f"got {json.dumps(value)}")
    for i, row in enumerate(cfg.get("grid", [])):
        _checked(row, keys - {"grid"}, f"{where}, grid entry {i}")
    return cfg


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:  # bad JSON, too deeply nested, or not UTF-8
        raise FormatError(f"config file {path} is not valid JSON: {exc}") from exc
    return _checked(cfg, CONFIG_KEYS.keys(), f"config file {path}")


def _command_config(args) -> dict:
    """The --config file of ``args``, holding only keys that its command reads."""
    synth_keys = set(SYNTH_FLAGS.values())
    reads = synth_keys if args.command == "synth" else CONFIG_KEYS.keys() - synth_keys | {"seed"}
    return _checked(_load_config_file(args.config), reads,
                    f"config file {args.config} for {args.command}")


def _fields(cls, args, file_cfg: dict) -> dict:
    """The fields of dataclass ``cls`` that a flag or the file sets, a flag
    winning over the file; a field that neither sets keeps its default."""
    given = {_FIELD_NAMES.get(key, key): CONFIG_KEYS[key](value)
             for key, value in {**file_cfg, **vars(args)}.items() if key in CONFIG_KEYS}
    return {f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given}


def _resolve_seed(args, file_cfg: dict) -> int:
    seed = {**file_cfg, **vars(args)}.get("seed", os.environ.get("DCVQE_SEED", 0))
    try:
        return int(seed)  # file and flag values are integers already
    except ValueError:
        raise UsageError(f"DCVQE_SEED must be an integer, got {seed!r}")


def _model_config(args, file_cfg: dict, input_dim: int) -> DCVQEConfig:
    return DCVQEConfig(**_fields(DCVQEConfig, args, {"input_dim": input_dim, **file_cfg}))


def _train_config(args, file_cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(**{**_fields(TrainConfig, args, file_cfg), "seed": seed,
                          "loss": LossConfig(**_fields(LossConfig, args, file_cfg))})


def _check_out(path: Path, directory: bool = False) -> None:
    """Refuse an output path before any work: a file's parent must be a
    directory and the file must not be one; a directory may be created with
    its parents, but the nearest part of its path that exists must be a
    directory."""
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"cannot write into {path}: {existing} is not a directory")
    elif path.is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    elif not path.parent.is_dir():
        raise NotADirectoryError(f"cannot write {path}: {path.parent} is not a directory")


def _cmd_synth(args) -> int:
    _check_out(args.out, directory=True)
    file_cfg = _command_config(args)
    run = {"videos": 500, "min_len": 60, "max_len": 300, "dim": 64, "noise": 0.1,
           **file_cfg, **vars(args)}
    manifest = data_io.synth_dataset(
        args.out, n_videos=run["videos"], len_range=(run["min_len"], run["max_len"]),
        dim=run["dim"], noise_sigma=run["noise"], seed=_resolve_seed(args, file_cfg))
    print(f"wrote {len(manifest)} videos to {args.out} (manifest.jsonl)")
    return EXIT_OK


def _cmd_train(args) -> int:
    log_path = Path(str(args.out) + ".log")
    for path in (args.out, log_path):
        _check_out(path)
    file_cfg = _command_config(args)
    seed = _resolve_seed(args, file_cfg)
    manifest = data_io.load_manifest(args.manifest)
    probe_dim = data_io.manifest_feature_dim(manifest)
    model_cfg = _model_config(args, file_cfg, input_dim=probe_dim)
    train_cfg = _train_config(args, file_cfg, seed)
    tr_m, va_m, _ = data_io.split(manifest, seed)
    train_seqs = data_io.load_sequences(tr_m, max_len=model_cfg.max_seq_len)
    val_seqs = data_io.load_sequences(va_m, max_len=model_cfg.max_seq_len)
    model = DCVQEModel.initialize(model_cfg, seed=seed)

    with open(log_path, "w") as log:
        def on_epoch(rec):
            log.write(json.dumps({"epoch": rec.epoch, "train_loss": rec.train_loss,
                                  "val_loss": rec.val_loss,
                                  "wall_time_s": rec.wall_time_s}) + "\n")
            log.flush()
            print(f"epoch {rec.epoch}: train {rec.train_loss:.4f} "
                  f"val {rec.val_loss:.4f} ({rec.wall_time_s:.1f}s)")

        result = fit(model, train_seqs, val_seqs, train_cfg, on_epoch=on_epoch)
    save_checkpoint(args.out, result.best)
    print(f"best epoch {result.best.epoch} (val loss {result.best.best_val_loss:.4f}) "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    file_cfg = _command_config(args)
    seed = _resolve_seed(args, file_cfg)
    cp = load_checkpoint(args.checkpoint)
    manifest = data_io.load_manifest(args.manifest)
    if args.split != "all":
        parts = data_io.split(manifest, seed)
        manifest = dict(zip(("train", "val", "test"), parts))[args.split]
    data_io.manifest_feature_dim(manifest)
    seqs = data_io.load_sequences(manifest, max_len=cp.config.max_seq_len)
    report = evaluate(cp.build_model(), seqs)
    print(f"srcc={report.srcc:.4f} krcc={report.krcc:.4f} plcc={report.plcc:.4f} "
          f"rmse={report.rmse:.4f} n={report.n}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    cp = load_checkpoint(args.checkpoint)
    model = cp.build_model()
    for path in args.features:
        seq = data_io.truncate(data_io.read_features(path), cp.config.max_seq_len)
        score = model.predict(seq.features)
        if not math.isfinite(score):
            raise FloatingPointError(f"non-finite score {score} for {path}")
        print(f"{path}\t{score:.6f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    seed = _resolve_seed(args, {})
    report = gradcheck_suite(seed=seed)
    for check in report.per_parameter:
        print(f"{check.name:24s} max_rel_err={check.max_rel_error:.3e} "
              f"coords={check.checked} nonsmooth={check.flagged_nonsmooth}")
    print(f"overall max relative error: {report.max_rel_error:.3e} (tolerance {args.tol:g})")
    return EXIT_OK if report.passes(args.tol) else EXIT_NUMERIC


def _cmd_dump_embeddings(args) -> int:
    _check_out(args.out)
    cp = load_checkpoint(args.checkpoint)
    model = cp.build_model()
    manifest = data_io.load_manifest(args.manifest)
    data_io.manifest_feature_dim(manifest)
    lines = []  # written only once every video has been read and embedded
    for seq in data_io.load_sequences(manifest, max_len=cp.config.max_seq_len):
        embedding = model.embed(seq.features).data.reshape(-1).tolist()
        if not all(map(math.isfinite, embedding)):
            raise FloatingPointError(f"non-finite embedding for video {seq.video_id!r}")
        lines.append(json.dumps({"video_id": seq.video_id, "mos": seq.mos,
                                 "embedding": embedding}) + "\n")
    with open(args.out, "w") as fh:
        fh.writelines(lines)
    print(f"wrote {len(lines)} embeddings to {args.out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    if args.out:
        _check_out(args.out)
    file_cfg = _command_config(args)
    grid = file_cfg.pop("grid", None)
    if not grid:
        raise UsageError("ablate needs a config file with a non-empty 'grid' list of overrides")
    manifest = data_io.load_manifest(args.manifest)
    probe_dim = data_io.manifest_feature_dim(manifest)

    rows = []
    for overrides in grid:
        run = {**file_cfg, **overrides}
        model_cfg = _model_config(args, run, input_dim=probe_dim)
        train_cfg = _train_config(args, run, _resolve_seed(args, run))
        t0 = time.perf_counter()
        result = run_repetitions(manifest, model_cfg, train_cfg)
        rows.append({"overrides": overrides, "median": dataclasses.asdict(result.median),
                     "runs": [dataclasses.asdict(r.report) for r in result.runs],
                     "wall_time_s": time.perf_counter() - t0})

    key_names = sorted({k for row in rows for k in row["overrides"]})
    header = " | ".join([f"{k:>14s}" for k in key_names]
                        + [f"{m:>8s}" for m in ("srcc", "krcc", "plcc", "rmse")])
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = [f"{str(row['overrides'].get(k, '')):>14s}" for k in key_names]
        med = row["median"]
        cells += [f"{med[m]:8.4f}" for m in ("srcc", "krcc", "plcc", "rmse")]
        print(" | ".join(cells))
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote table to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
    "dump-embeddings": _cmd_dump_embeddings,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, DegenerateInputError, ad.GraphError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, ad.ShapeError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
