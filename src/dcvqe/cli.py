"""Command-line surface: synth | train | eval | predict | gradcheck |
dump-embeddings | ablate.

Every command resolves its settings in ``_settings``: a flag wins over its
key in the JSON config file (--config), a file value over the default, and
the seed falls back to DCVQE_SEED, then 0. synth reads the keys seed,
videos, min_len, max_len, dim and noise; train, eval and ablate read seed
and every other key. Integer keys take JSON integers, float keys finite
numbers, loss a string, temporal_range an integer >= 1, "all" or null. An
ablate grid row may set any key but grid, seed included. Any other key or
value is a data error that names the key. The input width is the manifest's.
Exit codes: 0 success, 1 usage, 2 data/format (any operating-system error
on a path included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path

from . import data as data_io
from .data import FormatError
from .losses import VARIANTS, LossConfig
from .metrics import DegenerateInputError
from .model import DCVQEConfig, DCVQEModel
from .training import (TrainConfig, evaluate, fit, gradcheck_suite, load_checkpoint,
                       run_repetitions, save_checkpoint, score_each)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a word after a flag for a value when it looks like a
        # negative number, by default only "-1" or "-.5": "--lr -inf" and
        # "--tol -1e-3" then read as flags without a value. Every negative
        # number that float() reads is a value here; no flag starts so.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

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
    **dict.fromkeys(["model_dim", "num_heads", "num_layers", "base_clip_len", "max_seq_len",
                     "epochs", "batch_size", "repetitions", "seed", "videos", "min_len",
                     "max_len", "dim"], int),
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


def _add_flags(p, flags: dict, config: bool = True) -> None:
    if config:
        p.add_argument("--config", type=Path, help="JSON config file")
    # SUPPRESS leaves a flag that was not given out of the namespace, so that
    # "--temporal-range all" (None) still wins over a file value
    for flag, key in flags.items():
        p.add_argument(flag, dest=key, type=CONFIG_KEYS[key], default=argparse.SUPPRESS,
                       choices=VARIANTS if key == "loss" else None)


def build_parser() -> _Parser:
    parser = _Parser(prog="dcvqe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic feature dataset")
    p.add_argument("--out", type=Path, required=True)
    _add_flags(p, SYNTH_FLAGS)

    p = sub.add_parser("train", help="fit a model, keep the best-validation checkpoint")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint path")
    _add_flags(p, TRAINING_FLAGS)

    p = sub.add_parser("eval", help="print a metrics report for a checkpoint")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--split", choices=["all", "train", "val", "test"], default="all",
                   help="evaluate the whole manifest or one split of it")
    _add_flags(p, SEED_FLAG)

    p = sub.add_parser("predict", help="print one score per feature file")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("features", nargs="+", type=Path)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    _add_flags(p, SEED_FLAG, config=False)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("dump-embeddings", help="write final video embeddings as JSONL")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("ablate", help="run a declared grid of config overrides")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, help="write the result table as JSON")
    _add_flags(p, TRAINING_FLAGS)
    return parser


def _check(cfg, keys, where: str) -> None:
    """FormatError unless ``cfg`` is an object of only ``keys``, each holding
    a value of the type CONFIG_KEYS gives it, grid rows included."""
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
        _check(row, keys - {"grid"}, f"{where}, grid entry {i}")


def _settings(args, cfg: dict | None = None) -> dict:
    """Every setting of ``args``'s command, keyed by config key and converted
    to its key's type: a flag wins over ``cfg`` (an ablate run's row over the
    file; by default the --config file, read and checked against the keys
    that the command reads), and the seed falls back to DCVQE_SEED, then 0.
    A negative seed is a data error, or a usage error from DCVQE_SEED."""
    path = getattr(args, "config", None)
    if cfg is None and path is not None:
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except (RecursionError, ValueError) as exc:  # bad JSON, too deeply nested, or not UTF-8
            raise FormatError(f"config file {path} is not valid JSON: {exc}") from exc
        synth = set(SYNTH_FLAGS.values())
        reads = synth if args.command == "synth" else CONFIG_KEYS.keys() - synth | {"seed"}
        _check(cfg, reads, f"config file {path} for {args.command}")
    given = {"seed": os.environ.get("DCVQE_SEED", "0"), **(cfg or {}), **vars(args)}
    try:  # file and flag values have their key's type already
        settings = {key: CONFIG_KEYS[key](value) for key, value in given.items()
                    if key in CONFIG_KEYS}
        if settings["seed"] >= 0:
            return settings
    except ValueError:  # DCVQE_SEED is no integer
        pass
    if isinstance(given["seed"], str):  # DCVQE_SEED, the one value given as text
        raise UsageError(f"DCVQE_SEED must be an integer >= 0, got {given['seed']!r}")
    raise ValueError(f"seed must be >= 0, got {given['seed']}")


def _configs(settings: dict, input_dim: int) -> tuple[DCVQEConfig, TrainConfig]:
    """The model and training configs of ``settings`` for features of
    ``input_dim`` columns; a field that no setting names keeps its default."""
    given = {_FIELD_NAMES.get(key, key): value for key, value in settings.items()}
    fields = {cls: {f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given}
              for cls in (DCVQEConfig, TrainConfig, LossConfig)}
    return (DCVQEConfig(**fields[DCVQEConfig], input_dim=input_dim),
            TrainConfig(**fields[TrainConfig], loss=LossConfig(**fields[LossConfig])))


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


def _check_width(width: int, source: str, cp, checkpoint: Path) -> None:
    """Refuse features of ``width`` columns from ``source`` (a manifest or a
    file) that the checkpoint ``cp``, read from ``checkpoint``, cannot score."""
    if width != cp.config.input_dim:
        raise FormatError(f"{source} has feature width {width}, but checkpoint {checkpoint} "
                          f"takes {cp.config.input_dim}")


def _cmd_synth(args) -> int:
    _check_out(args.out, directory=True)
    run = {"videos": 500, "min_len": 60, "max_len": 300, "dim": 64, "noise": 0.1,
           **_settings(args)}
    manifest = data_io.synth_dataset(
        args.out, n_videos=run["videos"], len_range=(run["min_len"], run["max_len"]),
        dim=run["dim"], noise_sigma=run["noise"], seed=run["seed"])
    print(f"wrote {len(manifest)} videos to {args.out} (manifest.jsonl)")
    return EXIT_OK


def _cmd_train(args) -> int:
    log_path = Path(str(args.out) + ".log")
    for path in (args.out, log_path):
        _check_out(path)
    settings = _settings(args)
    manifest = data_io.load_manifest(args.manifest)
    model_cfg, train_cfg = _configs(settings, data_io.manifest_feature_dim(manifest))
    tr_m, va_m, _ = data_io.split(manifest, train_cfg.seed)
    train_seqs = data_io.load_sequences(tr_m, max_len=model_cfg.max_seq_len)
    val_seqs = data_io.load_sequences(va_m, max_len=model_cfg.max_seq_len)
    model = DCVQEModel.initialize(model_cfg, seed=train_cfg.seed)

    def on_epoch(rec):  # the first record creates the log: a failed run leaves none
        with open(log_path, "w" if rec.epoch == 1 else "a") as log:
            log.write(json.dumps(dataclasses.asdict(rec)) + "\n")
        print(f"epoch {rec.epoch}: train {rec.train_loss:.4f} "
              f"val {rec.val_loss:.4f} ({rec.wall_time_s:.1f}s)")

    best = fit(model, train_seqs, val_seqs, train_cfg, on_epoch=on_epoch)
    save_checkpoint(args.out, best)
    print(f"best epoch {best.epoch} (val loss {best.best_val_loss:.4f}) -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    seed = _settings(args)["seed"]
    cp = load_checkpoint(args.checkpoint)
    manifest = data_io.load_manifest(args.manifest)
    if args.split != "all":
        parts = data_io.split(manifest, seed)
        manifest = dict(zip(("train", "val", "test"), parts))[args.split]
    _check_width(data_io.manifest_feature_dim(manifest), f"manifest {args.manifest}", cp,
                 args.checkpoint)
    report = evaluate(cp.build_model(), data_io.read_sequences(manifest, cp.config.max_seq_len))
    print(f"srcc={report.srcc:.4f} krcc={report.krcc:.4f} plcc={report.plcc:.4f} "
          f"rmse={report.rmse:.4f} n={report.n}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    cp = load_checkpoint(args.checkpoint)
    for path in args.features:  # every width is checked before the first payload is read
        _check_width(data_io.read_header(path)[1], f"file {path}", cp, args.checkpoint)
    seqs = (data_io.truncate(data_io.read_features(path, video_id=str(path)),
                             cp.config.max_seq_len) for path in args.features)
    for seq, score in score_each(cp.build_model(), seqs, name=lambda s: f"file {s.video_id}"):
        print(f"{seq.video_id}\t{score:.6f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if not args.tol >= 0:  # NaN fails too: such a tolerance could never pass
        raise ValueError(f"--tol must be a number >= 0, got {args.tol}")
    report = gradcheck_suite(seed=_settings(args)["seed"])
    for check in report.per_parameter:
        print(f"{check.name:24s} max_rel_err={check.max_rel_error:.3e} "
              f"coords={check.checked} nonsmooth={check.flagged_nonsmooth}")
    print(f"overall max relative error: {report.max_rel_error:.3e} (tolerance {args.tol:g})")
    return EXIT_OK if report.passes(args.tol) else EXIT_NUMERIC


def _cmd_dump_embeddings(args) -> int:
    _check_out(args.out)
    cp = load_checkpoint(args.checkpoint)
    manifest = data_io.load_manifest(args.manifest)
    _check_width(data_io.manifest_feature_dim(manifest), f"manifest {args.manifest}", cp,
                 args.checkpoint)
    seqs = data_io.read_sequences(manifest, cp.config.max_seq_len)
    # the file is written only once every video has been read and embedded
    lines = [json.dumps({"video_id": seq.video_id, "mos": seq.mos,
                         "embedding": embedding.tolist()}) + "\n"
             for seq, embedding in score_each(cp.build_model(), seqs, embed=True)]
    with open(args.out, "w") as fh:
        fh.writelines(lines)
    print(f"wrote {len(lines)} embeddings to {args.out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    if args.out:
        _check_out(args.out)
    settings = _settings(args)
    grid = settings.pop("grid", None)
    if not grid:
        raise UsageError("ablate needs a config file with a non-empty 'grid' list of overrides")
    manifest = data_io.load_manifest(args.manifest)
    input_dim = data_io.manifest_feature_dim(manifest)
    # every row is checked before the first one trains
    configs = [_configs(_settings(args, {**settings, **overrides}), input_dim)
               for overrides in grid]

    rows = []
    for overrides, (model_cfg, train_cfg) in zip(grid, configs):
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
    except (FloatingPointError, DegenerateInputError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, MemoryError) as exc:  # FormatError, ShapeError: ValueErrors
        print(f"data error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
