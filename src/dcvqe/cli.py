"""Command-line surface: synth | train | eval | predict | gradcheck |
dump-embeddings | ablate.

Options can come from a JSON config file (--config); explicit flags win over
file values, and DCVQE_SEED is the seed fallback when neither sets it.
Exit codes: 0 success, 1 usage, 2 data/format, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import autodiff as ad
from . import data as data_io
from .data import FormatError, SplitSpec
from .losses import LossConfig, TiedGroundTruthError
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


def _temporal_range(text: str):
    if text.lower() == "all":
        return None
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("temporal range must be >= 1 or 'all'")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="dcvqe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def training_flags(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--loss", choices=["correlation", "pwrl", "l1"])
        # SUPPRESS keeps "--temporal-range all" (None) distinguishable from
        # "flag not given"
        p.add_argument("--temporal-range", type=_temporal_range, default=argparse.SUPPRESS)
        p.add_argument("--clip-len", type=int)
        p.add_argument("--layers", type=int)
        p.add_argument("--heads", type=int)
        p.add_argument("--max-len", type=int)

    p = sub.add_parser("synth", help="generate a synthetic feature dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=Path)
    p.add_argument("--seed", type=int)
    p.add_argument("--videos", type=int)
    p.add_argument("--min-len", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--noise", type=float)

    p = sub.add_parser("train", help="fit a model, keep the best-validation checkpoint")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint path")
    training_flags(p)

    p = sub.add_parser("eval", help="print a metrics report for a checkpoint")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--split", choices=["all", "train", "val", "test"], default="all",
                   help="evaluate the whole manifest or one split of it")
    p.add_argument("--config", type=Path)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("predict", help="print one score per feature file")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("features", nargs="+", type=Path)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("dump-embeddings", help="write final video embeddings as JSONL")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("ablate", help="run a declared grid of config overrides")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, help="write the result table as JSON")
    training_flags(p)
    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(path.read_text())
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise FormatError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise FormatError(f"config file {path} must hold a JSON object")
    return cfg


def _pick(flag, file_cfg: dict, key: str, default):
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _resolve_seed(args, file_cfg: dict) -> int:
    seed = _pick(getattr(args, "seed", None), file_cfg, "seed", None)
    if seed is None:
        env = os.environ.get("DCVQE_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise UsageError(f"DCVQE_SEED must be an integer, got {env!r}")
    return 0 if seed is None else int(seed)


def _model_config(args, file_cfg: dict, input_dim: int) -> DCVQEConfig:
    if hasattr(args, "temporal_range"):
        tr = args.temporal_range
    elif "temporal_range" in file_cfg:
        raw = file_cfg["temporal_range"]
        tr = None if (raw is None or str(raw).lower() == "all") else int(raw)
    else:
        tr = DCVQEConfig.temporal_range
    return DCVQEConfig(
        input_dim=int(file_cfg.get("input_dim", input_dim)),
        model_dim=int(file_cfg.get("model_dim", DCVQEConfig.model_dim)),
        num_heads=int(_pick(getattr(args, "heads", None), file_cfg, "num_heads",
                            DCVQEConfig.num_heads)),
        num_layers=int(_pick(getattr(args, "layers", None), file_cfg, "num_layers",
                             DCVQEConfig.num_layers)),
        base_clip_len=int(_pick(getattr(args, "clip_len", None), file_cfg, "base_clip_len",
                                DCVQEConfig.base_clip_len)),
        temporal_range=tr,
        max_seq_len=int(_pick(getattr(args, "max_len", None), file_cfg, "max_seq_len",
                              DCVQEConfig.max_seq_len)),
    )


def _train_config(args, file_cfg: dict, seed: int) -> TrainConfig:
    loss = LossConfig(
        alpha=float(_pick(getattr(args, "alpha", None), file_cfg, "alpha", LossConfig.alpha)),
        beta=float(_pick(getattr(args, "beta", None), file_cfg, "beta", LossConfig.beta)),
        variant=str(_pick(getattr(args, "loss", None), file_cfg, "loss", LossConfig.variant)),
    )
    return TrainConfig(
        max_epochs=int(_pick(getattr(args, "epochs", None), file_cfg, "epochs",
                             TrainConfig.max_epochs)),
        batch_size=int(_pick(getattr(args, "batch_size", None), file_cfg, "batch_size",
                             TrainConfig.batch_size)),
        learning_rate=float(_pick(getattr(args, "lr", None), file_cfg, "learning_rate",
                                  TrainConfig.learning_rate)),
        loss=loss,
        seed=seed,
        repetitions=int(file_cfg.get("repetitions", TrainConfig.repetitions)),
    )


def _print_report(report) -> None:
    print(f"srcc={report.srcc:.4f} krcc={report.krcc:.4f} plcc={report.plcc:.4f} "
          f"rmse={report.rmse:.4f} n={report.n}")


def _cmd_synth(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg)
    manifest = data_io.synth_dataset(
        args.out, n_videos=int(_pick(args.videos, file_cfg, "videos", 500)),
        len_range=(int(_pick(args.min_len, file_cfg, "min_len", 60)),
                   int(_pick(args.max_len, file_cfg, "max_len", 300))),
        dim=int(_pick(args.dim, file_cfg, "dim", 64)),
        noise_sigma=float(_pick(args.noise, file_cfg, "noise", 0.1)), seed=seed)
    print(f"wrote {len(manifest)} videos to {args.out} (manifest.jsonl)")
    return EXIT_OK


def _cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg)
    manifest = data_io.load_manifest(args.manifest)
    probe_dim = data_io.read_features(manifest.resolve(manifest.entries[0])).feature_dim
    model_cfg = _model_config(args, file_cfg, input_dim=probe_dim)
    train_cfg = _train_config(args, file_cfg, seed)
    tr_m, va_m, _ = data_io.split(manifest, SplitSpec(seed=seed))
    train_seqs = data_io.load_sequences(tr_m, max_len=model_cfg.max_seq_len)
    val_seqs = data_io.load_sequences(va_m, max_len=model_cfg.max_seq_len)
    model = DCVQEModel.initialize(model_cfg, seed=seed)

    log_path = Path(str(args.out) + ".log")
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


def _eval_split(manifest, which: str, seed: int):
    if which == "all":
        return manifest
    parts = dict(zip(("train", "val", "test"), data_io.split(manifest, SplitSpec(seed=seed))))
    return parts[which]


def _cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg)
    cp = load_checkpoint(args.checkpoint)
    manifest = _eval_split(data_io.load_manifest(args.manifest), args.split, seed)
    seqs = data_io.load_sequences(manifest, max_len=cp.config.max_seq_len)
    model = cp.build_model()
    _print_report(evaluate(model, seqs))
    return EXIT_OK


def _cmd_predict(args) -> int:
    cp = load_checkpoint(args.checkpoint)
    model = cp.build_model()
    for path in args.features:
        seq = data_io.truncate(data_io.read_features(path), cp.config.max_seq_len)
        print(f"{path}\t{model.predict(seq.features):.6f}")
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
    cp = load_checkpoint(args.checkpoint)
    model = cp.build_model()
    manifest = data_io.load_manifest(args.manifest)
    count = 0
    with open(args.out, "w") as fh:
        for seq in data_io.load_sequences(manifest, max_len=cp.config.max_seq_len):
            _, acts = model.forward(seq.features, record=True)
            embedding = acts.video_embeddings[-1].reshape(-1)
            fh.write(json.dumps({"video_id": seq.video_id, "mos": seq.mos,
                                 "embedding": embedding.tolist()}) + "\n")
            count += 1
    print(f"wrote {count} embeddings to {args.out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg)
    grid = file_cfg.get("grid")
    if not isinstance(grid, list) or not grid:
        raise UsageError("ablate needs a config file with a non-empty 'grid' list of overrides")
    manifest = data_io.load_manifest(args.manifest)
    probe_dim = data_io.read_features(manifest.resolve(manifest.entries[0])).feature_dim

    rows = []
    for overrides in grid:
        merged = dict(file_cfg)
        merged.pop("grid", None)
        merged.update(overrides)
        model_cfg = _model_config(args, merged, input_dim=probe_dim)
        train_cfg = _train_config(args, merged, seed)
        t0 = time.perf_counter()
        result = run_repetitions(manifest, model_cfg, train_cfg)
        rows.append({"overrides": overrides, "median": result.median.as_dict(),
                     "runs": [r.report.as_dict() for r in result.runs],
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
    except (FloatingPointError, DegenerateInputError, TiedGroundTruthError,
            ad.DegenerateMaskError, ad.GraphError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, FileNotFoundError, IsADirectoryError, PermissionError,
            ad.ShapeError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
