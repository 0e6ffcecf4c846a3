"""DCVQE benchmark: training-step and scoring throughput, traced per module.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

Run every workload, each in its own process, and print a table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Compare two sets of runs saved with ``--out DIR``:

    python3 perfbench/run.py --compare perfbench-runs/before perfbench-runs/after

``--trace 1`` runs every sample twice, plain and then with spans around the
calls into ``data``, ``model``, ``autodiff``, ``losses`` and ``training``,
and reports per-layer metrics. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-small", "score-paper", "train-paper")
# BLAS pools are pinned to one thread unless the caller sets them: on a
# small shared machine a second BLAS thread makes timings swing with the
# neighbours' load. The values in effect are part of every result.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-ups per run; setup_s is their median
# names under which the end-to-end metrics are printed, per workload kind
REPORTED_AS = {
    "train": {"frames_per_s": "train_frames_per_s", "sample_ms_p50": "train_step_ms_p50",
              "sample_ms_p90": "train_step_ms_p90"},
    "score": {"frames_per_s": "score_frames_per_s", "sample_ms_p50": "score_ms_p50",
              "sample_ms_p90": "score_ms_p90"},
}


class BenchError(Exception):
    """The benchmark cannot run here, or was asked something it cannot do."""


def use_source_tree() -> dict:
    """Put ``src`` on the import path and return BENCHMARK.json."""
    if not (ROOT / "src" / "dcvqe").is_dir():
        raise BenchError(f"no dcvqe sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    sys.path.insert(0, str(ROOT / "src"))
    return spec


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "seed": seed}


def run_workload(wl, seed: int, seconds: float, trace: bool, workdir: Path,
                 setups: int = SETUPS) -> dict:
    """Set up ``setups`` times, warm up, then time samples for ``seconds``.

    With ``trace`` each sample runs twice, the second time traced; the
    traced samples start at the same index for every seed, so the counts
    taken from the first of them repeat."""
    import spans  # imports dcvqe, so only once use_source_tree() ran
    import workloads

    tracer = spans.Tracer() if trace else None
    setup_times = []
    state = None
    for k in range(setups):
        state = None
        shutil.rmtree(workdir / f"setup{k - 1}", ignore_errors=True)
        if tracer is not None:
            tracer.sample = f"setup{k}"
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            state = wl.setup(seed, workdir / f"setup{k}")
            setup_times.append(time.perf_counter() - start)
    wl.prepare_oracle(state)
    loop = workloads.Loop(wl, state)
    first = wl.warmup(state)
    for i in range(first):
        loop.attempt(i)
    result = {"workload": wl.name, "kind": wl.kind, "seconds": seconds, "trace": int(trace)}
    if not trace:
        loop.phase(seconds, first)
        metrics = workloads.summarize(loop, setup_times, _peak_rss_mb())
        result["samples"] = len(loop.times)
        result["sample_times_s"] = loop.times
        result["setup_times_s"] = setup_times
    else:
        # each sample runs twice, plain then traced, so that the overhead is
        # measured on equal work and the machine's drift cancels
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        i = first
        while i == first or time.perf_counter() < deadline:
            plain.append(loop.attempt(i))
            tracer.sample = i
            with tracer.installed():
                traced.append(loop.attempt(i))
            i += 1
        samples = list(range(first, i))
        metrics = tracer.layer_metrics(samples, wl.config.num_layers)
        metrics["trace.overhead_frac"] = 1.0 - sum(plain) / sum(traced)
        metrics.update(workloads.attention_counts(wl.config, state["model"],
                                                  wl.inputs(state, samples[0])))
        result["samples"] = len(samples)
        result["spans"] = tracer.dump()
    result.update(attempted=loop.attempted, failed=loop.failed,
                  failed_frac=loop.failed / loop.attempted, metrics=metrics)
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(result: dict, spec: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    unit = units(spec)
    aliases = REPORTED_AS[result["kind"]]
    print(f"workload {result['workload']} seed {result['env']['seed']} "
          f"trace {result['trace']} samples {result['samples']} "
          f"attempted {result['attempted']} failed {result['failed']}")
    print("env " + json.dumps({k: v for k, v in result["env"].items() if k != "seed"},
                              sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{aliases.get(name, name)} {value:.6g} {unit.get(name, _unit_of(name))}")
    print(f"failed_frac {result['failed_frac']:.6g} frac")
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


def _unit_of(name: str) -> str:
    """Unit of a time that BENCHMARK.json does not list, because not every
    workload reports it."""
    return "s" if name.endswith("_s") else "ms"


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            worst = worst or proc.returncode
            continue
        print("\n".join(proc.stdout.strip().splitlines()[:-1]) + "\n")
    return worst


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    if not runs:
        raise BenchError(f"no results in {directory}")
    return runs


def compare(dir_a: Path, dir_b: Path, spec: dict) -> None:
    """One row per workload and metric: each side's median and quartiles."""
    a, b = load_runs(dir_a), load_runs(dir_b)
    settings = {json.dumps({k: v for k, v in r["env"].items() if k != "seed"}, sort_keys=True)
                + f" seconds={r['seconds']}" for r in a + b}
    if len(settings) != 1:
        raise BenchError("runs were made with different settings:\n" + "\n".join(sorted(settings)))
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':12} {'metric':34} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    for key in sorted({(r["workload"], r["trace"]) for r in a + b}):
        side_a = [r for r in a if (r["workload"], r["trace"]) == key]
        side_b = [r for r in b if (r["workload"], r["trace"]) == key]
        if sorted(r["env"]["seed"] for r in side_a) != sorted(r["env"]["seed"] for r in side_b):
            raise BenchError(f"{key[0]} trace {key[1]}: the two sides used different seeds")
        kind = side_a[0]["kind"]
        rows = [(n, [r["metrics"][n] for r in side_a], [r["metrics"][n] for r in side_b])
                for n in side_a[0]["metrics"]]
        rows.append(("failed_frac", [r["failed_frac"] for r in side_a],
                     [r["failed_frac"] for r in side_b]))
        for name, va, vb in rows:
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(f"{key[0]:12} {REPORTED_AS[kind].get(name, name):34} "
                  f"{_fmt(qa):>32} {_fmt(qb):>32} {change:+8.1%}  "
                  f"{verdict(va, vb, bound.get(name), better.get(name, 'lower'))}")


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(va: list[float], vb: list[float], bound: float | None, better: str) -> str:
    """'worse' or 'ok' against the metric's bound; 'unresolved' when either
    side's quartile spread exceeds the bound and the runs overlap."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(va), quartiles(vb)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        if max(sign * v for v in vb) < min(sign * v for v in va):
            return "better"
        if min(sign * v for v in vb) > max(sign * v for v in va):
            return "worse"
        return "unresolved"
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    return "worse" if worse_by > bound else "ok"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write each result, with its spans, here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.compare is None):
        parser.error("give either --workload or --compare")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED:
        os.environ.setdefault(var, "1")
    try:
        spec = use_source_tree()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if args.workload == "all":
            return run_all(args, spec)
        workdir = ROOT / ".perfbench-work"
        workdir.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
        try:
            import workloads

            result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.rmdir()  # left in place while another run uses it
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result["env"] = environment(args.seed)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result))
    result.pop("spans", None)
    report(result, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
