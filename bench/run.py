#!/usr/bin/env python3
"""Benchmark of the sga kernel: end-to-end metrics per workload, or a layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one fresh process each

One run imports ``sga`` from ``src/`` next to this directory, makes the
workload's inputs from ``--seed``, runs timed passes until ``--seconds``
would be exceeded (at least one), checks every output, and prints as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` one untraced pass is followed by
traced passes and the metrics are the per-layer ones from ``tracer.py``,
and the aggregated spans are written to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
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
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Timer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_sga():
    """Import sga from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sga
    except ImportError as exc:
        raise SystemExit(f"error: cannot import sga from {src}: {exc}")
    if Path(sga.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: imported sga from {sga.__file__}, not from {src}")
    return sga


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs (N <= 6 where the command allows)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def measure_setup(args):
    """Median wall time of fresh processes that import sga and make the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(workload, inputs, seconds, first_index=0):
    """Timed passes until the next one would end after `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        timer = Timer()
        outputs = workload.run_pass(inputs, first_index + len(passes), timer)
        passes.append((timer, outputs))
        if time.perf_counter() - start + timer.elapsed > seconds:
            return passes


def environment(args, workload, inputs, walls):
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists() and shutil.which("git"):
        def out(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            git = {"sha": out("rev-parse", "HEAD"),
                   "dirty": bool(out("status", "--porcelain", "--untracked-files=no"))}
        except subprocess.CalledProcessError:
            pass
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seed_dependent": workload.seeded,
        "seconds": args.seconds,
        "passes": len(walls),
        "pass_walls": walls,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": workload.describe(inputs),
        "git_sha": git["sha"],
        "git_dirty": git["dirty"],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "SGA_MAX_DIM": os.environ.get("SGA_MAX_DIM"),
    }


def check_all(workload, inputs, passes):
    attempted = failed = 0
    for _, outputs in passes:
        a, f = workload.check(inputs, outputs)
        attempted += a
        failed += f
    return attempted, failed


def run_one(args):
    if "SGA_MAX_DIM" in os.environ:
        raise SystemExit("error: unset SGA_MAX_DIM; it changes which representations can be built")
    import_sga()
    setup_s = None if args.trace or args.setup_probe else measure_setup(args)
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        inputs = workload.setup(args.seed, workdir)
        if args.setup_probe:
            return 0
        if args.trace:
            return run_traced(args, workload, inputs)
        passes = run_passes(workload, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed = check_all(workload, inputs, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [t.elapsed for t, _ in passes]
    # the timed phase per pass; a median of passes would snap to one of the
    # machine's speed modes and spread further from run to run
    values = {
        "setup_s": setup_s,
        "wall_s": sum(walls) / len(walls),
        "items_per_s": attempted / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    env = environment(args, workload, inputs, walls)
    # printed for reading, not gated: both are 0 on some workloads
    extra = {"fail_ratio": (failed / attempted, "ratio"),
             "output_bytes": (statistics.median(t.output_bytes for t, _ in passes), "B")}
    report(workload.name, env, {name: (values[name], unit) for name, unit in END_TO_END}, extra,
           attempted, failed)
    return 0


def report(name, env, gated, extra, attempted, failed):
    """Print the environment and every value by name and unit, then the result line."""
    print("env " + json.dumps(env, sort_keys=True))
    for metric, (value, unit) in {**gated, **extra}.items():
        print(f"{name:<11} {metric:<40} {value:>14.6g} {unit}")
    metrics = {metric: {"value": value, "unit": unit} for metric, (value, unit) in gated.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_traced(args, workload, inputs):
    from tracer import LAYER_METRICS, Tracer

    untraced = run_passes(workload, inputs, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, inputs, args.seconds, first_index=len(untraced))
    finally:
        tracer.uninstall()
    attempted, failed = check_all(workload, inputs, untraced + traced)

    n = len(traced)
    values = tracer.metrics(n, sum(t.output_bytes for t, _ in traced))
    values["trace.wall_s"] = sum(t.elapsed for t, _ in traced) / n
    values["trace.untraced_wall_s"] = untraced[0][0].elapsed
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    env = environment(args, workload, inputs, [t.elapsed for t, _ in traced])
    path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"env": env, "metrics": values, "counts": dict(tracer.counts), "spans": tracer.rows()},
                  fh, indent=1, sort_keys=True)
    print(f"trace written to {path.relative_to(ROOT)}")
    report(workload.name, env, {name: (values[name], unit) for name, unit in LAYER_METRICS}, {},
           attempted, failed)
    return 0


def run_all(args):
    """Every workload in its own fresh process; prints a summary table."""
    ok = True
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print()
    for name, result in rows:
        ratio = result["failed"] / result["attempted"]
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        print(f"{name:<11} fail_ratio={ratio:.3g} " + "  ".join(cells))
    return 0 if ok else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
