"""Benchmark of the ebiortho package: one command for every workload.

    python3 bench/run.py --workload scheme|classify|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` it prints every end-to-end metric; with `--trace 1` every
per-layer metric and the tracing overhead.  The last line of stdout is a
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 when every output passed its check and 1 otherwise.
Results (and, when traced, all spans) are also written under
`.bench_out/`.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / workloads.LIBRARY
REF_PACKAGE = BENCH / "ref" / workloads.REFERENCE
OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

# sha256 of the frozen reference copy (see tree_sha256); it must never change.
REFERENCE_SHA256 = "21c88868ce21b2105494dabc6a613565edaca93bc65505f862a68f2ccd37be0e"
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170
# Each scheme round needs its own interpreter: the build is cached in-process.
FRESH_PROCESS_PER_ROUND = {"scheme"}


def import_all(package: str) -> str:
    """Code that imports every module of `package` and prints the time since
    the perf_counter reading passed as argv[1]; the monotonic clock behind
    perf_counter is shared by all processes."""
    return ("import sys, time, " + ", ".join(f"{package}.{m}" for m in stats.LAYER_NAMES)
            + "; print(time.perf_counter() - float(sys.argv[1]))")


def tree_sha256(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(BENCH / "ref")))
    env["PYTHONHASHSEED"] = "0"
    # Time imports from bytecode caches, as an installed package imports.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env) -> tuple[float, float]:
    """Median times from starting a fresh interpreter to every module
    imported, for the library and for the reference copy, in turns.

    One untimed import of each first writes the bytecode caches."""
    times = {workloads.LIBRARY: [], workloads.REFERENCE: []}
    for i in range(SETUP_REPEATS + 1):
        order = list(times) if i % 2 else list(times)[::-1]
        for package in order:
            proc = subprocess.run(
                [sys.executable, "-c", import_all(package), repr(perf_counter())],
                env=env, check=True, capture_output=True, text=True, timeout=60)
            times[package].append(float(proc.stdout))
    return median(times[workloads.LIBRARY][1:]), median(times[workloads.REFERENCE][1:])


def run_workers(args, env):
    """Run worker processes one at a time until the next one would end past
    `--seconds`.  A traced run takes a plain round too."""
    rounds, spans, rss = [], [], []
    min_rounds = 2 if args.trace else 1
    fresh = args.workload in FRESH_PROCESS_PER_ROUND
    start = perf_counter()
    last = 0.0
    while len(rounds) < min_rounds or perf_counter() - start + last <= args.seconds:
        t0 = perf_counter()
        elapsed = t0 - start
        cmd = [
            sys.executable, str(WORKER),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--first-round", str(len(rounds)),
            "--budget", repr(max(args.seconds - elapsed, 0.0)),
            "--min-rounds", str(max(min_rounds - len(rounds), 1)),
            "--trace", str(args.trace),
        ]
        if fresh:
            cmd += ["--max-rounds", "1"]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        record = json.loads(proc.stdout.splitlines()[-1])
        rounds += record["rounds"]
        spans += record["spans"]
        rss.append(record["peak_rss_mb"])
        last = perf_counter() - t0
    return rounds, spans, rss


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": tree_sha256(PACKAGE),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ebiortho benchmark")
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package sources at {PACKAGE}", file=sys.stderr)
        return 2
    if tree_sha256(REF_PACKAGE) != REFERENCE_SHA256:
        print(f"error: the reference copy at {REF_PACKAGE} has changed", file=sys.stderr)
        return 2

    env = child_env()
    info = environment(args)
    try:
        setup = measure_setup(env)
        rounds, spans, rss = run_workers(args, env)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [(r["index"], op[0], op[4]) for r in rounds for op in r["ops"] if not op[2]]
    plain = [r for r in rounds if not r["traced"]]
    values, details = stats.end_to_end(args.workload, plain, setup, rss)
    info.update(details)
    print(f"ebiortho benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {info[k]}" for k in
                                        ("python", "nproc", "cpu", "commit", "src_sha256")))
    print(f"rounds {details['rounds']} untraced of {len(rounds)}, "
          f"{details['ops_per_round']} ops per round, {details['ops']} ops timed, "
          f"tail percentile p{details['tail_percentile']:g}")
    print("as run, library / reference copy: " + ", ".join(
        f"{name} {details['as_run'][name][0]:.6g} / {details['as_run'][name][1]:.6g}"
        for name in stats.SPEED_METRICS))
    if args.trace:
        units = dict(stats.PER_LAYER)
        metrics = stats.per_layer(rounds, spans)
    else:
        units = dict(stats.END_TO_END)
        metrics = values
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} of {attempted} ops)")
    for index, kind, reason in failures[:20]:
        print(f"FAIL round {index} {kind}: {reason}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"environment": info, "result": result,
         "round_seconds": [[r["index"], r["traced"], r["duration"]] for r in rounds]},
        indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["round", "id", "parent", "op", "name", "start", "end", "error"],
             "spans": spans}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
