"""Benchmark of the dpvi pipeline: one workload per fresh process.

    python3 bench/run.py --workload solve_2d|extremal_2d|configs|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout.  Each workload runs in its own new
Python process (``workload.py``) with BLAS and OpenMP pinned to one thread.
This driver prints the provenance of the run, a table of every metric with
its unit, and, as the last line of standard output, the workload's JSON
result: end-to-end metrics with ``--trace 0``, per-layer metrics (and the
tracing overhead) with ``--trace 1``.  A copy of each result, provenance
included, is written under ``.bench_out/``.  Exits 2 without a result when
the checkout holds no ``src/dpvi`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve_2d", "extremal_2d", "configs")
THREADS = 1
TIMEOUT_S = 175  # a run must end within 180 s, its child included


def git_sha(root):
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(versions):
    return {
        "git_sha": git_sha(ROOT),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        **versions,
    }


def run_workload(workload, args, env):
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload {workload} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    return result, result.pop("versions")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny meshes, for the self-test only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpvi" / "__init__.py").is_file():
        print(f"error: no dpvi package under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"  # same set/dict layouts in every run

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, versions = run_workload(workload, args, env)
        results[workload] = result
        prov = provenance(versions)
        print(f"{workload} provenance: " + json.dumps(prov, sort_keys=True))
        label = f"{workload}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"result-{label}.json").write_text(
            json.dumps({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace, "provenance": prov, **result}, indent=2) + "\n")
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    for workload in workloads:
        print(json.dumps(results[workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
