"""Run one workload in this process: set-up, timed passes, gates and metrics.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1

Usually started by ``run.py``, which pins the BLAS/OpenMP threads first.
A pass builds every case (set-up), runs every case (timed: ``wall_s``) and
then gates every result; passes repeat until ``--seconds`` have gone by,
and at least twice, so that the determinism check compares two runs of each
case.  With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics come from the traced pass of median wall time.  The last
line of standard output is one JSON object; ``run.py`` takes the library
versions out of it and prints the rest.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (standard library only)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "newton_steps": "count",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("solve_2d", "extremal_2d", "configs")
MIN_PASSES = 2


def run_pass(cases_mod, tracer, args, out_root):
    """One pass; returns (build_s, wall_s, [(case, result, error)])."""
    tracer.install()
    try:
        start = time.perf_counter()
        cases = cases_mod.build(args.workload, args.seed, args.size, out_root)
        build_s = time.perf_counter() - start
        outcomes = []
        wall = 0.0
        for case in cases:
            start = time.perf_counter()
            try:
                result, error = case.run(), None
            except Exception as exc:  # every failure is counted, none stops the pass
                result, error = None, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            outcomes.append((case, result, error))
    finally:
        tracer.uninstall()
    return build_s, wall, outcomes


def gate(outcomes, digests):
    """Yield (case name, error, gate problems) for every failed case run.

    ``digests`` maps a case name to the bytes of its first result; a later
    result with other bytes fails the determinism check.
    """
    for case, result, error in outcomes:
        problems = []
        if error is None:
            problems = case.check(result)
            digest = case.digest(result)
            if digests.setdefault(case.name, digest) != digest:
                problems.append("result differs from the first run with the same seed")
        if error is not None or problems:
            yield case.name, error, problems


def library_versions():
    import numpy
    import scipy
    import yaml

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny meshes, for the self-test only")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import cases as cases_mod  # imports dpvi

    import_s = time.perf_counter() - start

    out_base = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_base, ignore_errors=True)
    counter = spans.Tracer([spans.SOLVE])  # Newton counts only: one span per solve
    tracer = spans.Tracer() if args.trace else None

    untraced, traced = [], []  # (wall_s, build_s, segment)
    attempted = failed = wrong = 0
    digests, messages = {}, {}
    started = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - started < args.seconds:
        use = tracer if tracer is not None and k % 2 == 1 else counter
        use.segment = f"pass{k}"
        out_root = out_base / f"pass{k}"
        build_s, wall, outcomes = run_pass(cases_mod, use, args, out_root)
        (traced if use is tracer else untraced).append((wall, build_s, use.segment))
        for name, error, problems in gate(outcomes, digests):
            failed += 1
            wrong += bool(problems)
            messages.setdefault(name, error or "; ".join(problems))
        attempted += len(outcomes)
        del outcomes  # free this pass's meshes and results before the next set-up
        shutil.rmtree(out_root, ignore_errors=True)
        gc.collect()
        k += 1
    shutil.rmtree(out_base, ignore_errors=True)

    for name, message in sorted(messages.items()):
        print(f"failed: {name}: {message}", file=sys.stderr)

    walls = [w for w, _, _ in untraced]
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": import_s + statistics.median([b for _, b, _ in untraced]),
            "newton_steps": statistics.median([counter.newton_steps(s) for _, _, s in untraced]),
            "pass_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        rep = sorted(traced)[(len(traced) - 1) // 2]
        metrics = tracer.layer_metrics(rep[2])
        traced_wall = statistics.median([w for w, _, _ in traced])
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        units = spans.layer_metric_units()
        trace_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path, rep[2])
        print(f"spans of {rep[2]} written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
        for target in sorted(tracer.missing):
            print(f"not traced (target missing): {target}", file=sys.stderr)
    print("untraced pass wall_s: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{failed} of {attempted} case runs failed, {wrong} of them by a gate",
          file=sys.stderr)
    result = {
        "versions": library_versions(),
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
