"""Self-test of the benchmark on tiny meshes (about a minute).

    python3 bench/selftest.py

Checks that every workload, traced and untraced, emits exactly the metric
names and units listed in ``BENCHMARK.json`` in a result line of the agreed
shape, and that the gates reject deliberately perturbed results.  Prints
``selftest: ok`` and exits 0, or lists what failed and exits 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import dpvi  # noqa: E402
import workload  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_metric_names(spec, errors):
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for entry in spec["workloads"]:
        for trace, names in wanted.items():
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"{entry['name']} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{label}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                extra = sorted(set(got) - set(names))
                missing = sorted(set(names) - set(got))
                errors.append(f"{label}: metrics differ (extra {extra}, missing {missing})")
            if not result["correct"] or result["attempted"] < 1:
                errors.append(f"{label}: correct={result['correct']} "
                              f"attempted={result['attempted']}")


def perturbed(u, node, value):
    coeffs = u.coeffs.copy()
    coeffs[node] = value
    return dpvi.FeFunction(u.mesh, coeffs)


def check_gates_reject(errors):
    solve = cases.SolveCase(8, seed=0)
    u, eta, zeta = solve.run()
    if solve.check((u, eta, zeta)):
        errors.append(f"gate rejects a correct solve: {solve.check((u, eta, zeta))}")
    free = int(u.mesh.free_node_mask.nonzero()[0][0])
    boundary = int(u.mesh.gamma0_node_mask.nonzero()[0][0])
    for label, bad in (("interior perturbation", perturbed(u, free, u.coeffs[free] + 1e-3)),
                       ("boundary perturbation", perturbed(u, boundary, 1e-3))):
        if not solve.check((bad, eta, zeta)):
            errors.append(f"solve gate accepts an iterate with a {label}")

    extremal = cases.ExtremalCase(4, "8", "8", "8", "8", seed=0)
    oi, smallest, greatest, sset = extremal.run()
    if extremal.check((oi, smallest, greatest, sset)):
        errors.append("gate rejects a correct extremal pair")
    node = int(smallest.mesh.free_node_mask.nonzero()[0][0])
    below = perturbed(smallest, node, -0.5 - 1e-3)  # the obstacle is -0.5
    if not extremal.check((oi, below, greatest, sset)):
        errors.append("extremal gate accepts an iterate below the obstacle")
    swapped = (oi, greatest + 1.0, greatest, sset)
    if not extremal.check(swapped):
        errors.append("extremal gate accepts smallest > greatest")

    first = [(solve, (u, eta, zeta), None)]
    second = [(solve, (perturbed(u, free, u.coeffs[free] + 1e-12), eta, zeta), None)]
    digests = {}
    list(workload.gate(first, digests))
    if not list(workload.gate(second, digests)):
        errors.append("determinism gate accepts a result with other bytes")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    check_gates_reject(errors)
    check_metric_names(spec, errors)
    for error in errors:
        print(f"selftest: {error}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
