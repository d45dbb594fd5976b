"""Spans around the public functions of each ``dpvi`` module, recorded from outside.

``Tracer.install`` replaces every listed function, method and the scipy
factorise/solve entry points with a wrapper that records one span per call
(name, start, end, parent) in memory; ``Tracer.uninstall`` puts the originals
back.  A module-level function is replaced in every ``dpvi`` module that
imported it by name, so calls made through ``from .x import f`` bindings are
seen as well.  A call nested in an open span of the same name (recursion of
``eval_expression``, ``from_expressions`` building an ``ExponentData``) is
not recorded: its time belongs to the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> "module:qualname" targets; qualnames with a dot are methods
SPANS = {
    "linsolve": [
        "scipy.sparse.linalg:spsolve",
        "scipy.sparse.linalg:splu",
        "scipy.sparse.linalg:factorized",
    ],
    "operator.apply": ["dpvi.operator:DoublePhaseOperator.apply"],
    "operator.jacobian": ["dpvi.operator:DoublePhaseOperator.jacobian"],
    "multifun.assemble_source": ["dpvi.multifun:assemble_source"],
    "multifun.select": [
        "dpvi.multifun:IntervalMultifunction.select",
        "dpvi.multifun:FrozenIntervalMultifunction.select",
        "dpvi.multifun:TruncatedMultifunction.select",
    ],
    "multifun.eval_interval": [
        "dpvi.multifun:IntervalMultifunction.eval_interval",
        "dpvi.multifun:TwoArgIntervalMultifunction.eval_interval",
        "dpvi.multifun:FrozenIntervalMultifunction.eval_interval",
        "dpvi.multifun:TruncatedMultifunction.eval_interval",
    ],
    "multifun.penalty": ["dpvi.multifun:penalty"],
    "multifun.penalty_slope": ["dpvi.multifun:penalty_slope"],
    "multifun.truncate_multifunction": ["dpvi.multifun:truncate_multifunction"],
    "visolve.solve_vi": ["dpvi.visolve:solve_vi"],
    "visolve.vi_residual": ["dpvi.visolve:vi_residual"],
    "visolve.check_coercivity": ["dpvi.visolve:check_coercivity"],
    "mesh.FeFunction.values_at_quad": ["dpvi.mesh:FeFunction.values_at_quad"],
    "mesh.FeFunction.gradient_at_elements": ["dpvi.mesh:FeFunction.gradient_at_elements"],
    "mesh.build_mesh": ["dpvi.mesh:build_mesh"],
    "mesh.fe_interpolate": ["dpvi.mesh:fe_interpolate"],
    "extremal.construct_obstacle_bounds": ["dpvi.extremal:construct_obstacle_bounds"],
    "extremal.verify_subsolution": ["dpvi.extremal:verify_subsolution"],
    "extremal.verify_supersolution": ["dpvi.extremal:verify_supersolution"],
    "extremal.solve_enclosed": ["dpvi.extremal:solve_enclosed"],
    "extremal.extremal_pair": ["dpvi.extremal:extremal_pair"],
    "extremal.discontinuous_fixed_point": ["dpvi.extremal:discontinuous_fixed_point"],
    "spaces.modular": ["dpvi.spaces:modular"],
    "spaces.luxemburg_norm": ["dpvi.spaces:luxemburg_norm"],
    "spaces.ExponentData": [
        "dpvi.spaces:ExponentData.__init__",
        "dpvi.spaces:ExponentData.from_expressions",
    ],
    "expr.parse_expression": ["dpvi.expr:parse_expression"],
    "expr.eval_expression": ["dpvi.expr:eval_expression"],
    "cli.main": ["dpvi.cli:main"],
    "cli.load_config": ["dpvi.cli:load_config"],
    "cli.build_problem": ["dpvi.cli:build_problem"],
}

SOLVE = "visolve.solve_vi"
ENCLOSED = "extremal.solve_enclosed"
APPLY = "operator.apply"

# metrics derived from the spans, beyond <span>.{calls,s,self_s}
DERIVED = {
    "visolve.solve_vi.newton_steps": "count",
    "visolve.solve_vi.newton_per_solve_max": "count",
    "extremal.newton_per_enclosed": "count",
    "visolve.merit_per_step": "count",
    "trace.overhead_s": "s",
}


def layer_metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class _SuperLUProxy:
    """Factorisation returned by ``splu`` whose ``solve`` calls are spans too."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("linsolve", self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """In-memory span recorder for a chosen subset of ``SPANS``."""

    def __init__(self, names=None):
        self.names = list(SPANS) if names is None else list(names)
        self.open_names = set()
        self.stack = []
        self.spans = []  # [name, start, end, parent, newton, converged, segment]
        self.segment = ""
        self.missing = set()
        self._patches = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if name in self.open_names:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0, False, self.segment]
        self.spans.append(span)
        self.stack.append(idx)
        self.open_names.add(name)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.open_names.discard(name)
        if name == SOLVE:
            report = result[3]
            span[4] = int(report.newton_iterations)
            span[5] = bool(report.converged)
        elif name == "linsolve" and type(result).__name__ == "SuperLU":
            result = _SuperLUProxy(result, self)
        elif name == "linsolve" and callable(result):
            result = self._wrap(result, name)
        return result

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Replace every target of the chosen spans with a recording wrapper."""
        for name in self.names:
            for target in SPANS[name]:
                modname, qualname = target.split(":")
                module = importlib.import_module(modname)
                owner_path, _, attr = qualname.rpartition(".")
                owner = module
                for part in owner_path.split(".") if owner_path else ():
                    owner = getattr(owner, part, None)
                if owner is None or attr not in vars(owner):
                    self.missing.add(target)
                    continue
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, raw, classmethod(self._wrap(raw.__func__, name)))
                    continue
                wrapped = self._wrap(raw, name)
                self._patch(owner, attr, raw, wrapped)
                if owner is module:
                    for other_name, other in list(sys.modules.items()):
                        if other is module or not other_name.startswith("dpvi"):
                            continue
                        for key, value in list(vars(other).items()):
                            if value is raw:
                                self._patch(other, key, raw, wrapped)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def newton_steps(self, segment):
        return sum(s[4] for s in self.spans if s[0] == SOLVE and s[6] == segment)

    def layer_metrics(self, segment):
        """Per-layer metrics over the spans of one segment (overhead excluded)."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        in_solve = [False] * len(spans)
        in_enclosed = [False] * len(spans)
        for i, (name, start, end, parent, *_rest) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                in_solve[i] = in_solve[parent] or spans[parent][0] == SOLVE
                in_enclosed[i] = in_enclosed[parent] or spans[parent][0] == ENCLOSED
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        steps = steps_enclosed = n_enclosed = merit_calls = 0
        per_solve_max = 0
        for i, (name, start, end, parent, newton, converged, segment_i) in enumerate(spans):
            if segment_i != segment:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]
            if name == SOLVE:
                steps += newton
                if converged:
                    per_solve_max = max(per_solve_max, newton)
                if in_enclosed[i]:
                    steps_enclosed += newton
            elif name == ENCLOSED:
                n_enclosed += 1
            elif name == APPLY and in_solve[i]:
                merit_calls += 1
        out["visolve.solve_vi.newton_steps"] = steps
        out["visolve.solve_vi.newton_per_solve_max"] = per_solve_max
        out["extremal.newton_per_enclosed"] = steps_enclosed / n_enclosed if n_enclosed else 0.0
        out["visolve.merit_per_step"] = merit_calls / steps if steps else 0.0
        return out

    def write(self, path, segment):
        """Write the spans of one segment, one JSON array per line after a header.

        Times are seconds from the segment's first span; ``parent`` is the
        ``id`` of the enclosing span, or -1.
        """
        rows = [(i, s) for i, s in enumerate(self.spans) if s[6] == segment]
        t0 = rows[0][1][1] if rows else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"segment": segment, "fields": [
                "id", "name", "start", "end", "parent", "newton", "converged"]}) + "\n")
            for i, (name, start, end, parent, newton, converged, _) in rows:
                fh.write(json.dumps([i, name, round(start - t0, 7), round(end - t0, 7),
                                     parent, newton, converged]) + "\n")
