"""Span recorder for the traced run, and the per-layer metrics derived
from its spans.

The recorder replaces the public functions of the heconet layers by
attribute, at every name a caller looks them up under (for example both
``heconet.incidence.build_incidence`` and ``heconet.cli.build_incidence``),
and restores the originals when it is uninstalled.  It only ever
patches the workload process it runs in; the source is not touched.
Spans are kept in memory as (operation, id, parent, name, start, end,
attrs) and written out when the run ends.
"""

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "io", "core", "incidence", "rcot", "leontief", "hfnmcf", "lp",
          "kernels", "petri")


def _simplex_attrs(args, kwargs, result):
    # simplex_iterate(a, b, c, basis, in_basis, binv, pivot_tol, rc_tol,
    #                 tie_tol, refactor_every, max_iter) -> (status, iters)
    pivots = int(result[1])
    return {"pivots": pivots, "refactors": pivots // int(args[9]),
            "bytes": int(args[0].nbytes)}


def _bytes_in(args, kwargs, result):
    data = args[0]
    return {"bytes_in": len(data.encode("utf-8") if isinstance(data, str) else data)}


def _bytes_out(args, kwargs, result):
    return {"bytes_out": len(result)}


# Counts recorded at the layer boundary, computed after the span ends.
ATTRS = {
    "kernels.simplex_iterate": _simplex_attrs,
    "kernels.nonneg_power_radius": lambda a, k, r: {"iters": int(r[1])},
    "hfnmcf.build_full": lambda a, k, r: {"bytes": int(r.rows.nbytes)},
    "lp.irreducible_infeasible_rows":
        lambda a, k, r: {"rows": int(a[0].n_rows), "witness": len(r)},
    "io.parse_system_xml": _bytes_in,
    "io.load_scenario": _bytes_in,
    "io.load_schedule": _bytes_in,
    "io.read_incidence_json": _bytes_in,
    "io.emit_results_csv": _bytes_out,
    "io.emit_results_json": _bytes_out,
    "io.emit_trajectory_csv": _bytes_out,
    "io.emit_full_json": _bytes_out,
    "io.emit_chord_csv": _bytes_out,
    "io.write_incidence_json": _bytes_out,
    "io.write_system_xml": _bytes_out,
    "io.to_dot": _bytes_out,
}


def layer_functions():
    """Map each public function object of a layer to its span name.

    Aliases of one function (``kernels.simplex_iterate`` and its
    ``_py`` twin) share one name, the one without the suffix.
    """
    names = {}
    for layer in LAYERS:
        module = sys.modules[f"heconet.{layer}"]
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr.removesuffix('_py')}"
            if obj not in names or len(name) < len(names[obj]):
                names[obj] = name
    return names


class Recorder:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def begin(self, name: str) -> list:
        span = [self.op, len(self.spans), self._stack[-1] if self._stack else -1,
                name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[1])
        span[4] = perf_counter()
        return span

    def end(self, span: list):
        span[5] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every layer function at each module attribute naming it,
        and every CLI command callback."""
        if self._patches:
            return
        names = layer_functions()
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "heconet" or mod_name.startswith("heconet.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        group = sys.modules["heconet.cli"].main
        for cmd in group.commands.values():
            self._patches.append((cmd, "callback", cmd.callback))
            cmd.callback = self.wrap(f"cli.{cmd.name}", cmd.callback)
        # Click's entry method (argument parsing and dispatch); the
        # instance attribute shadows the class method until uninstall.
        self._patches.append((group, "main", None))
        group.main = self.wrap("cli.main", group.main)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patches = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")


# --------------------------------------------------------------------------
# Span arithmetic


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)
    out = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[1], ()), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[1]] = (end - start) - covered
    return out


def _outermost(spans, by_id, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span[3] not in names:
            continue
        parent = span[2]
        while parent >= 0 and by_id[parent][3] not in names:
            parent = by_id[parent][2]
        if parent < 0:
            out.append(span)
    return out


def _ancestor(span, by_id, names):
    parent = span[2]
    while parent >= 0:
        if by_id[parent][3] in names:
            return by_id[parent]
        parent = by_id[parent][2]
    return None


IO_PARSE = ("io.parse_system_xml",)
IO_LOAD = ("io.load_scenario", "io.load_schedule", "io.read_incidence_json")
IO_EMIT = tuple(n for n in ATTRS if n.startswith(("io.emit", "io.write", "io.to_")))
LP_SCOPES = ("lp.solve_lp", "lp.feasible")

# Per-layer metrics and their units, as listed in BENCHMARK.json.  Every
# name is reported on every workload, as 0 where its layer does not run.
UNITS = {
    "kernels.simplex_phase1_s": "s", "kernels.simplex_phase2_s": "s",
    "kernels.pivots_phase1": "count", "kernels.pivots_phase2": "count",
    "kernels.refactors": "count", "kernels.simplex_bytes": "B",
    "kernels.trajectory_s": "s", "kernels.power_radius_s": "s",
    "kernels.power_iters": "count",
    "lp.solve_s": "s", "lp.self_s": "s", "lp.certify_s": "s",
    "lp.diagnose_s": "s", "lp.diagnose_trials": "count", "lp.diagnose_yield": "ratio",
    "hfnmcf.build_full_s": "s", "hfnmcf.self_s": "s", "hfnmcf.lp_bytes": "B",
    "io.parse_xml_s": "s", "io.load_json_s": "s", "io.emit_s": "s",
    "io.bytes_in": "B", "io.bytes_out": "B",
    "core.validate_s": "s", "incidence.build_s": "s",
    "rcot.self_s": "s", "leontief.self_s": "s", "cli.self_s": "s",
    "petri.self_s": "s", "petri.completions_s": "s",
    "trace.overhead_s": "s",
}
COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "B", "ratio"))


def op_metrics(spans) -> dict:
    """Per-layer metrics of the spans of one operation."""
    by_id = {s[1]: s for s in spans}
    selfs = self_times(spans)

    def dur(span):
        return span[5] - span[4]

    def inclusive(*names):
        return sum(dur(s) for s in _outermost(spans, by_id, set(names)))

    def self_of(pred):
        return sum(selfs[s[1]] for s in spans if pred(s[3]))

    def attr_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in spans if s[3] == name)

    m = dict.fromkeys(UNITS, 0.0)
    phase_seen = {}
    for s in spans:
        if s[3] != "kernels.simplex_iterate":
            continue
        scope = _ancestor(s, by_id, LP_SCOPES)
        key = -1 if scope is None else scope[1]
        phase = 1 if phase_seen.get(key, 0) == 0 else 2
        phase_seen[key] = phase_seen.get(key, 0) + 1
        m[f"kernels.simplex_phase{phase}_s"] += dur(s)
        m[f"kernels.pivots_phase{phase}"] += s[6]["pivots"]
        m["kernels.refactors"] += s[6]["refactors"]
        m["kernels.simplex_bytes"] = max(m["kernels.simplex_bytes"], s[6]["bytes"])
    m["kernels.trajectory_s"] = inclusive("kernels.esn_trajectory")
    m["kernels.power_radius_s"] = inclusive("kernels.nonneg_power_radius")
    m["kernels.power_iters"] = attr_sum("kernels.nonneg_power_radius", "iters")

    m["lp.solve_s"] = inclusive("lp.solve_lp")
    m["lp.self_s"] = self_of(lambda n: n.startswith("lp.") and n != "lp.certify")
    m["lp.certify_s"] = inclusive("lp.certify")
    diagnoses = [s for s in spans if s[3] == "lp.irreducible_infeasible_rows"]
    m["lp.diagnose_s"] = inclusive("lp.irreducible_infeasible_rows")
    trials = sum(1 for s in spans if s[3] == "lp.feasible"
                 and _ancestor(s, by_id, ("lp.irreducible_infeasible_rows",)) is not None)
    m["lp.diagnose_trials"] = trials
    dropped = sum(s[6]["rows"] - s[6]["witness"] for s in diagnoses if s[6])
    m["lp.diagnose_yield"] = dropped / trials if trials else 0.0

    m["hfnmcf.build_full_s"] = inclusive("hfnmcf.build_full")
    m["hfnmcf.self_s"] = self_of(lambda n: n.startswith("hfnmcf."))
    m["hfnmcf.lp_bytes"] = attr_sum("hfnmcf.build_full", "bytes")

    m["io.parse_xml_s"] = self_of(lambda n: n in IO_PARSE)
    m["io.load_json_s"] = self_of(lambda n: n in IO_LOAD)
    m["io.emit_s"] = self_of(lambda n: n in IO_EMIT)
    m["io.bytes_in"] = sum(attr_sum(n, "bytes_in") for n in IO_PARSE + IO_LOAD)
    m["io.bytes_out"] = sum(attr_sum(n, "bytes_out") for n in IO_EMIT)

    m["core.validate_s"] = inclusive("core.require_valid", "core.validate")
    m["incidence.build_s"] = self_of(lambda n: n == "incidence.build_incidence")
    for layer in ("rcot", "leontief", "cli"):
        m[f"{layer}.self_s"] = self_of(lambda n, p=f"{layer}.": n.startswith(p))
    m["petri.self_s"] = self_of(
        lambda n: n.startswith("petri.") and n != "petri.derive_completions")
    m["petri.completions_s"] = inclusive("petri.derive_completions")
    return m


def run_metrics(spans, traced_times, untraced_times, first_pass: int) -> dict:
    """Per-layer metrics of a traced run.

    Times are medians over every traced operation.  Counts are medians
    over the first ``first_pass`` traced operations, one pass over the
    instance pool, so they repeat exactly between runs of one seed.
    """
    by_op = {}
    for span in spans:
        by_op.setdefault(span[0], []).append(span)
    per_op = [op_metrics(by_op[op]) for op in sorted(by_op)]
    out = {}
    for name in UNITS:
        if name == "trace.overhead_s":
            continue
        pool = per_op[:first_pass] if name in COUNTS else per_op
        out[name] = statistics.median(m[name] for m in pool) if pool else 0.0
    out["trace.overhead_s"] = (statistics.median(traced_times)
                               - statistics.median(untraced_times))
    return out
