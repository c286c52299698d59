"""Tests of the benchmark's own code: generators, oracles, span arithmetic.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import copy
import filecmp
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from heconet.lp import LpStatus  # noqa: E402


def small(name):
    """The workload with its sizes cut down so a test runs in seconds."""
    w = copy.copy(W.WORKLOADS[name])
    if name == "horizon":
        w.horizon = 4
    elif name == "infeasible":
        w.horizon = 3
    elif name == "economy":
        w.sectors, w.pool = 6, 2
    elif name == "simulate":
        w.sectors, w.steps = 4, 60
    return w


def manifest_text(w, seed, outdir):
    manifest = w.generate(seed, outdir, ROOT)
    return json.dumps(manifest, sort_keys=True).replace(str(outdir), "<out>")


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    w = W.WORKLOADS[name]
    first = manifest_text(w, 7, tmp_path / "a")
    again = manifest_text(w, 7, tmp_path / "b")
    other = manifest_text(w, 8, tmp_path / "c")
    assert first == again
    assert first != other
    if (tmp_path / "a").exists():
        cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        assert not cmp.diff_files and not cmp.left_only and not cmp.right_only
        for sub in cmp.subdirs.values():
            assert not sub.diff_files and not sub.left_only and not sub.right_only


def run_once(w, tmp_path, seed=3):
    manifest = w.generate(seed, tmp_path, ROOT)
    entry = manifest["instances"][0]
    inst = w.load(entry)
    output = w.operate(inst)
    return entry, inst, output


def test_horizon_oracle_flags_wrong_objective_and_status(tmp_path):
    w = small("horizon")
    entry, problem, sol = run_once(w, tmp_path)
    w.check(entry, problem, sol)
    bad = copy.copy(sol)
    bad.objective = sol.objective * (1 + 1e-6)
    with pytest.raises(W.OracleFailure, match="objective"):
        w.check(entry, problem, bad)
    bad = copy.copy(sol)
    bad.status = LpStatus.INFEASIBLE
    with pytest.raises(W.OracleFailure, match="status"):
        w.check(entry, problem, bad)


def test_infeasible_oracle_flags_reducible_or_empty_witness(tmp_path):
    w = small("infeasible")
    entry, problem, sol = run_once(w, tmp_path)
    w.check(entry, problem, sol)
    assert len(sol.infeasible_rows) > 1
    # An irreducible witness becomes feasible when any one row is dropped.
    bad = copy.copy(sol)
    bad.infeasible_rows = sol.infeasible_rows[1:]
    with pytest.raises(W.OracleFailure, match="feasible"):
        w.check(entry, problem, bad)
    bad.infeasible_rows = ()
    with pytest.raises(W.OracleFailure, match="empty"):
        w.check(entry, problem, bad)


def test_economy_oracle_flags_disagreeing_views(tmp_path):
    w = small("economy")
    entry, inst, codes = run_once(w, tmp_path)
    docs = [json.loads(Path(args[3]).read_text()) for args in inst]
    w.check_outputs(entry, codes, *docs)
    rcot_doc, static_doc, leontief_doc = docs
    bad = dict(static_doc, objective=static_doc["objective"] * (1 + 1e-7))
    with pytest.raises(W.OracleFailure, match="static objective"):
        w.check_outputs(entry, codes, rcot_doc, bad, leontief_doc)
    x = dict(leontief_doc["x"])
    x["s000"] += 1e-6
    with pytest.raises(W.OracleFailure, match="Leontief residual"):
        w.check_outputs(entry, codes, rcot_doc, static_doc, dict(leontief_doc, x=x))
    with pytest.raises(W.OracleFailure, match="exit codes"):
        w.check_outputs(entry, [0, 3, 0], *docs)
    w.check(entry, inst, codes)  # reads and removes the output files
    with pytest.raises(W.OracleFailure, match="missing output"):
        w.check(entry, inst, codes)


def test_simulate_oracle_flags_wrong_final_marking_and_drops(tmp_path):
    w = small("simulate")
    entry, inst, (code, stderr) = run_once(w, tmp_path)
    assert entry["dropped"] > 0
    last = W.last_line(Path(entry["out"]))
    w.check_outputs(entry, code, stderr, last)
    fields = last.split(",")
    fields[1] = repr(float(fields[1]) + 1e-3)
    with pytest.raises(W.OracleFailure, match="final marking"):
        w.check_outputs(entry, code, stderr, ",".join(fields))
    with pytest.raises(W.OracleFailure, match="dropped"):
        w.check_outputs(entry, code, "", last)
    with pytest.raises(W.OracleFailure, match="exit code"):
        w.check_outputs(entry, 2, stderr, last)


def span(sid, parent, name, start, end, attrs=None, op=0):
    return [op, sid, parent, name, start, end, attrs]


def test_self_time_subtracts_child_coverage():
    spans = [
        span(0, -1, "bench.op", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "a.child", 2.0, 3.0),
        span(3, 0, "b", 5.0, 6.0),
        span(4, -1, "overlap", 0.0, 10.0, op=1),
        span(5, 4, "c", 1.0, 4.0, op=1),
        span(6, 4, "d", 3.0, 5.0, op=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 6.0, 5: 3.0, 6: 2.0})


def test_op_metrics_on_synthetic_solve_and_diagnosis():
    simplex = {"pivots": 60, "refactors": 1, "bytes": 800}
    spans = [
        span(0, -1, "bench.op", 0.0, 20.0),
        span(1, 0, "lp.solve_lp", 0.0, 5.0),
        span(2, 1, "kernels.simplex_iterate", 0.5, 2.5, simplex),
        span(3, 1, "kernels.simplex_iterate", 3.0, 4.0, dict(simplex, pivots=10, refactors=0)),
        span(4, 1, "lp.certify", 4.0, 4.5),
        span(5, 0, "lp.irreducible_infeasible_rows", 6.0, 18.0, {"rows": 10, "witness": 4}),
        span(6, 5, "lp.feasible", 6.0, 9.0),
        span(7, 6, "kernels.simplex_iterate", 6.5, 8.5, dict(simplex, bytes=1600)),
        span(8, 5, "lp.feasible", 10.0, 13.0),
    ]
    m = tracing.op_metrics(spans)
    assert m["kernels.simplex_phase1_s"] == pytest.approx(4.0)
    assert m["kernels.simplex_phase2_s"] == pytest.approx(1.0)
    assert (m["kernels.pivots_phase1"], m["kernels.pivots_phase2"]) == (120, 10)
    assert m["kernels.refactors"] == 2
    assert m["kernels.simplex_bytes"] == 1600
    assert m["lp.solve_s"] == pytest.approx(5.0)
    assert m["lp.certify_s"] == pytest.approx(0.5)
    # solve: 5 - 3 - 0.5; diagnosis: 12 - 6; feasible: (3 - 2) + 3
    assert m["lp.self_s"] == pytest.approx(1.5 + 6.0 + 4.0)
    assert m["lp.diagnose_s"] == pytest.approx(12.0)
    assert m["lp.diagnose_trials"] == 2
    assert m["lp.diagnose_yield"] == pytest.approx(3.0)
    assert set(m) == set(tracing.UNITS)


def test_recorder_patches_every_lookup_name_and_restores():
    import heconet.cli
    import heconet.hfnmcf
    import heconet.incidence
    original = heconet.incidence.build_incidence
    callback = heconet.cli.main.commands["rcot"].callback
    rec = tracing.Recorder()
    rec.install()
    try:
        assert heconet.cli.build_incidence is heconet.hfnmcf.build_incidence
        assert heconet.cli.build_incidence.__wrapped__ is original
        model = heconet.io.parse_system_xml(
            (ROOT / W.DATA / W.BUNDLED_XML).read_bytes())
        heconet.hfnmcf.build_incidence(model)
    finally:
        rec.uninstall()
    assert heconet.incidence.build_incidence is original
    assert heconet.cli.build_incidence is original
    assert heconet.cli.main.commands["rcot"].callback is callback
    assert "main" not in vars(heconet.cli.main)
    names = [s[3] for s in rec.spans]
    assert names[:3] == ["io.parse_system_xml", "core.require_valid", "core.validate"]
    build = names.index("incidence.build_incidence")
    assert "core.require_valid" in names[build + 1:]
    assert all(s[2] >= 0 for s in rec.spans if s[3].startswith("core."))


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20)))[0] == 50.0
    assert run.tail(list(range(100)))[0] == 90.0
    p, value = run.tail([float(i) for i in range(1, 201)])
    assert (p, value) == (95.0, 190.0)
    assert np.sum(np.arange(1, 201) > value) == 10


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
