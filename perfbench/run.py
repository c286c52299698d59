"""heconet benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload horizon --seed 1 --seconds 25 --trace 0

Workloads: horizon, economy, simulate, infeasible (see README.md beside
this file); without ``--workload`` all four run in turn, and the last
line holds every metric prefixed by its workload.

This process generates the inputs from the seed, then starts the
workload process, which imports ``heconet`` from ``src`` of this
checkout, warms up on the bundled three-sector data and runs a closed
loop (one client, no think time) for ``--seconds``.
Every output is checked by the workload's oracle.  Set-up runs
several times, in fresh processes, and is reported as a median.

With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything the run writes goes under ``.bench_build/perfbench`` in the
checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_NAMES = ("horizon", "economy", "simulate", "infeasible")
E2E_UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def tail(times):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None under 20 samples."""
    n = len(times)
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p% of n), in integers
        if n - rank >= 10:
            return p, sorted(times)[rank - 1]
    return None


def end_to_end(setups, result) -> dict:
    times = result["times"]
    completed = len(times) - result["untraced_failed"]
    return {
        "op_p50_s": (statistics.median(times), len(times)),
        "ops_per_s": (completed / sum(times), len(times)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def _launch(args, env, timeout):
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--launched", repr(launched)] + args,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with code {proc.returncode}")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics and return the result object."""
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    src = ROOT / "src"
    out = ROOT / ".bench_build" / "perfbench" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    manifest = workload.generate(seed, out / "inputs", ROOT)
    warmup = workload.warmup(ROOT, out / "inputs" / "warmup")
    (out / "manifest.json").write_text(json.dumps(manifest))
    (out / "warmup.json").write_text(json.dumps(warmup))

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    common = ["--workload", name, "--warmup", str(out / "warmup.json")]
    setups, warmup_errors = [], []
    for i in range(SETUP_SAMPLES - 1):
        _launch(common + ["--result", str(out / f"setup{i}.json")], env, 120)
        setup = json.loads((out / f"setup{i}.json").read_text())
        setups.append(setup["setup_s"])
        warmup_errors.append(setup["warmup_error"])
    _launch(common + ["--manifest", str(out / "manifest.json"),
                      "--seconds", repr(seconds), "--trace", str(trace),
                      "--result", str(out / "worker.json"), "--spans", str(out / "spans.jsonl")],
            env, seconds + 150)
    result = json.loads((out / "worker.json").read_text())
    setups.append(result["setup_s"])
    warmup_errors.append(result["warmup_error"])
    shutil.rmtree(out / "inputs")
    # A wrong warm-up answer makes the run incorrect, but it is not one
    # of the measured operations.
    warmup_errors = sorted({e for e in warmup_errors if e is not None})
    correct = result["failed"] == 0 and not warmup_errors

    e2e = end_to_end(setups, result)
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": manifest["sizes"], "env": result["env"],
        "attempted": result["attempted"], "failed": result["failed"],
        "fail_rate": result["failed"] / result["attempted"], "errors": result["errors"],
        "warmup_errors": warmup_errors,
        "setup_samples_s": setups, "op_times_s": result["times"],
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k], "samples": n}
                       for k, (v, n) in e2e.items()},
    }
    op_tail = tail(result["times"])
    if op_tail is not None:
        report["end_to_end"]["op_tail_s"] = {"value": op_tail[1], "unit": "s",
                                             "percentile": op_tail[0],
                                             "samples": len(result["times"])}
    if trace:
        import tracing
        report["per_layer"] = {k: {"value": v, "unit": tracing.UNITS[k]}
                               for k, v in result["layers"].items()}
        report["traced_op_times_s"] = result["traced_times"]
        metrics = report["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()}
    (out / "report.json").write_text(json.dumps(report, indent=1))

    print(f"workload {name}  seed {seed}  sizes {json.dumps(manifest['sizes'])}")
    print(f"attempted {report['attempted']}  failed {report['failed']}  "
          f"fail_rate {report['fail_rate']:.4f} ratio  correct {correct}")
    for error in result["errors"] + warmup_errors:
        print(f"  error: {error}")
    for name, m in report["end_to_end"].items():
        extra = f"  p{m['percentile']:g}" if "percentile" in m else ""
        print(f"  {name:<14}{m['value']:>14.6g} {m['unit']:<5} (n={m['samples']}){extra}")
    for name, m in report.get("per_layer", {}).items():
        print(f"  {name:<28}{m['value']:>14.6g} {m['unit']}")
    print(f"report: {out / 'report.json'}")
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all four in turn (default)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "heconet" / "__init__.py").is_file():
        print(f"error: no heconet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in WORKLOAD_NAMES}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
