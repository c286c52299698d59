"""Workload process: import, warm up, run the closed loop, report.

Started by ``run.py`` with ``src`` on PYTHONPATH; not meant to be run
by hand.  Set-up time runs from run.py's launch stamp (a
CLOCK_MONOTONIC reading passed as ``--launched``) to the end of the
untimed warm-up operation.  The result goes to ``--result`` as JSON.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _attempt(workload, entry, inst, recorder=None, op=-1):
    """One operation: returns (seconds, error or None).  The oracle runs
    after the clock stops and with tracing removed."""
    error = None
    if recorder is not None:
        recorder.op = op
        recorder.install()
        span = recorder.begin("bench.op")
    start = time.perf_counter()
    try:
        output = workload.operate(inst)
    except Exception as exc:  # a failed operation is counted, never retried
        output, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.end(span)
        recorder.uninstall()
    if error is None:
        try:
            workload.check(entry, inst, output)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return elapsed, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--warmup", required=True, type=Path)
    ap.add_argument("--manifest", type=Path)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    import heconet.cli  # part of the set-up being measured
    package = Path(heconet.cli.__file__).resolve().parent
    if package != ROOT / "src" / "heconet":
        print(f"error: imported heconet from {package}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    warm = json.loads(args.warmup.read_text())["instances"][0]
    warm_inst = workload.load(warm)
    _, warm_error = _attempt(workload, warm, warm_inst)
    result = {"setup_s": time.monotonic() - args.launched, "warmup_error": warm_error}
    if args.manifest is None:
        args.result.write_text(json.dumps(result))
        return 0

    import envstamp
    entries = json.loads(args.manifest.read_text())["instances"]
    instances = [(entry, workload.load(entry)) for entry in entries]
    times, errors = [], []
    traced, traced_errors = [], []
    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or (recorder and len(traced) < len(instances)):
        entry, inst = instances[i % len(instances)]
        # In a traced run each instance runs untraced, then traced, so
        # the overhead compares like with like.
        elapsed, error = _attempt(workload, entry, inst)
        times.append(elapsed)
        errors.append(error)
        if recorder is not None:
            elapsed, error = _attempt(workload, entry, inst, recorder, op=len(traced))
            traced.append(elapsed)
            traced_errors.append(error)
        i += 1

    failures = [e for e in errors + traced_errors if e is not None]
    result.update(
        times=times, traced_times=traced, attempted=len(errors) + len(traced_errors),
        failed=len(failures), untraced_failed=sum(e is not None for e in errors),
        errors=sorted(set(failures))[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=envstamp.collect(ROOT))
    if recorder is not None:
        result["layers"] = tracing.run_metrics(recorder.spans, traced, times, len(instances))
        recorder.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
