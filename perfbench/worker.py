"""One workload in one process: import fdsc, set up, run units of verdict
calls until the time budget is spent, check every verdict, and print one
JSON line.  ``run.py`` starts this script; it is not meant to be run alone.

With ``--setup-only`` it stops after set-up and reports only its time.
With ``--trace 1`` it traces set-up and exactly one unit, writes the spans
to ``out/`` and adds the span summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from spans import Tracer  # noqa: E402
from verdicts import add_counts, counts, signature  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    fdsc = importlib.import_module("fdsc")
    if not Path(fdsc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported fdsc from {fdsc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    ctx = workload.setup(fdsc)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    unit_s: list[float] = []
    call_s: dict[str, list[float]] = {}
    call_counts: dict[str, dict] = {}
    first_signature = None
    attempted = failed = 0
    problems: list[str] = []
    work_units = None
    loop_start = time.perf_counter()
    while True:
        calls = workload.calls(fdsc, ctx, args.seed)
        outcomes = []
        unit = 0.0
        for call in calls:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = call.run()
            except Exception:  # a raising verdict call is a failed verdict
                outcomes.append((call, None, traceback.format_exc()))
            else:
                outcomes.append((call, result, None))
            elapsed = time.perf_counter() - t0
            unit += elapsed
            call_s.setdefault(call.label, []).append(elapsed)
        unit_s.append(unit)
        if tracer is not None:
            tracer.active = False
        unit_signature = []
        for call, result, error in outcomes:
            found = [error] if error else call.problems(result)
            if found:
                failed += 1
                problems.extend(f"{call.label}: {p}" for p in found)
            unit_signature.append(None if error else signature(call.kind, result))
            if first_signature is None and not error:
                add_counts(call_counts.setdefault(call.label, {}), counts(call.kind, result))
        if first_signature is None:
            first_signature = unit_signature
            results = [r for _, r, e in outcomes if not e]
            work_units = workload.work(ctx, results) if len(results) == len(outcomes) else 0
        elif unit_signature != first_signature:
            failed += 1
            problems.append("a repeated unit returned different verdicts")
        if tracer is not None or time.perf_counter() - loop_start >= args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "unit_s": unit_s,
        "call_s": call_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "signature": first_signature,
        "call_counts": call_counts,
        "work_units": work_units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.summary()
        report["decided"] = tracer.decided
        report["unmeasured"] = tracer.unmeasured
        report["root_build_s"] = tracer.roots("graph.build")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(path)
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
