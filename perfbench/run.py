"""Time-to-verdict benchmark for fdsc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a checkout, in a
fresh worker process that imports ``fdsc`` from ``src/``.  The worker is a
closed loop with one caller: it repeats the workload's unit of verdict
calls until ``--seconds`` have passed (at least once) and checks every
verdict against ``verdicts.py``.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median over
fresh processes before and after the timed one), ``verdict_s`` (median
unit time), ``work_per_s``
and ``peak_rss_mb``.  With ``--trace 1`` an untraced worker is followed by
a traced one that runs set-up and one unit; the metrics are per layer (see
``spans.py``) and the traced run must return the same verdicts and counts
as the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric by name with its unit.  The full record of the run,
with its provenance, is written to ``perfbench/out/``.  Exits 2 when the
checkout holds no ``src/fdsc``, 1 when a worker fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from spans import PER_LAYER, layer_metrics  # noqa: E402
from verdicts import add_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Import time is a few tens of milliseconds at n = 8; one process gives too
# noisy a figure, so set-up is repeated in fresh processes, half of them
# before the timed worker and half after it, so that the median spans the
# same stretch of the machine's drifting speed as the verdict times.
SETUP_SAMPLES = 11
# Every run must end within 180 s; stop waiting on workers before that.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def setup_samples(base: list[str], count: int, deadline: float) -> list[float]:
    return [
        run_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(count)
    ]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int, work_units) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload.name,
        "seed": seed,
        "work_unit": workload.work_unit,
        "work_units": work_units,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fdsc" / "__init__.py").is_file():
        print(f"no fdsc package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    budget = args.seconds / 2 if args.trace else args.seconds
    traced = None
    setups = []
    try:
        if not args.trace:
            setups += setup_samples(base, SETUP_SAMPLES // 2, deadline)
        untraced = run_worker(base + ["--seconds", str(budget)], deadline)
        if args.trace:
            traced = run_worker(base + ["--trace", "1"], deadline)
        else:
            setups.append(untraced["setup_s"])
            setups += setup_samples(base, SETUP_SAMPLES - len(setups), deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = untraced["attempted"]
    failed = untraced["failed"]
    problems = list(untraced["problems"])
    verdict_s = statistics.median(untraced["unit_s"])
    record = {
        "provenance": provenance(workload, args.seed, untraced["work_units"]),
        "samples": {"verdict_s": len(untraced["unit_s"])},
        "unit_s": untraced["unit_s"],
        "call_s": untraced["call_s"],
    }
    if traced is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "verdict_s": verdict_s,
            "work_per_s": untraced["work_units"] / verdict_s,
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        record["samples"]["setup_s"] = len(setups)
        record["setup_s_samples"] = setups
    else:
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
        changed = [
            i for i, (a, b) in enumerate(zip(untraced["signature"], traced["signature"]))
            if a != b
        ]
        if changed:
            failed += len(changed)
            problems.append(f"traced run changed the verdicts of calls {changed}")
        results: dict = {}
        for call_counts in traced["call_counts"].values():
            add_counts(results, call_counts)
        metrics = layer_metrics(
            traced["spans"], traced["decided"], results, traced["unit_s"][0] - verdict_s
        )
        units = dict(PER_LAYER)
        for key in ("spans", "decided", "unmeasured", "root_build_s", "spans_file",
                    "call_counts", "unit_s", "call_s"):
            record[f"traced_{key}"] = traced[key]
        record["untraced_verdict_s"] = verdict_s
    record["failed_share"] = failed / attempted
    record["problems"] = problems

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("provenance:", json.dumps(record["provenance"]))
    for problem in problems:
        print(f"problem: {problem}")
    for name, reason in (traced or {}).get("unmeasured", {}).items():
        print(f"unmeasured: {name}: {reason}")
    print(f"{'failed_share':<44} {record['failed_share']:>14.6g} share")
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"{name:<44} {shown} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
