"""Put traced benchmark numbers beside the baseline table in ROADMAP.md.

    python3 perfbench/reconcile.py [--seed 1] [--seconds 20]

Runs every workload once with ``--trace 1`` and writes
``perfbench/baseline.json``: one row per baseline figure, with the
measured value, the runs it came from, and whether the two agree.  A row
agrees when the measured value lies within the baseline's range widened
by a factor of 1.25 on each side.  Disagreements are recorded as found.
Traced numbers include the tracer's own cost, which is large where a span
wraps many small calls (build_graph holds one neighbor_set span per vertex).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOLERANCE = 1.25

# (row, baseline text, baseline range in seconds or as a share)
BASELINE = (
    ("build_graph n = 8", "1 ms", (1e-3, 1e-3)),
    ("build_graph n = 16", "0.37 s", (0.37, 0.37)),
    ("vertex_connectivity n = 8 (kappa = 5)", "0.78 s", (0.78, 0.78)),
    ("ModularChecker build, n = 16", "0.48 s", (0.48, 0.48)),
    ("run_all n = 16", "7.5 s", (7.5, 7.5)),
    ("label-degree-symmetry in run_all n = 16", "4.6 s", (4.6, 4.6)),
    ("t = 3 sweep at n = 8, per checked subset", "6-11 us", (6e-6, 11e-6)),
    ("t = 3 sweep at n = 8, share in connected_grouped", "~80 %", (0.8, 0.8)),
)


def _measured(records: dict) -> dict:
    sweep, table, lemmas = records["sweep-n8"], records["oracle-table-n8"], records["lemmas"]
    sweep_unit = sweep["traced_unit_s"][0]
    sweep_checks = sweep["result"]["metrics"]["oracle.checks"]["value"]
    kappa = table["traced_spans"]["graph.kappa"]
    return {
        "build_graph n = 8": (
            sweep["traced_root_build_s"][0],
            "sweep-n8: the set-up build_graph span",
        ),
        "build_graph n = 16": (
            max(lemmas["traced_root_build_s"]),
            "lemmas: the largest build_graph span, the one run_all(make_dim(4)) makes",
        ),
        "vertex_connectivity n = 8 (kappa = 5)": (
            kappa["incl_s"] / kappa["calls"],
            f"oracle-table-n8: mean of {kappa['calls']} vertex_connectivity spans",
        ),
        "ModularChecker build, n = 16": (
            None,
            "not measured: no workload builds a ModularChecker at n = 16",
        ),
        "run_all n = 16": (
            lemmas["traced_call_s"]["run_all d=4"][0],
            "lemmas: wall time of run_all(make_dim(4)), traced",
        ),
        "label-degree-symmetry in run_all n = 16": (
            lemmas["traced_call_counts"]["run_all d=4"]["check_s"]["label-degree-symmetry"],
            "lemmas: CheckResult.elapsed_ms of label-degree-symmetry at d = 4",
        ),
        "t = 3 sweep at n = 8, per checked subset": (
            sweep_unit / sweep_checks,
            f"sweep-n8: traced verdict time / {sweep_checks} checks; the baseline "
            "row is the 896-element vertex/edge sweep, this is the 256-star sweep",
        ),
        "t = 3 sweep at n = 8, share in connected_grouped": (
            sweep["traced_spans"]["modcheck.query"]["self_s"] / sweep_unit,
            "sweep-n8: modcheck.query self time / traced verdict time",
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    records = {}
    for name in ("sweep-n8", "oracle-table-n8", "lemmas"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        path = HERE / "out" / f"{name}-seed{args.seed}-trace1.json"
        records[name] = json.loads(path.read_text())
        if not records[name]["result"]["correct"]:
            print(f"{name}: traced run is not correct", file=sys.stderr)
            return 1
    measured = _measured(records)
    rows = []
    for row, text, (lo, hi) in BASELINE:
        value, source = measured[row]
        rows.append({
            "row": row,
            "roadmap": text,
            "measured": value,
            "source": source,
            "agrees": None if value is None else lo / TOLERANCE <= value <= hi * TOLERANCE,
        })
    out = {
        "about": __doc__.split("\n\n")[2].replace("\n", " "),
        "provenance": {name: r["provenance"] for name, r in records.items()},
        "rows": rows,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for r in rows:
        verdict = {None: "not measured", True: "agrees", False: "DISAGREES"}[r["agrees"]]
        print(f"{r['row']:<52} {r['roadmap']:>8}  {r['measured'] or 0:.4g}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
