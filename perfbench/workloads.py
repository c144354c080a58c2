"""The benchmark's workloads: the graphs each one builds during set-up, the
public fdsc calls that make up one unit of work, and how that work is
counted.

Every call goes through an attribute of the ``fdsc`` package, looked up
when the call is made, so the tracer's wrappers see it.  All three
workloads are deterministic: they record the seed and ignore it.
``sweep-n8`` is run by hand only and is not listed in ``BENCHMARK.json``
(see ``hand_run_only`` in ``layers.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from verdicts import ORACLE_TABLE_N8, SWEEP_N8, oracle_problems, suite_problems

SUITE_DIMS = range(1, 7)


@dataclass(frozen=True)
class Call:
    label: str
    kind: str  # "oracle" or "suite": selects signature and counts
    run: Callable[[], object]
    problems: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    setup: Callable  # fdsc -> context dict; builds every graph the calls use
    calls: Callable  # (fdsc, context, seed) -> list[Call]
    work: Callable  # (context, results) -> work units in one unit of calls


def _graph_n8(fdsc) -> dict:
    return {"g": fdsc.build_graph(fdsc.make_dim(3))}


def _oracle_call(fdsc, g, case) -> Call:
    m, mode, budget, value, lower = case
    return Call(
        label=f"m={m} {mode} budget={budget}",
        kind="oracle",
        run=lambda: fdsc.exact_structure_connectivity(g, m, mode, budget),
        problems=lambda r: oracle_problems(r, g, m, mode, value, lower, fdsc.apply_cut),
    )


def _sweep_calls(fdsc, ctx, seed) -> list[Call]:
    return [_oracle_call(fdsc, ctx["g"], SWEEP_N8)]


def _sweep_work(ctx, results) -> int:
    # One closed-neighborhood star per vertex; every subset of at most
    # three stars is covered by the exhausted sweep.
    stars = ctx["g"].vertex_count
    return sum(math.comb(stars, t) for t in range(1, SWEEP_N8[2] + 1))


def _table_calls(fdsc, ctx, seed) -> list[Call]:
    return [_oracle_call(fdsc, ctx["g"], case) for case in ORACLE_TABLE_N8]


def _suite_call(fdsc, d) -> Call:
    return Call(
        label=f"run_all d={d}",
        kind="suite",
        run=lambda: fdsc.run_all(fdsc.make_dim(d)),
        problems=lambda r: suite_problems(r, d),
    )


def _suite_work(ctx, results) -> int:
    return sum(1 for r in results for c in r.checks if c.status != "skipped")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-n8",
            why=(
                "the one exhaustive sweep under a minute: 2.8M star subsets at n = 8, "
                "none pruned, all decided by modcheck; sweep-loop changes show here"
            ),
            work_unit="covered subsets",
            setup=_graph_n8,
            calls=_sweep_calls,
            work=_sweep_work,
        ),
        Workload(
            name="oracle-table-n8",
            why=(
                "nine reference-table verdicts at n = 8: flow kappa on every call, "
                "short sweeps that stop at a certificate; kappa and enumeration show here"
            ),
            work_unit="verdicts",
            setup=_graph_n8,
            calls=_table_calls,
            work=lambda ctx, results: len(results),
        ),
        Workload(
            name="lemmas",
            why=(
                "the verification suite for d = 1..6: labels and checks only, no oracle "
                "and no modcheck; the side that sweep changes must not move"
            ),
            work_unit="checks executed",
            setup=lambda fdsc: {},
            calls=lambda fdsc, ctx, seed: [_suite_call(fdsc, d) for d in SUITE_DIMS],
            work=_suite_work,
        ),
    )
}
