"""The expected verdicts, and the checker that compares reports against them.

Expected values are written out here rather than read from the program
(``fdsc.reference_value``), so a change to the program's reference table
cannot make a wrong verdict look right.  The checker reads only public
report attributes; ``apply_cut`` is passed in so the self-tests can run
without the package.
"""

from __future__ import annotations

# Star-pattern connectivity of FDSC_8 (d = 3) as published: K_1,1 gives
# d + 1 = 4; stars with 2 <= m <= d + 1 leaves give floor(d/2) + 1 = 2 in
# both modes; substructure keeps 2 at m = d + 2.  A budget below the value
# cannot find it, so the sweep must end with lower bound budget + 1.
# (m, mode, budget, expected value, expected lower bound)
ORACLE_TABLE_N8 = (
    (1, "substructure", 2, None, 3),
    (2, "structure", 2, 2, 2),
    (3, "structure", 2, 2, 2),
    (4, "structure", 2, 2, 2),
    (2, "substructure", 2, 2, 2),
    (3, "substructure", 2, 2, 2),
    (4, "substructure", 2, 2, 2),
    (5, "substructure", 2, 2, 2),
    (5, "substructure", 1, None, 2),
)

# Closed neighborhoods (m = 5 = degree, structure mode) never disconnect
# FDSC_8 with three or fewer stars: the sweep is exhausted at lower bound 4.
SWEEP_N8 = (5, "structure", 3, None, 4)

# The n = 4 suite has one true counterexample, which stays red.
SUITE_FAILURES = {2: {"apex-no-common-neighbor"}}


def oracle_problems(result, g, m, mode, value, lower, apply_cut) -> list[str]:
    """Problems with one ``exact_structure_connectivity`` result."""
    problems = []
    if result.value != value:
        problems.append(f"value {result.value}, expected {value}")
    if result.proven_lower_bound != lower:
        problems.append(f"lower bound {result.proven_lower_bound}, expected {lower}")
    cert = result.certificate
    if value is None:
        if cert is not None:
            problems.append("certificate given for an exhausted search")
        return problems
    if cert is None:
        problems.append("certificate missing")
        return problems
    if len(cert.elements) != value:
        problems.append(f"certificate has {len(cert.elements)} stars, expected {value}")
    for star in cert.elements:
        leaves = len(star.leaves)
        if (leaves != m) if mode == "structure" else (leaves > m):
            problems.append(f"star at {star.center} has {leaves} leaves ({mode}, m={m})")
        if not set(star.leaves) <= set(g.adj[star.center]):
            problems.append(f"star at {star.center} has a leaf that is not a neighbor")
    if not apply_cut(g, cert).is_cut:
        problems.append("certificate does not disconnect under apply_cut")
    return problems


def suite_problems(report, d: int) -> list[str]:
    """Problems with a ``run_all`` report at dimension d."""
    failing = {c.name for c in report.checks if c.status == "fail"}
    expected = SUITE_FAILURES.get(d, set())
    problems = []
    if failing != expected:
        problems.append(f"d={d}: failing checks {sorted(failing)}, expected {sorted(expected)}")
    if report.overall != (not expected):
        problems.append(f"d={d}: overall {report.overall}, expected {not expected}")
    return problems


def signature(kind: str, result) -> list:
    """The deterministic part of a verdict, compared between the untraced
    and the traced run."""
    if kind == "oracle":
        cert = result.certificate
        stars = (
            sorted([s.center, sorted(s.leaves)] for s in cert.elements) if cert else None
        )
        return [result.value, result.proven_lower_bound, result.candidates,
                result.examined, result.pruned, result.connectivity_checks, stars]
    return [result.overall, [[c.name, c.status] for c in result.checks]]


def counts(kind: str, result) -> dict:
    """Counts read from a report for the per-layer metrics."""
    if kind == "oracle":
        return {"candidates": result.candidates, "examined": result.examined,
                "pruned": result.pruned, "checks": result.connectivity_checks}
    if kind == "suite":
        return {"check_s": {c.name: c.elapsed_ms / 1000 for c in result.checks}}
    return {}


def add_counts(total: dict, more: dict) -> None:
    """Add the counts in ``more`` into ``total``, key by key."""
    for key, value in more.items():
        if isinstance(value, dict):
            add_counts(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
