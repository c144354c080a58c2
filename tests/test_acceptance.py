"""Acceptance criteria, one test per criterion (slow tiers marked).

Each test prints a single ``ACCEPTANCE <id>: PASS|FAIL`` line so a log
scrape shows the verdict per criterion; the asserts carry the detail.
"""

import time

import pytest

from fdsc import (
    apply_cut,
    build_graph,
    check_vertex_edge_removals,
    exact_structure_connectivity,
    k1_cut,
    k11_cut,
    k1m_cut,
    make_dim,
    run_all,
    validate_family,
    vertex_connectivity,
)
from fdsc.cuts import STRUCTURE, SUBSTRUCTURE
from fdsc.labels import neighbor_set
from fdsc.modcheck import ModularChecker
from refimpl import ref_neighbors


def report(ident: str, desc: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {ident}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_census():
    t0 = time.perf_counter()
    ok = True
    for d in (1, 2, 3, 4):
        dim = make_dim(d)
        g = build_graph(dim)
        ok &= g.vertex_count == 1 << dim.n
        ok &= g.edge_count == (1 << (dim.n - 1)) * (d + 2)
        ok &= all(g.degree(u) == d + 2 for u in range(g.vertex_count))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10
    report("1", "census and regularity for n in {2,4,8,16}", ok, f"{elapsed:.1f}s")


def test_criterion_2_point_connectivity(fdsc2, fdsc4, fdsc8, fdsc16):
    t0 = time.perf_counter()
    got = [vertex_connectivity(g) for g in (fdsc2, fdsc4, fdsc8)]
    # n = 16 by module induction (a flow on the FDSC_8 template only): a
    # lower bound that meets the minimum degree, an upper bound, is exact
    bound = ModularChecker(make_dim(4)).kappa_lower_bound
    degree = min(map(len, fdsc16.adj))
    got.append(bound if bound == degree else f"bound {bound}, minimum degree {degree}")
    elapsed = time.perf_counter() - t0
    ok = got == [3, 4, 5, 6] and elapsed < 120
    desc = "exact vertex connectivity 3,4,5,6 for n=2,4,8,16"
    report("2", desc, ok, f"got {got}, {elapsed:.1f}s")


def test_criterion_3_oracle_exact_values(fdsc2, fdsc4):
    t0 = time.perf_counter()
    cases = [
        (fdsc2, 1, STRUCTURE, 2),
        (fdsc2, 2, STRUCTURE, 1),
        (fdsc4, 1, STRUCTURE, 2),
        (fdsc4, 1, SUBSTRUCTURE, 2),
        (fdsc4, 2, STRUCTURE, 2),
        (fdsc4, 2, SUBSTRUCTURE, 2),
        (fdsc4, 3, STRUCTURE, 2),
        (fdsc4, 3, SUBSTRUCTURE, 2),
        (fdsc4, 4, SUBSTRUCTURE, 2),
    ]
    bad = []
    for g, m, mode, want in cases:
        result = exact_structure_connectivity(g, m, mode, size_budget=3)
        if result.value != want:
            bad.append((g.dim.n, m, mode, result.value, want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    report("3", "exhaustive oracle values on n in {2,4}", ok, f"mismatches {bad}, {elapsed:.1f}s")


def test_criterion_4_explicit_cuts_disconnect_n8(fdsc8):
    t0 = time.perf_counter()
    dim = make_dim(3)
    results = []
    fam = k11_cut(0, dim)
    rep = apply_cut(fdsc8, fam)
    results.append(len(fam) == 4 and rep.is_cut and rep.isolated_target == 0)
    for m in (2, 3, 4):
        fam, u = k1m_cut(dim, m, 0)
        rep = apply_cut(fdsc8, fam)
        results.append(len(fam) == 2 and rep.is_cut and rep.isolated_target == u)
    elapsed = time.perf_counter() - t0
    ok = all(results) and elapsed < 60
    report("4", "single-edge and star families disconnect FDSC_8 isolating the target", ok, f"{elapsed:.1f}s")


def test_criterion_5_fast_no_single_element_cut(fdsc8):
    t0 = time.perf_counter()
    result = exact_structure_connectivity(fdsc8, 5, SUBSTRUCTURE, size_budget=1)
    elapsed = time.perf_counter() - t0
    ok = result.value is None and result.proven_lower_bound == 2 and elapsed < 120
    report(
        "5-fast",
        "no single star element with up to 5 leaves disconnects FDSC_8",
        ok,
        f"lower bound {result.proven_lower_bound}, {result.examined} subsets, {elapsed:.1f}s",
    )


@pytest.fixture(scope="session")
def fdsc8_edge_sweep(fdsc8):
    """The budget-3 K_{1,1}-substructure sweep of FDSC_8, run once: 5-slow
    asserts on the oracle result, 7-exhaustive on the removal check it is."""
    t0 = time.perf_counter()
    result = exact_structure_connectivity(fdsc8, 1, SUBSTRUCTURE, size_budget=3)
    return result, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_5_slow_edge_family_lower_bound(fdsc8_edge_sweep):
    result, elapsed = fdsc8_edge_sweep
    ok = result.value is None and result.proven_lower_bound == 4 and elapsed < 2700
    report(
        "5-slow",
        "no family of <= 3 vertex/edge elements disconnects FDSC_8",
        ok,
        f"examined {result.examined}, pruned {result.pruned}, {elapsed/60:.1f} min",
    )


# The checks that must fail at each width.  At n = 4 apex disjointness is
# genuinely false (see README, "Known boundary failure"); from n = 8 on
# every check passes.
EXPECTED_SUITE_FAILURES = {2: {"apex-no-common-neighbor"}, 3: set(), 4: set()}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_criterion_6_verification_suite(d):
    expected = EXPECTED_SUITE_FAILURES[d]
    t0 = time.perf_counter()
    rep = run_all(make_dim(d))
    elapsed = time.perf_counter() - t0
    failing = {c.name: c.detail for c in rep.checks if c.status == "fail"}
    ok = set(failing) == expected and rep.overall == (not expected) and elapsed < 300
    if d == 2:
        # The counterexample must be genuine: the string reference agrees
        # that the apexes 0000 and 1100 share exactly 1000 and 0100, and
        # the check names all four labels.
        common = ref_neighbors("0000") & ref_neighbors("1100")
        detail = failing.get("apex-no-common-neighbor", "")
        ok &= common == {"1000", "0100"}
        ok &= all(label in detail for label in ("0000", "1100", *common))
    report(
        f"6[n={1 << d}]",
        "verification suite gives the expected verdicts",
        ok,
        f"failing={sorted(failing)}, expected={sorted(expected)}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_7_removals_exhaustive_n8(fdsc8_edge_sweep):
    # a mix of vertex and edge removals is a K_{1,1}-substructure family, so
    # the exhaustive removal check is the shared sweep itself
    result, elapsed = fdsc8_edge_sweep
    ok = result.certificate is None and elapsed < 1800
    report(
        "7-exhaustive",
        "no mix of <= 3 vertex/edge removals disconnects FDSC_8",
        ok,
        f"examined {result.examined}, pruned {result.pruned}, {elapsed/60:.1f} min",
    )


@pytest.mark.slow
def test_criterion_7_removals_sampled_n16(fdsc16):
    t0 = time.perf_counter()
    rep = check_vertex_edge_removals(fdsc16, 1_000_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.holds and rep.checked == 1_000_000 and elapsed < 1800
    report(
        "7-sampled",
        "10^6 seeded vertex/edge removal mixes leave FDSC_16 connected",
        ok,
        f"seed 0, {elapsed/60:.1f} min",
    )


def test_criterion_8_label_level_construction_scaling():
    t0 = time.perf_counter()
    bad = []
    for d in (2, 3, 4, 5, 6):
        dim = make_dim(d)
        fam = k11_cut(0, dim)
        okv, _ = validate_family(fam, dim)
        nbrs = set(neighbor_set(0, dim))
        if not (len(fam) == d + 1 and okv and nbrs <= fam.vertex_union()):
            bad.append(("k11", d))
        for m in range(2, d + 2):
            fam, u = k1m_cut(dim, m, 0)
            okv, _ = validate_family(fam, dim)
            covered = set(neighbor_set(u, dim)) <= fam.vertex_union()
            if not (len(fam) == d // 2 + 1 and okv and covered):
                bad.append(("k1m", d, m))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    report("8", "construction sizes and coverage at label level, d in 2..6", ok, f"bad={bad}, {elapsed:.2f}s")


def test_criterion_9_monotonicity(fdsc2, fdsc4):
    values = {}
    for g, name in ((fdsc2, 2), (fdsc4, 4)):
        top = g.dim.d + 2
        for m in range(1, top + 1):
            for mode in (STRUCTURE, SUBSTRUCTURE):
                if mode == STRUCTURE and m > g.dim.d + 1:
                    continue
                result = exact_structure_connectivity(g, m, mode, size_budget=3)
                values[(name, m, mode)] = result.value
    problems = []
    for (n, m, mode), v in values.items():
        if mode == SUBSTRUCTURE:
            paired = values.get((n, m, STRUCTURE))
            if paired is not None and not (v <= paired):
                problems.append(f"substructure above structure at n={n} m={m}")
    for n, d in ((2, 1), (4, 2)):
        series = {values[(n, m, STRUCTURE)] for m in range(2, d + 2)}
        if len(series) > 1:
            problems.append(f"pattern-order dependence at n={n}: {sorted(series)}")
    ok = not problems
    report("9", "substructure <= structure and pattern-order independence on n in {2,4}", ok, str(problems))
