import itertools
import os
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdsc.graph
from fdsc import checks, exact_structure_connectivity, make_dim, parse_label, run_all, shard
from fdsc.checks import (
    FAIL,
    PASS,
    SKIPPED,
    check_cross_edge_structure,
    check_graph_invariants,
    check_label_invariants,
    check_neighborhood_structure,
    check_no_common_neighbor,
)
from fdsc.cuts import STRUCTURE
from fdsc.graph import Graph
from fdsc.labels import (
    e1_neighbor,
    external_neighbor,
    f_neighbor,
    format_label,
    neighbor_set,
    swap_neighbor,
)
from fdsc.modcheck import ModularChecker
from refimpl import ref_label_symmetry

D2, D3 = make_dim(2), make_dim(3)

CHECK_ORDER = (
    "label-involutions",
    "label-degree-symmetry",
    "label-top-swap-identity",
    "cross-edge-targets",
    "cross-edge-pair-rule",
    "apex-no-common-neighbor",
    "regularity-and-counts",
    "module-decomposition",
    "girth",
    "complete-quotient",
    "neighbor-common-bound",
    "neighbor-triangle-independent-rest",
)


def by_name(checks):
    return {c.name: c for c in checks}


class TestLabelInvariants:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_pass(self, d):
        for c in check_label_invariants(make_dim(d)):
            assert c.status == PASS, (c.name, c.detail)

    def test_wide_dimension_sampled(self):
        checks = check_label_invariants(make_dim(6))
        assert all(c.status == PASS for c in checks)
        assert any("sampled" in c.detail for c in checks)


class TestSharedSymmetryPass:
    """``label-involutions`` and ``label-degree-symmetry`` read one pass over
    the labels, and each names the failure its own scan order meets first:
    the two separate scans of ``ref_label_symmetry`` give the same verdicts
    on tables with a few entries overwritten or appended."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 5), st.integers(0, 255)),
            min_size=1,
            max_size=3,
        )
    )
    @example(edits=[(0x05, 2, 0x05)])  # a fixed point: a self-loop
    @example(edits=[(0x07, 5, 0x09)])  # a sixth neighbor
    @example(edits=[(0x00, 0, neighbor_set(0x00, D3)[1])])  # a repeated neighbor
    def test_verdicts_match_separate_scans(self, edits):
        table = checks._neighbor_table(D3)
        for u, i, w in edits:
            if i < len(table[u]):
                table[u][i] = w
            else:
                table[u].append(w)  # one neighbor too many
        results = by_name(check_label_invariants(D3, table))
        labels, _ = checks._labels_to_scan(D3)
        expected = ref_label_symmetry(table, labels, D3.d, lambda u: format_label(u, D3))
        for name, (status, detail) in zip(
            ("label-involutions", "label-degree-symmetry"), expected
        ):
            assert results[name].status == status
            if detail is not None:
                assert results[name].detail == detail

    def test_orders_differ(self):
        # a fixed point of e1 at a high label, which breaks e1 at its old
        # partner 0x70 too, and a broken level-2 swap at a low label: the
        # involutions scan meets e1 first, the symmetry scan label 0x03
        table = checks._neighbor_table(D3)
        table[0xF0][0] = 0xF0
        table[0x03][1] = 0x04
        results = by_name(check_label_invariants(D3, table))
        assert results["label-involutions"].detail == "e1 is not an involution at 01110000"
        assert results["label-degree-symmetry"].detail == (
            "asymmetric edge 00000011 -- 00000100 at neighbor position 1"
        )


class TestDegreeSymmetryCalls:
    """Each scanned label's neighbor list is computed once; a neighbor
    outside a sampled scan is the only other call."""

    @staticmethod
    def _counting(monkeypatch, fn=neighbor_set):
        calls = []

        def counted(v, vdim, variant="fdsc"):
            calls.append(v)
            return fn(v, vdim, variant)

        monkeypatch.setattr(checks, "neighbor_set", counted)
        return calls

    def test_one_call_per_label_at_d3(self, monkeypatch):
        calls = self._counting(monkeypatch)
        results = by_name(check_label_invariants(D3))
        assert results["label-degree-symmetry"].status == PASS
        assert len(calls) == 2**8
        assert sorted(calls) == list(range(2**8))

    def test_sampled_scan_calls_outside_neighbors_once_each(self, monkeypatch):
        dim = make_dim(5)
        labels, _ = checks._labels_to_scan(dim)
        scanned = set(labels)
        outside = sum(v not in scanned for u in labels for v in neighbor_set(u, dim))
        calls = self._counting(monkeypatch)
        assert by_name(check_label_invariants(dim))["label-degree-symmetry"].status == PASS
        assert len(calls) == len(labels) + outside

    def test_broken_label_caught_through_an_outside_neighbor(self, monkeypatch):
        dim = make_dim(5)
        labels, _ = checks._labels_to_scan(dim)
        u = labels[5]
        wrong = u ^ (1 << 8)  # not a neighbor of u, and not a scanned label
        assert wrong not in labels and e1_neighbor(u, dim) not in labels
        assert wrong not in neighbor_set(u, dim)

        def broken(v, vdim, variant="fdsc"):
            out = neighbor_set(v, vdim, variant)
            if v == u and vdim == dim:
                out[0] = wrong
            return out

        calls = self._counting(monkeypatch, broken)
        result = by_name(check_label_invariants(dim))["label-degree-symmetry"]
        assert result.status == FAIL
        assert result.detail == (
            f"asymmetric edge {format_label(u, dim)} -- {format_label(wrong, dim)} "
            f"at neighbor position 0"
        )
        assert wrong in calls  # the fallback for an unscanned neighbor ran


class TestCrossEdgeStructure:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pass(self, d):
        for c in check_cross_edge_structure(make_dim(d)):
            assert c.status == PASS, (c.name, c.detail)

    def test_broken_rule_fails_instead_of_raising(self, no_apex_cross_edge_n8):
        by_name = {c.name: c for c in check_cross_edge_structure(D3)}
        rule = by_name["cross-edge-pair-rule"]
        assert rule.status == FAIL
        assert rule.detail == (
            "modules 0x0,0xf: cross-edge rule produced a non-edge (0, 255) for n=8"
        )


class TestNoCommonNeighbor:
    def test_holds_from_n8(self):
        for d in (3, 4):
            c = check_no_common_neighbor(make_dim(d))
            assert c.status == PASS, c.detail

    def test_known_boundary_counterexample_n4(self):
        # At n = 4 the quarter halves are single bits, so flipping s_2
        # reaches across them: the apexes 0000 and 1100 genuinely share
        # the neighbors 1000 and 0100.  The check must report it.
        c = check_no_common_neighbor(D2)
        assert c.status == FAIL
        assert "0000" in c.detail and "1100" in c.detail
        assert "0100" in c.detail and "1000" in c.detail


class TestGraphInvariants:
    def test_n4(self, fdsc4):
        results = by_name(check_graph_invariants(fdsc4))
        assert results["regularity-and-counts"].status == PASS
        assert results["module-decomposition"].status == PASS
        assert results["girth"].status == PASS
        assert results["complete-quotient"].status == PASS

    def test_n8(self, fdsc8):
        assert all(c.status == PASS for c in check_graph_invariants(fdsc8))

    def test_n2_skips_module_checks(self, fdsc2):
        results = by_name(check_graph_invariants(fdsc2))
        assert results["module-decomposition"].status == SKIPPED
        assert results["complete-quotient"].status == SKIPPED
        assert results["girth"].status == PASS


def _fault(name, dim, b=0x5):
    """A neighbor function that is wrong at one vertex u of module b."""
    half, mask = dim.half, dim.module_mask
    members = [(x << half) | b for x in range(1 << half)]
    u = members[2]
    if name == "missed-module":
        # its cross edge is the only one from b into its target module
        u = next(v for v in members if external_neighbor(v, dim) & mask != b ^ mask)

    def faulty(v, vdim, variant="fdsc"):
        out = neighbor_set(v, vdim, variant)
        if v != u or vdim != dim:
            return out
        if name == "interior":
            # the e1 neighbor moves to a non-adjacent vertex of the module
            taken = set(out) | {u}
            out[0] = next(w for w in members if w not in taken)
        elif name == "kind":
            out[1], out[2] = out[2], out[1]  # level-2 and level-3 swaps trade positions
        elif name == "two-cross-edges":
            out.append(u ^ 1)
        elif name == "wrong-partner":
            # u = (2, 5) keeps one cross edge into module 2, at inner 4 instead of 5
            out[vdim.d] = (4 << half) | 2
        else:
            # the cross edge lands in the complement module instead
            out[vdim.d] = members[1] ^ mask
        return out

    return faulty


class TestModuleDecompositionProof:
    """One proof serves the module-decomposition check and the modular
    checker's preconditions; a single wrong neighbor fails both."""

    @pytest.mark.parametrize(
        "name,fact",
        [
            ("interior", "do not match the half-width copy"),
            ("kind", "do not match the half-width copy"),
            ("two-cross-edges", "has 2 cross edges"),
            ("missed-module", "do not reach every other module"),
            ("wrong-partner", "not at its partner"),
        ],
    )
    def test_one_wrong_neighbor_fails_both_users(
        self, name, fact, monkeypatch, fdsc8, fresh_checkers
    ):
        monkeypatch.setattr(checks, "neighbor_set", _fault(name, D3))
        violation = checks.module_decomposition_violation(D3)
        assert violation is not None and violation.startswith("module 0x5:"), violation
        assert fact in violation
        with pytest.raises(AssertionError, match="module 0x5:"):
            ModularChecker(D3)
        # no unproven module-induction bound reaches the oracle's prune
        with pytest.raises(AssertionError, match="module 0x5:"):
            exact_structure_connectivity(fdsc8, 0, STRUCTURE, 1)
        results = by_name(run_all(D3).checks)
        assert results["module-decomposition"].status == FAIL
        assert results["label-degree-symmetry"].status == FAIL
        # the faulty table also became the graph; the report is still whole
        assert list(results) == list(CHECK_ORDER)


class TestNeighborhoodStructure:
    def test_n4_and_n8(self, fdsc4, fdsc8):
        for g in (fdsc4, fdsc8):
            for c in check_neighborhood_structure(g):
                assert c.status == PASS, (c.name, c.detail)

    def test_fixed_witness_branch_reported(self, fdsc4):
        results = by_name(check_neighborhood_structure(fdsc4))
        assert "fixed witness" in results["neighbor-triangle-independent-rest"].detail

    def test_witness_triple_n4(self, fdsc4):
        # the fixed witness for vertex 0000 is {1000, 1100, 0100}
        triple = [parse_label(t, D2) for t in ("1000", "1100", "0100")]
        for a in triple:
            for b in triple:
                if a != b:
                    assert fdsc4.has_edge(a, b)
        rest = [v for v in fdsc4.adj[0] if v not in triple]
        assert rest == [parse_label("1111", D2)]


def _edited(g, add=(), drop=()):
    """A copy of g with the undirected edges ``add`` inserted and ``drop``
    removed, adjacency kept sorted."""
    adj = [set(nbrs) for nbrs in g.adj]
    for a, b in add:
        assert b not in adj[a]
        adj[a].add(b)
        adj[b].add(a)
    for a, b in drop:
        adj[a].remove(b)
        adj[b].remove(a)
    return Graph(dim=g.dim, variant=g.variant, adj=[sorted(nbrs) for nbrs in adj])


_SHARE = re.compile(r"neighbors (\d+), (\d+) of (\d+) share (\d+) others")


def _common_bound_violations(adj):
    """Reference for neighbor-common-bound: every (u, v, w) where neighbors
    v, w of u share more than one vertex besides u, with that count."""
    sets = [frozenset(nbrs) for nbrs in adj]
    found = {}
    for u, nbrs in enumerate(adj):
        for v, w in itertools.combinations(nbrs, 2):
            common = (sets[v] & sets[w]) - {u}
            if len(common) > 1:
                found[(u, v, w)] = len(common)
    return found


def _named_violation(detail, dim):
    v, w, u, k = _SHARE.fullmatch(detail).groups()
    return (parse_label(u, dim), parse_label(v, dim), parse_label(w, dim)), int(k)


_PAIRS16 = list(itertools.combinations(range(16), 2))


class TestNeighborhoodFailures:
    def test_two_vertices_sharing_three_neighbors_fail(self, fdsc8):
        # join a far vertex w to three neighbors of 0: a K_{2,3} on {0, w}
        v = 0
        w = next(
            x for x in range(fdsc8.vertex_count)
            if x != v and not set(fdsc8.adj[x]) & set(fdsc8.adj[v]) and x not in fdsc8.adj[v]
        )
        hubs = fdsc8.adj[v][:3]
        g = _edited(fdsc8, add=[(w, x) for x in hubs])
        result = by_name(check_neighborhood_structure(g))["neighbor-common-bound"]
        assert result.status == FAIL
        triple, k = _named_violation(result.detail, D3)
        assert _common_bound_violations(g.adj)[triple] == k
        assert triple == (hubs[0], v, w) and k == 2  # the smallest common neighbor is the hub

    @pytest.mark.parametrize("rows", ["folded", "repeated"])
    def test_detail_counts_the_walks_that_failed(self, rows, fdsc8, monkeypatch):
        # rows that are not a simple symmetric adjacency: the failing walk
        # count and the detail name the same walks.  "folded" is FDSC_8's
        # table with the folded neighbor of 0x12 moved inside its module,
        # where the set N(v) & N(w) held only two vertices; "repeated" lists
        # one neighbor of 0 twice, toward a w that shares two neighbors
        # with 0, so the repeat makes the third walk
        if rows == "folded":
            monkeypatch.setattr(checks, "neighbor_set", _folded_fault({0x12}, D3))
            result = by_name(run_all(D3).checks)["neighbor-common-bound"]
            adj = checks._neighbor_table(D3)
            assert result.detail == "neighbors 01000010, 00000010 of 00010010 share 2 others"
        else:
            w = next(
                w for w in range(1, 256) if len(set(fdsc8.adj[0]) & set(fdsc8.adj[w])) == 2
            )
            adj = [list(row) for row in fdsc8.adj]
            adj[0].append(max(set(adj[0]) & set(adj[w])))
            g = Graph(dim=D3, variant="fdsc", adj=adj)
            result = by_name(check_neighborhood_structure(g))["neighbor-common-bound"]
        assert result.status == FAIL
        v, w, hub, others = _SHARE.fullmatch(result.detail).groups()
        v, w, hub = (parse_label(x, D3) for x in (v, w, hub))
        middles = sorted(x for x in adj[v] for y in adj[x] if y == w)
        assert len(middles) == int(others) + 1 >= 3 and middles[0] == hub

    def test_broken_witness_triangle_fails(self, fdsc8):
        # the witness triangle of 0 is {u_1, u_top, u_f}; drop its u_1 -- u_f side
        u = 0
        g = _edited(fdsc8, drop=[(e1_neighbor(u, D3), f_neighbor(u, D3))])
        result = by_name(check_neighborhood_structure(g))["neighbor-triangle-independent-rest"]
        assert result.status == FAIL
        assert result.detail == f"no neighbor triangle with independent rest at {format_label(u, D3)}"

    def test_edge_inside_the_rest_fails(self, fdsc8):
        # join two neighbors of 0 outside its witness triangle
        u = 0
        witness = {e1_neighbor(u, D3), swap_neighbor(u, D3.d, D3), f_neighbor(u, D3)}
        x, y = [v for v in fdsc8.adj[u] if v not in witness][:2]
        g = _edited(fdsc8, add=[(x, y)])
        result = by_name(check_neighborhood_structure(g))["neighbor-triangle-independent-rest"]
        assert result.status == FAIL
        assert result.detail == f"no neighbor triangle with independent rest at {format_label(u, D3)}"

    def test_witness_outside_the_neighborhood_fails(self, fdsc8):
        # 0 loses its witness {u_1, u_top, u_f}, which is still a triangle,
        # and gains three far, mutually non-adjacent neighbors: N(0) has no
        # edge, so no triangle lies in it
        u = 0
        witness = [e1_neighbor(u, D3), swap_neighbor(u, D3.d, D3), f_neighbor(u, D3)]
        kept = [v for v in fdsc8.adj[u] if v not in witness]
        far = []
        for x in range(1, fdsc8.vertex_count):
            if x not in fdsc8.adj[u] and not set(fdsc8.adj[x]) & {*kept, *far}:
                far.append(x)
            if len(far) == 3:
                break
        g = _edited(fdsc8, add=[(u, x) for x in far], drop=[(u, v) for v in witness])
        rows = [set(g.adj[v]) for v in g.adj[u]]
        assert not any(v in row for v, row in itertools.product(g.adj[u], rows))
        result = by_name(check_neighborhood_structure(g))["neighbor-triangle-independent-rest"]
        assert result.status == FAIL
        assert result.detail == f"no neighbor triangle with independent rest at {format_label(u, D3)}"

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 100),
        st.lists(st.integers(0, 99), min_size=len(_PAIRS16), max_size=len(_PAIRS16)),
    )
    def test_walk_count_agrees_with_pairwise_definition(self, density, draws):
        # a random simple graph on 16 vertices, each pair joined with
        # probability density/100, so sparse and dense graphs both occur
        adj = [[] for _ in range(16)]
        for (a, b), x in zip(_PAIRS16, draws):
            if x < density:
                adj[a].append(b)
                adj[b].append(a)
        g = Graph(dim=D2, variant="fdsc", adj=adj)
        reference = _common_bound_violations(g.adj)
        result = by_name(check_neighborhood_structure(g))["neighbor-common-bound"]
        assert (result.status == FAIL) == bool(reference)
        if reference:
            triple, k = _named_violation(result.detail, D2)
            assert reference[triple] == k
            u, v, w = triple
            assert u == min(set(g.adj[v]) & set(g.adj[w]))


class TestRunAll:
    def test_d3_overall_true(self):
        report = run_all(D3)
        assert report.overall
        assert all(c.status == PASS for c in report.checks)

    def test_d2_reports_the_boundary_failure(self):
        report = run_all(D2)
        assert not report.overall
        failing = [c for c in report.checks if c.status == FAIL]
        assert [c.name for c in failing] == ["apex-no-common-neighbor"]

    def test_d1_skips_module_structure(self):
        report = run_all(make_dim(1))
        assert report.overall
        names = {c.name for c in report.checks}
        assert "apex-no-common-neighbor" not in names

    def test_wide_dimension_skips_graph_checks(self):
        report = run_all(make_dim(6))
        skipped = {c.name for c in report.checks if c.status == SKIPPED}
        assert "regularity-and-counts" in skipped
        assert "girth" in skipped
        assert report.overall  # skips never fail, label checks pass

    def test_json_shape_and_determinism(self):
        a = run_all(D3).to_json()
        b = run_all(D3).to_json()
        assert a == b
        assert set(a) == {"n", "d", "checks", "overall"}
        assert all(set(c) == {"name", "status", "detail"} for c in a["checks"])


class TestOneNeighborTable:
    """run_all computes each label's neighbor list once and sorts the same
    lists into the graph its graph checks run on."""

    def test_one_neighbor_list_per_label_at_d4(self, monkeypatch):
        calls = TestDegreeSymmetryCalls._counting(monkeypatch)
        monkeypatch.setattr(fdsc.graph, "neighbor_set", checks.neighbor_set)
        assert run_all(make_dim(4)).overall
        # one list per label, plus the half-width copies and the pair rule's probes
        assert len(calls) <= 2**16 + 2**10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_graph_from_the_table_is_build_graph(self, d, monkeypatch, fdsc4, fdsc8, fdsc16):
        seen = []
        real = checks.check_graph_invariants

        def spy(g, *args):
            seen.append(g)
            return real(g, *args)

        monkeypatch.setattr(checks, "check_graph_invariants", spy)
        run_all(make_dim(d))
        (g,) = seen
        assert g.adj == {2: fdsc4, 3: fdsc8, 4: fdsc16}[d].adj

    def test_module_proof_keeps_its_own_time(self):
        report = run_all(make_dim(4))
        assert [c.name for c in report.checks] == list(CHECK_ORDER)
        assert by_name(report.checks)["module-decomposition"].elapsed_ms > 0


class TestSharedLabels:
    """The full-width table holds each row as ``neighbor_set(u)`` gives it,
    in exact-size lists whose entries share one int object per label."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_are_neighbor_sets(self, d):
        dim = make_dim(d)
        table = checks._neighbor_table(dim)
        assert len(table) == 1 << dim.n
        assert all(row == neighbor_set(u, dim) for u, row in enumerate(table))

    def test_one_int_per_label_at_d4(self):
        # rows no larger than list() makes a list of known length
        table = checks._neighbor_table(make_dim(4))
        assert len({id(v) for row in table for v in row}) == 2**16
        assert all(sys.getsizeof(row) == sys.getsizeof(list(row)) for row in table)


def _folded_fault(us, dim):
    """A neighbor function whose folded neighbor of each u in ``us`` is
    another vertex of u's module, on u's side of s_1."""
    half, top = dim.half, 1 << (dim.n - 1)

    def faulty(v, vdim, variant="fdsc"):
        out = neighbor_set(v, vdim, variant)
        if vdim == dim and v in us:
            module = v & dim.module_mask
            side = [(x << half) | module for x in range(1 << half) if ((x << half) ^ v) & top == 0]
            out[dim.d + 1] = next(w for w in side if w not in out and w != v)
        return out

    return faulty


class TestShardedScans:
    """The label pass, the module proof and the two neighborhood scans split
    into vertex chunks at n = 16.  Forced to split FDSC_8 across two workers
    (32 chunks of 8 labels or vertices, 16 chunks of one module), with faults
    in a low chunk, a high chunk or both, every report equals the serial
    run's."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked during the test; none is left
        unreaped after it."""
        made = []
        real = os.fork

        def counted():
            pid = real()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        yield made
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _split(monkeypatch):
        monkeypatch.setattr(shard, "_MIN_SPLIT", 1)
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)

    @pytest.mark.parametrize(
        "faulty,named",
        [
            ({0x12}, ("00010010", "module 0x2:")),
            ({0xDA}, ("10011010", "module 0xa:")),
            ({0x12, 0xDA}, ("00010010", "module 0x2:")),
        ],
    )
    def test_run_all(self, faulty, named, monkeypatch, forks):
        monkeypatch.setattr(checks, "neighbor_set", _folded_fault(faulty, D3))
        serial = run_all(D3).to_json()
        assert not forks
        self._split(monkeypatch)
        assert run_all(D3).to_json() == serial
        assert len(forks) == 4  # labels, modules, common bound, triangles
        results = {c["name"]: c for c in serial["checks"]}
        assert results["label-involutions"]["detail"] == f"ef is not an involution at {named[0]}"
        assert results["module-decomposition"]["detail"].startswith(named[1])

    @pytest.mark.parametrize(
        "edges,named",
        [
            ([(0x10, 0x41)], ("00000001", "00010000")),
            ([(0x98, 0xC9)], ("10001001", "10011000")),
            ([(0x10, 0x41), (0x98, 0xC9)], ("00000001", "00010000")),
        ],
    )
    def test_neighborhood_scans(self, edges, named, fdsc8, monkeypatch, forks):
        # each edge joins two neighbors of a vertex, outside its witness
        g = _edited(fdsc8, add=edges)
        serial = [(c.status, c.detail) for c in check_neighborhood_structure(g)]
        self._split(monkeypatch)
        assert [(c.status, c.detail) for c in check_neighborhood_structure(g)] == serial
        assert len(forks) == 2
        (_, common), (_, triangle) = serial
        assert common.startswith(f"neighbors {named[0]}, ")
        assert triangle == f"no neighbor triangle with independent rest at {named[1]}"

    @pytest.mark.parametrize("shuffled", [0, 1])
    def test_fixed_witness_fails_in_one_range_only(self, shuffled, fdsc8, monkeypatch, forks):
        # two disjoint copies of FDSC_8 as vertices [0, 256) and [256, 512);
        # one copy has its labels shuffled, so the fixed witness fails there
        # and the full triple search succeeds
        perm = list(range(256))
        random.Random(5).shuffle(perm)
        moved = [[] for _ in perm]
        for v, row in enumerate(fdsc8.adj):
            moved[perm[v]] = sorted(perm[w] for w in row)
        low, high = (moved, fdsc8.adj) if shuffled == 0 else (fdsc8.adj, moved)
        adj = low + [[w + 256 for w in row] for row in high]
        g = Graph(dim=D3, variant="fdsc", adj=adj)
        serial = [(c.status, c.detail) for c in check_neighborhood_structure(g)]
        assert serial[1] == (PASS, "fixed witness failed somewhere, full triple search succeeded")
        self._split(monkeypatch)
        assert [(c.status, c.detail) for c in check_neighborhood_structure(g)] == serial
        assert len(forks) == 2

    def test_passing_reports(self, monkeypatch, forks):
        serial = run_all(D3).to_json()
        self._split(monkeypatch)
        assert run_all(D3).to_json() == serial
        assert serial["overall"] and len(forks) == 4
