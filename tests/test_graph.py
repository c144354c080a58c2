import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsc import (
    DSC,
    FDSC,
    Graph,
    ParameterError,
    ResourceCapError,
    build_graph,
    components_after_removal,
    cross_edges,
    export,
    girth,
    make_dim,
    parse_label,
    quotient_census,
    vertex_connectivity,
)
from fdsc.graph import _min_vertex_cut_size, _split_network
from fdsc.labels import neighbor_set
from refimpl import all_labels, ref_neighbors

D2, D3 = make_dim(2), make_dim(3)


class TestBuild:
    @pytest.mark.parametrize(
        "d,variant,edges",
        [
            (1, FDSC, 6),
            (2, FDSC, 32),
            (3, FDSC, 640),
            (4, FDSC, 196608),
            (1, DSC, 4),
            (2, DSC, 24),
            (3, DSC, 512),
            (4, DSC, 163840),
        ],
    )
    def test_counts(self, d, variant, edges):
        g = build_graph(make_dim(d), variant)
        assert g.vertex_count == 1 << g.dim.n
        assert g.edge_count == edges

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            build_graph(make_dim(5))

    @pytest.mark.parametrize("variant", [FDSC, DSC])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_are_sorted_neighbor_sets(self, d, variant):
        dim = make_dim(d)
        g = build_graph(dim, variant)
        assert g.adj == [sorted(neighbor_set(u, dim, variant)) for u in range(1 << dim.n)]

    @pytest.mark.parametrize("variant", [FDSC, DSC])
    def test_one_int_per_label_at_n16(self, variant):
        # 2^16 int objects for all (d+1) or (d+2) 2^16 entries, in rows no
        # larger than list() makes a list of known length
        adj = build_graph(make_dim(4), variant).adj
        assert len({id(v) for row in adj for v in row}) == 2**16
        assert all(sys.getsizeof(row) == sys.getsizeof(list(row)) for row in adj)

    def test_adjacency_well_formed(self, fdsc8):
        for u, nbrs in enumerate(fdsc8.adj):
            assert nbrs == sorted(nbrs)
            assert len(set(nbrs)) == len(nbrs)
            assert u not in nbrs
            for v in nbrs:
                assert u in fdsc8.adj[v]

    def test_matches_reference_neighbors(self):
        for d in (1, 2, 3):
            dim = make_dim(d)
            for variant in (FDSC, DSC):
                g = build_graph(dim, variant)
                for text in all_labels(dim.n):
                    u = parse_label(text, dim)
                    got = {format(v, f"0{dim.n}b") for v in g.adj[u]}
                    assert got == ref_neighbors(text, variant)


class TestComponents:
    def test_empty_removal(self, fdsc4):
        census = components_after_removal(fdsc4, set())
        assert census.component_count == 1
        assert census.component_sizes == [16]

    def test_remove_everything(self, fdsc4):
        census = components_after_removal(fdsc4, set(range(16)))
        assert census.component_count == 0
        assert census.surviving == 0
        assert census.smallest_component_root is None

    def test_isolating_removal(self, fdsc4):
        removed = {parse_label(t, D2) for t in ("1000", "1100", "1111", "0100")}
        census = components_after_removal(fdsc4, removed)
        assert census.component_count == 2
        assert census.component_sizes == [11, 1]
        assert census.smallest_component_root == 0

    def test_smallest_root_tie_goes_to_least(self, fdsc4):
        # two non-adjacent survivors: equal-size components, the least wins
        u, v = 0b0110, 0b0011
        assert not fdsc4.has_edge(u, v)
        census = components_after_removal(fdsc4, set(range(16)) - {u, v})
        assert census.component_sizes == [1, 1]
        assert census.smallest_component_root == v


def brute_force_connectivity(g):
    """Independent route: smallest vertex subset whose removal disconnects
    or trivializes, by exhaustive subset enumeration."""
    for size in range(g.vertex_count):
        for removed in itertools.combinations(range(g.vertex_count), size):
            census = components_after_removal(g, removed)
            if census.component_count >= 2 or census.surviving <= 1:
                return size
    return g.vertex_count


class TestConnectivity:
    def test_folded_values(self, fdsc2, fdsc4, fdsc8):
        assert vertex_connectivity(fdsc2) == 3
        assert vertex_connectivity(fdsc4) == 4
        assert vertex_connectivity(fdsc8) == 5

    def test_plain_variant_value(self, dsc8):
        assert vertex_connectivity(dsc8) == 4

    def test_flow_matches_brute_force(self, fdsc2, fdsc4):
        assert vertex_connectivity(fdsc2) == brute_force_connectivity(fdsc2)
        assert vertex_connectivity(fdsc4) == brute_force_connectivity(fdsc4)
        dsc4 = build_graph(make_dim(2), DSC)
        assert vertex_connectivity(dsc4) == brute_force_connectivity(dsc4)

    def test_disconnected_returns_zero(self):
        g = Graph(dim=make_dim(1), variant=FDSC, adj=[[1], [0], [3], [2]])
        assert vertex_connectivity(g) == 0

    @pytest.mark.parametrize(
        "edges",
        [
            # Two K_4 sharing vertex 3: the hub 0 reaches the cut through
            # its flow to a non-neighbor (case a).
            [*itertools.combinations(range(4), 2), *itertools.combinations(range(3, 7), 2)],
            # Two K_5 joined only through vertex 0, adjacent to two vertices
            # of each: the only minimum separator is {0}, the hub itself, so
            # only the neighbor-pair flows (case b) find it.
            [
                *itertools.combinations(range(1, 6), 2),
                *itertools.combinations(range(6, 11), 2),
                (0, 1), (0, 2), (0, 6), (0, 7),
            ],
        ],
        ids=["cut-vertex-off-hub", "cut-vertex-is-hub"],
    )
    def test_cut_below_min_degree(self, edges):
        g = _graph(1 + max(max(e) for e in edges), edges)
        assert min(map(g.degree, range(g.vertex_count))) > 1
        assert vertex_connectivity(g) == brute_force_connectivity(g) == 1

    def test_flow_stops_at_limit(self, fdsc8):
        net = _split_network(fdsc8)
        t = next(v for v in range(1, fdsc8.vertex_count) if not fdsc8.has_edge(0, v))
        assert _min_vertex_cut_size(net, 0, t, 2) == 2
        assert _min_vertex_cut_size(net, 0, t, fdsc8.vertex_count) == 5

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flow_matches_subset_enumeration(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        pairs = list(itertools.combinations(range(n), 2))
        present = data.draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)), label="edges"
        )
        g = _graph(n, [e for e, keep in zip(pairs, present) if keep])
        assert vertex_connectivity(g) == brute_force_connectivity(g)
        net = _split_network(g)
        for s, t in pairs:
            if g.has_edge(s, t):
                continue
            separator = _min_separator_size(g, s, t)
            for limit in range(n):
                assert _min_vertex_cut_size(net, s, t, limit) == min(limit, separator)


def _graph(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(dim=make_dim(1), variant=FDSC, adj=[sorted(a) for a in adj])


def _min_separator_size(g, s, t):
    """Fewest vertices other than s and t whose removal leaves no s-t path,
    by subset enumeration in order of size."""
    others = [v for v in range(g.vertex_count) if v not in (s, t)]
    for size in range(len(others) + 1):
        for removed in itertools.combinations(others, size):
            reached, stack = {s}, [s]
            while stack:
                for v in g.adj[stack.pop()]:
                    if v not in reached and v not in removed:
                        reached.add(v)
                        stack.append(v)
            if t not in reached:
                return size


class TestGirth:
    def test_folded_girth_three(self, fdsc2, fdsc4, fdsc8):
        for g in (fdsc2, fdsc4, fdsc8):
            value, witness = girth(g)
            assert value == 3
            assert len(witness) == 3
            a, b, c = witness
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)

    def test_plain_variant_girth_four(self):
        value, witness = girth(build_graph(make_dim(1), DSC))
        assert value == 4
        assert len(witness) == 4

    def test_acyclic_sentinel(self):
        g = Graph(dim=make_dim(1), variant=FDSC, adj=[[1], [0], [], []])
        assert girth(g) is None

    @pytest.mark.parametrize("length", [4, 5, 6, 7])
    def test_plain_cycle(self, length):
        adj = [[(i - 1) % length, (i + 1) % length] for i in range(length)]
        value, witness = girth(Graph(dim=make_dim(1), variant=FDSC, adj=adj))
        assert value == length
        assert len(witness) == length

    def test_triangle_with_tail(self):
        # triangle 0-1-2 plus a path hanging off vertex 2
        adj = [[1, 2], [0, 2], [0, 1, 3], [2, 4], [3]]
        value, witness = girth(Graph(dim=make_dim(1), variant=FDSC, adj=adj))
        assert value == 3
        assert sorted(witness) == [0, 1, 2]


class TestQuotient:
    def test_n4(self, fdsc4):
        census = quotient_census(fdsc4)
        assert census.module_count == 4
        assert census.pair_count == 6
        assert census.is_complete()
        assert census.complement_rule_holds(D2)
        assert census.multiplicities[(0b00, 0b11)] == 2
        assert census.multiplicities[(0b01, 0b10)] == 2
        assert census.multiplicities[(0b00, 0b01)] == 1

    def test_n8(self, fdsc8):
        census = quotient_census(fdsc8)
        assert census.module_count == 16
        assert census.pair_count == 120
        assert census.is_complete()
        assert census.complement_rule_holds(D3)

    def test_n16(self, fdsc16):
        census = quotient_census(fdsc16)
        assert census.module_count == 256
        assert census.pair_count == 32640
        assert census.is_complete()
        assert census.complement_rule_holds(make_dim(4))

    def test_needs_folded_variant(self, dsc8):
        with pytest.raises(ParameterError):
            quotient_census(dsc8)


class TestCrossEdges:
    def test_complementary_pair_n4(self):
        got = cross_edges(0b00, 0b11, D2)
        labels = {(format(u, "04b"), format(v, "04b")) for u, v in got}
        assert labels == {("0000", "1111"), ("1100", "0011")}

    def test_plain_pair_n4(self):
        got = cross_edges(0b00, 0b01, D2)
        assert [(format(u, "04b"), format(v, "04b")) for u, v in got] == [("0100", "0001")]

    def test_complementary_pair_n8(self):
        assert len(cross_edges(0b0000, 0b1111, D3)) == 2

    def test_same_module_rejected(self):
        with pytest.raises(ParameterError):
            cross_edges(0b01, 0b01, D2)

    def test_every_pair_matches_built_graph(self, fdsc8):
        # label-level rule against the materialized adjacency
        by_pair = {}
        for u, v in fdsc8.edges():
            bu, bv = u & 0xF, v & 0xF
            if bu != bv:
                key = (min(bu, bv), max(bu, bv))
                by_pair.setdefault(key, set()).add((min(u, v), max(u, v)))
        for bi in range(16):
            for bj in range(bi + 1, 16):
                expected = {
                    (min(u, v), max(u, v)) for u, v in cross_edges(bi, bj, D3)
                }
                assert by_pair[(bi, bj)] == expected


class TestExport:
    def test_edge_line_count(self, fdsc2):
        lines = export(fdsc2, "edges").decode().strip().split("\n")
        assert lines[0] == "# fdsc d=1 n=2 variant=fdsc"
        assert len(lines) == 1 + 6

    def test_header_n4(self, fdsc4):
        header = export(fdsc4, "edges").decode().split("\n", 1)[0]
        assert header == "# fdsc d=2 n=4 variant=fdsc"

    def test_variant_header(self, dsc8):
        header = export(dsc8, "edges").decode().split("\n", 1)[0]
        assert header == "# fdsc d=3 n=8 variant=dsc"

    def test_deterministic(self, fdsc4):
        assert export(fdsc4, "edges") == export(fdsc4, "edges")
        assert export(fdsc4, "dot") == export(fdsc4, "dot")

    def test_edges_sorted_smaller_first(self, fdsc4):
        lines = export(fdsc4, "edges").decode().strip().split("\n")[1:]
        pairs = [tuple(line.split()) for line in lines]
        assert all(a < b for a, b in pairs)
        assert pairs == sorted(pairs)

    def test_dot_shape(self, fdsc2):
        text = export(fdsc2, "dot").decode()
        assert text.startswith("graph fdsc_2 {")
        assert '"00" -- "01";' in text
        assert text.rstrip().endswith("}")

    def test_unknown_format(self, fdsc2):
        with pytest.raises(ParameterError):
            export(fdsc2, "gml")
