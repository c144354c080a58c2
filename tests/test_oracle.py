import itertools
import math
import os
import pathlib
import subprocess
import sys
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdsc import (
    FDSC,
    Graph,
    ParameterError,
    apply_cut,
    check_vertex_edge_removals,
    enumerate_candidates,
    exact_structure_connectivity,
    make_dim,
    modcheck,
    reference_value,
    super_cut_probe,
    validate_family,
)
from fdsc.cuts import STRUCTURE, SUBSTRUCTURE, Star, star
from fdsc.graph import components_after_removal
from fdsc.oracle import _candidate_keys, _Keys, _members, _sweep, _SweepTable
from refimpl import fails_fast_test, ref_candidates, ref_table, smallest_component


def _pairs(stars):
    return [(s.center, s.leaves) for s in stars]


@st.composite
def _loose_rows(draw):
    """Adjacency rows of 2..8 vertices, each drawn on its own: distinct
    entries, no vertex in its own row, any order, and v in row u need not
    mean u in row v."""
    n = draw(st.integers(2, 8))
    return [
        draw(st.lists(st.sampled_from([u for u in range(n) if u != v]), unique=True))
        for v in range(n)
    ]


class TestEnumerate:
    def test_edge_candidates_n2(self, fdsc2):
        cands = enumerate_candidates(fdsc2, 1, STRUCTURE)
        assert len(cands) == 6  # the edges of the complete graph on 4 vertices
        assert all(len(c.leaves) == 1 for c in cands)

    def test_singletons_n4(self, fdsc4):
        assert len(enumerate_candidates(fdsc4, 0, STRUCTURE)) == 16

    def test_dedup_count_n4_m2_frozen(self, fdsc4):
        # 16 centers x C(4,2) = 96 raw stars; vertex-set dedup regression value
        assert len(enumerate_candidates(fdsc4, 2, STRUCTURE)) == 64

    def test_dedup_count_n8_m5_substructure_frozen(self, fdsc8):
        # 256 centers x sum_j C(5,j) = 8192 raw; dedup regression value
        assert len(enumerate_candidates(fdsc8, 5, SUBSTRUCTURE)) == 6848

    def test_dedup_by_vertex_set(self, fdsc4):
        cands = enumerate_candidates(fdsc4, 2, SUBSTRUCTURE)
        seen = {frozenset(c.vertices) for c in cands}
        assert len(seen) == len(cands)

    def test_deterministic_order(self, fdsc4):
        a = enumerate_candidates(fdsc4, 2, SUBSTRUCTURE)
        b = enumerate_candidates(fdsc4, 2, SUBSTRUCTURE)
        assert a == b

    def test_substructure_includes_smaller(self, fdsc4):
        cands = enumerate_candidates(fdsc4, 2, SUBSTRUCTURE)
        sizes = {len(c.leaves) for c in cands}
        assert sizes == {0, 1, 2}

    def test_bad_mode(self, fdsc4):
        with pytest.raises(ParameterError):
            enumerate_candidates(fdsc4, 1, "induced")

    @pytest.mark.parametrize("mode", [STRUCTURE, SUBSTRUCTURE])
    @pytest.mark.parametrize("name", ["fdsc2", "fdsc4", "fdsc8", "dsc8"])
    def test_matches_seen_set_reference(self, name, mode, request):
        g = request.getfixturevalue(name)
        for m in range(g.dim.d + 3):
            assert _pairs(enumerate_candidates(g, m, mode)) == ref_candidates(g.adj, m, mode)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(rows=_loose_rows(), m=st.integers(0, 4), mode=st.sampled_from((STRUCTURE, SUBSTRUCTURE)))
    def test_matches_seen_set_reference_on_loose_rows(self, rows, m, mode):
        # the canonical-center rule keeps the first star per vertex set for
        # any rows, sorted or not, symmetric or not
        g = Graph(dim=make_dim(1), variant=FDSC, adj=rows)
        assert _pairs(enumerate_candidates(g, m, mode)) == ref_candidates(rows, m, mode)

    @pytest.mark.slow
    def test_matches_seen_set_reference_n16(self, fdsc16):
        cands = enumerate_candidates(fdsc16, 5, STRUCTURE)
        assert len(cands) == 393_216
        assert _pairs(cands) == ref_candidates(fdsc16.adj, 5, STRUCTURE)


EXACT_SMALL = [
    # (d, m, mode, value)
    (1, 1, STRUCTURE, 2),
    (1, 2, STRUCTURE, 1),
    (2, 1, STRUCTURE, 2),
    (2, 1, SUBSTRUCTURE, 2),
    (2, 2, STRUCTURE, 2),
    (2, 2, SUBSTRUCTURE, 2),
    (2, 3, STRUCTURE, 2),
    (2, 3, SUBSTRUCTURE, 2),
    (2, 4, SUBSTRUCTURE, 2),
]


class TestExactValues:
    @pytest.mark.parametrize("d,m,mode,value", EXACT_SMALL)
    def test_small_exact(self, d, m, mode, value, fdsc2, fdsc4):
        g = fdsc2 if d == 1 else fdsc4
        result = exact_structure_connectivity(g, m, mode, size_budget=3)
        assert result.value == value
        assert result.proven_lower_bound == value

    def test_certificate_soundness(self, fdsc4):
        result = exact_structure_connectivity(fdsc4, 2, STRUCTURE, 3)
        assert result.certificate is not None
        assert len(result.certificate) == result.value
        assert apply_cut(fdsc4, result.certificate).is_cut

    def test_exhaustive_examined_counts(self, fdsc2):
        # a completed sweep covers the full subset space of each size
        result = exact_structure_connectivity(fdsc2, 1, STRUCTURE, 1)
        assert result.value is None
        assert result.proven_lower_bound == 2
        assert result.examined == 6  # C(6,1)
        assert result.notes.get("budget_exhausted")

    def test_exhausted_space_recount_n8(self, fdsc8):
        # no-cut verdicts must have swept exactly C(candidates, t) per size
        result = exact_structure_connectivity(fdsc8, 1, STRUCTURE, 2)
        assert result.value is None
        c = result.candidates
        assert c == 640  # the edge count
        assert result.examined == math.comb(c, 1) + math.comb(c, 2)

    def test_modular_and_plain_routes_agree(self, fdsc8):
        # a certificate found at t = 2, and an exhausted sweep with no hit
        for m, mode, budget, value in ((2, STRUCTURE, 2, 2), (5, SUBSTRUCTURE, 1, None)):
            fast = exact_structure_connectivity(fdsc8, m, mode, budget)
            slow = exact_structure_connectivity(fdsc8, m, mode, budget, use_modular=False)
            assert fast.value == slow.value == value
            if value is None:
                assert fast.certificate is slow.certificate is None
            else:
                assert fast.certificate.elements == slow.certificate.elements
            assert fast.proven_lower_bound == slow.proven_lower_bound
            assert fast.examined == slow.examined
            assert fast.pruned == slow.pruned
            assert fast.connectivity_checks == slow.connectivity_checks

    def test_kappa_route(self, fdsc4, fdsc8, dsc8):
        # module induction answers only where the checker applies; the
        # whole-graph flow answers everywhere else and stays the reference
        induction = (
            "(5, module induction: kappa(FDSC_4) + 1 by flow on the template, "
            "preconditions verified, equals the minimum degree)"
        )
        for g, use_modular, route in (
            (fdsc8, True, induction),
            (fdsc8, False, "(5, computed by flow)"),
            (dsc8, True, "(4, computed by flow)"),
            (fdsc4, True, "(4, computed by flow)"),
        ):
            result = exact_structure_connectivity(g, 1, SUBSTRUCTURE, 1, use_modular)
            rule = result.notes["prune_rule"]
            assert route in rule, rule
            assert "smaller than the exact vertex connectivity" in rule

    def test_weaker_bound_is_not_called_exact(self, fdsc8, monkeypatch, fresh_checkers):
        # a sound bound below the minimum degree still prunes soundly, but
        # the report must not call it the exact connectivity
        exact = exact_structure_connectivity(fdsc8, 2, STRUCTURE, 2)
        monkeypatch.setattr(modcheck, "module_induction_bound", lambda *args: 4)
        # the checker is shared per dimension, so the patched bound needs a
        # fresh one
        modcheck.modular_checker.cache_clear()
        weak = exact_structure_connectivity(fdsc8, 2, STRUCTURE, 2)
        assert weak.notes["prune_rule"].startswith(
            "subsets with removed-vertex union smaller than the proven "
            "vertex-connectivity lower bound (4, module induction: "
        )
        assert "minimum degree" not in weak.notes["prune_rule"]
        assert weak.certificate.elements == exact.certificate.elements
        assert weak.examined == exact.examined and weak.pruned < exact.pruned

    def test_determinism(self, fdsc4):
        a = exact_structure_connectivity(fdsc4, 2, SUBSTRUCTURE, 3)
        b = exact_structure_connectivity(fdsc4, 2, SUBSTRUCTURE, 3)
        assert a.value == b.value
        assert a.certificate.elements == b.certificate.elements
        assert (a.examined, a.pruned) == (b.examined, b.pruned)

    def test_budget_validation(self, fdsc2):
        with pytest.raises(ParameterError):
            exact_structure_connectivity(fdsc2, 1, STRUCTURE, 0)


def _keys_of(stars):
    """Keys for any stars, leaves adjacent to their center or not: each
    center's row is the sorted union of its stars' leaves."""
    rows = {}
    for s in stars:
        rows.setdefault(s.center, set()).update(s.leaves)
    rows = {c: sorted(leaves) for c, leaves in rows.items()}
    masks = [sum(1 << rows[s.center].index(u) for u in s.leaves) for s in stars]
    return _Keys(array("I", [s.center for s in stars]), masks, rows)


def _pick(keys, indices):
    """The keys at ``indices``, on the same rows."""
    return _Keys(
        array("I", [keys.centers[k] for k in indices]), [keys.masks[k] for k in indices], keys.rows
    )


def _stars(keys):
    return [keys.star(k) for k in range(len(keys))]


def _table(g, keys, budget, use_modular=True, kappa=5):
    """The sweep table ``exact_structure_connectivity`` builds for these
    candidate keys, with the checker ``SurvivorCheck`` picks and FDSC_8's
    kappa, 5, by default; checked against ``ref_table`` on the same
    candidates as ``Star`` objects."""
    checker = modcheck.SurvivorCheck(g, use_modular).checker
    table = _SweepTable(keys, g, checker, budget, kappa)
    _matches_reference(table, ref_table(_stars(keys), g.dim, checker, budget, kappa))
    return table


def _footprints(table):
    """Every candidate's footprint, as ``_SweepTable.footprint`` reads it."""
    return [table.footprint(k) for k in range(len(table.keys))]


def _matches_reference(table, ref):
    """The table holds what ``ref_table`` derives: every footprint, the
    sizes and, where the table keeps its checker, every bitset."""
    assert [dict(fp) for fp in _footprints(table)] == ref.footprints
    assert list(table.sizes) == ref.sizes
    if ref.smaller is None:
        assert table.checker is None
    else:
        assert (table.smaller, table.weak, table.touches) == (ref.smaller, ref.weak, ref.touches)


def _prefixes(footprints, t):
    """Each (t-1)-prefix of the candidates, with its merged footprint, its
    union size and its first extension, as ``_sweep`` hands them to
    ``_SweepTable.split``."""
    for prefix in itertools.combinations(range(len(footprints)), t - 1):
        merged = {}
        for k in prefix:
            for b, inner in footprints[k]:
                merged[b] = merged.get(b, 0) | inner
        size = sum(inner.bit_count() for inner in merged.values())
        yield prefix, merged, size, prefix[-1] + 1 if prefix else 0


# the nine calls of the benchmark's ``oracle-table-n8`` workload, each with
# the number of ``components`` calls its table build makes, one per distinct
# removed inner mask (0 where every level is wholly pruned and the table
# keeps no checker), 1,144 in all; the number of candidates whose footprint
# its sweep reads, 5,076 of 35,136 in all; the number of
# ``ModularChecker.connected`` queries its sweep makes, 267 in all; and the
# number of ``ModularChecker.reaches_core`` calls, from ``_SweepTable.visit``
# and from ``connected``, 40,266 in all
TABLE_CALLS = {
    (1, SUBSTRUCTURE, 2): (0, 0, 0, 0),
    (2, STRUCTURE, 2): (112, 368, 7, 2_294),
    (3, STRUCTURE, 2): (132, 464, 25, 1_910),
    (4, STRUCTURE, 2): (84, 272, 7, 548),
    (2, SUBSTRUCTURE, 2): (112, 494, 9, 3_739),
    (3, SUBSTRUCTURE, 2): (164, 958, 57, 8_460),
    (4, SUBSTRUCTURE, 2): (180, 1230, 81, 11_341),
    (5, SUBSTRUCTURE, 2): (180, 1290, 81, 11_974),
    (5, SUBSTRUCTURE, 1): (180, 0, 0, 0),
}


class TestSweep:
    def test_matches_plain_route_t3(self, fdsc8):
        # the first 60 K_{1,1}-substructure candidates (vertices and edges
        # on centers 0..9): the checker route, the census-only route and a
        # set-union recount agree on the hit, examined and pruned
        cands = _pick(_candidate_keys(fdsc8, 1, SUBSTRUCTURE), range(60))
        fast = _sweep(_table(fdsc8, cands, 3), 3, 5)
        plain = _sweep(_table(fdsc8, cands, 3, use_modular=False), 3, 5)
        small = sum(
            len(set().union(*(c.vertices for c in combo))) < 5
            for combo in itertools.combinations(_stars(cands), 3)
        )
        assert fast == plain == (None, math.comb(60, 3), small)
        assert 0 < small < math.comb(60, 3)

    def test_bulk_matches_plain_route(self, fdsc8):
        # strided slices of at most 40 candidates, every pattern order and
        # mode, t = 1..3, from all candidates or from those centered on one
        # closed neighborhood (where cuts are found): the sweep with the
        # checker (bulk split, then ``visit``) and the census-only route
        # give the same hit, examined and pruned, and so does the sweep on a
        # table built for budget 3, whose extra ``weak`` and ``touches`` rows
        # no level below 3 reads, and on one built for budget 10^5, whose
        # ``weak`` rows stop at the module count; the three tables split
        # every prefix and visit its held and routed extensions alike.  A table
        # whose levels are all pruned has no split.  Every table matches
        # ``ref_table`` (in ``_table``)
        pools, hits = {}, []

        @settings(max_examples=100, derandomize=True, deadline=None)
        @given(
            m=st.integers(0, 5),
            mode=st.sampled_from((STRUCTURE, SUBSTRUCTURE)),
            t=st.integers(1, 3),
            around=st.none() | st.integers(0, 255),
            first=st.integers(0, 6847),
            step=st.integers(1, 300),
            length=st.integers(0, 40),
        )
        # cuts found after bulk prunes, in both modes
        @example(m=2, mode=STRUCTURE, t=3, around=149, first=5000, step=3, length=14)
        @example(m=2, mode=SUBSTRUCTURE, t=3, around=212, first=3039, step=5, length=30)
        @example(m=4, mode=STRUCTURE, t=3, around=110, first=1505, step=1, length=40)
        def agrees(m, mode, t, around, first, step, length):
            if (m, mode) not in pools:
                pools[m, mode] = _candidate_keys(fdsc8, m, mode)
            pool = range(len(pools[m, mode]))
            if around is not None:
                ball = {around, *fdsc8.adj[around]}
                pool = [k for k in pool if pools[m, mode].centers[k] in ball]
            cands = _pick(pools[m, mode], pool[first % len(pool) :: step][:length])
            table, wide = _table(fdsc8, cands, t), _table(fdsc8, cands, 3)
            huge = _table(fdsc8, cands, 10**5)
            checked = [x for x in (table, wide, huge) if x.checker is not None]
            if huge.checker is not None:
                assert len(huge.weak) <= huge.checker.module_count + 1
            for _, merged, size, start in _prefixes(_footprints(table), t):
                splits = [x.split(merged, size, start, 5) for x in checked]
                visits = [list(x.visit(merged, size, *splits[0][1:], 5)) for x in checked]
                assert all(got == splits[0] for got in splits)
                assert all(got == visits[0] for got in visits)
                if splits:  # no extension counted twice, none outside the window
                    pruned, held, route = splits[0]
                    assert not (pruned & held or pruned & route or held & route)
                    window = ((1 << len(cands)) - 1) >> start << start
                    assert (pruned | held | route) & ~window == 0
            result = _sweep(_table(fdsc8, cands, t, use_modular=False), t, 5)
            assert _sweep(table, t, 5) == _sweep(wide, t, 5) == _sweep(huge, t, 5) == result
            hits.append(result[0] is not None)

        agrees()
        assert any(hits)

    @pytest.mark.parametrize("m,mode,budget", TABLE_CALLS)
    def test_one_table_per_call(self, m, mode, budget, fdsc8, monkeypatch):
        builds = []
        real = _SweepTable.__init__

        def counting(self, keys, g, checker, budget, kappa):
            builds.append(budget)
            real(self, keys, g, checker, budget, kappa)

        monkeypatch.setattr(_SweepTable, "__init__", counting)
        exact_structure_connectivity(fdsc8, m, mode, budget)
        assert builds == [budget]

    @pytest.mark.parametrize("m,mode,budget", TABLE_CALLS)
    def test_table_matches_star_reference(self, m, mode, budget, fdsc8, monkeypatch):
        # the table built from the keys equals the one derived from the
        # seen-set reference's stars.  Its build asks ``components`` once
        # per distinct removed inner mask, 1,144 calls over the nine calls,
        # and ``reach`` never: ``weak`` reads component sizes alone (a
        # build before the size bound called ``reach`` once per distinct
        # footprint pair, 18,304 times)
        checker = modcheck.SurvivorCheck(fdsc8).checker
        calls = {"reach": 0, "components": 0}
        for name in calls:
            real = getattr(modcheck.ModularChecker, name)

            def counting(self, *args, name=name, real=real):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(modcheck.ModularChecker, name, counting)
        table = _SweepTable(_candidate_keys(fdsc8, m, mode), fdsc8, checker, budget, 5)
        assert calls == {"reach": 0, "components": TABLE_CALLS[m, mode, budget][0]}
        monkeypatch.undo()
        stars = [Star(center=c, leaves=leaves) for c, leaves in ref_candidates(fdsc8.adj, m, mode)]
        _matches_reference(table, ref_table(stars, fdsc8.dim, checker, budget, 5))

    def test_census_once_per_certificate(self, fdsc8, monkeypatch):
        # no subset of the nine calls touches every module, so the checker
        # decides each one exactly, and the sweep runs the census only on
        # the hit: one call per certificate, 7 in all (``apply_cut``'s
        # re-check of the certificate is not the sweep's)
        calls = []
        real = components_after_removal

        def counting(g, removed):
            calls.append(sorted(removed))
            return real(g, removed)

        monkeypatch.setattr("fdsc.oracle.components_after_removal", counting)
        hits = 0
        for m, mode, budget in TABLE_CALLS:
            before = len(calls)
            result = exact_structure_connectivity(fdsc8, m, mode, budget)
            hits += result.value is not None
            assert len(calls) - before == (result.value is not None), (m, mode, budget)
        assert hits == len(calls) == 7

    def test_footprints_only_where_read(self, fdsc8, monkeypatch):
        # the table derives a footprint when the sweep first reads it, once:
        # 5,076 of the nine calls' 35,136 candidates.  The budget-2
        # K_{1,1}-substructure call prunes both levels wholly and the
        # budget-1 K_{1,5}-substructure call proves its one level in bulk,
        # so neither derives any.  ``visit`` reads the kept footprints
        # without the ``footprint`` method, so the sweep's reads through it
        # are a subset of those derived
        read, derived = [], []
        real_read, real_derive = _SweepTable.footprint, _SweepTable._derive

        def reading(self, k):
            read.append(k)
            return real_read(self, k)

        def deriving(self, k):
            derived.append(k)
            return real_derive(self, k)

        monkeypatch.setattr(_SweepTable, "footprint", reading)
        monkeypatch.setattr(_SweepTable, "_derive", deriving)
        for (m, mode, budget), (_, reads, _, _) in TABLE_CALLS.items():
            read.clear(), derived.clear()
            exact_structure_connectivity(fdsc8, m, mode, budget)
            assert len(derived) == len(set(derived)) == reads, (m, mode, budget)
            assert set(read) <= set(derived)
        assert sum(reads for _, reads, _, _ in TABLE_CALLS.values()) == 5076

    def test_checker_queries_per_call(self, fdsc8, monkeypatch):
        # the sweep asks ``connected`` only about the subsets that neither
        # the bulk split nor ``visit`` decides: 267 over the nine calls,
        # against 39,202 with every overlapping extension queried and 927
        # with those that share two or more modules queried.
        # ``reaches_core``, which ``visit`` asks of the shared modules of
        # each routed extension up to the hit and ``connected`` of each
        # touched module, is called 40,266 times, against 43,244 when every
        # routed extension of the hit's prefix was asked.  Examined and
        # pruned are those of the parent sweep
        calls = {"connected": 0, "reaches_core": 0}
        for name in calls:
            real = getattr(modcheck.ModularChecker, name)

            def counting(self, *args, name=name, real=real):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(modcheck.ModularChecker, name, counting)
        counts = []
        for (m, mode, budget), (_, _, queries, tests) in TABLE_CALLS.items():
            calls.update(connected=0, reaches_core=0)
            result = exact_structure_connectivity(fdsc8, m, mode, budget)
            assert calls == {"connected": queries, "reaches_core": tests}, (m, mode, budget)
            counts.append((result.examined, result.pruned))
        assert sum(queries for _, _, queries, _ in TABLE_CALLS.values()) == 267
        assert sum(tests for _, _, _, tests in TABLE_CALLS.values()) == 40_266
        assert counts == [
            (401_856, 401_856),
            (21_191, 2_143),
            (14_968, 2_368),
            (4_234, 0),
            (48_172, 13_095),
            (86_835, 15_611),
            (107_710, 15_611),
            (111_885, 15_611),
            (6_848, 5_312),
        ]

    def test_stars_only_for_the_certificate(self, fdsc8, monkeypatch):
        # the sweep reads keys; the two stars of the certificate are the
        # only ``Star`` objects the call makes
        made = []
        real = Star.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Star, "__init__", counting)
        result = exact_structure_connectivity(fdsc8, 5, SUBSTRUCTURE, 2)
        assert (result.value, result.candidates) == (2, 6848)
        assert made == result.certificate.elements

    @pytest.mark.slow
    def test_closed_neighborhoods_t3(self, fdsc8, monkeypatch):
        # no three closed neighborhoods (K_{1,5} stars) disconnect FDSC_8;
        # every triple reaches kappa = 5, so none is pruned, and the bulk
        # split and ``visit`` prove every one: the checker is never asked
        # (90,268 times while only one shared module was routed)
        calls = []
        real = modcheck.ModularChecker.connected

        def counting(self, touched):
            calls.append(len(touched))
            return real(self, touched)

        monkeypatch.setattr(modcheck.ModularChecker, "connected", counting)
        result = exact_structure_connectivity(fdsc8, 5, STRUCTURE, 3)
        assert (result.value, result.proven_lower_bound, result.candidates) == (None, 4, 256)
        assert (result.examined, result.pruned) == (2_796_416, 0)
        assert calls == []

    def test_wholly_pruned_levels_are_counted(self, fdsc8, monkeypatch):
        # vertices and edges have at most 2 vertices, so t <= 2 of them
        # never reach kappa = 5: both levels are pruned without a visit, and
        # the table derives no reach mask for bitsets that no level reads
        calls = []
        real = modcheck.ModularChecker.reach

        def counting(self, b, removed_mask):
            calls.append(b)
            return real(self, b, removed_mask)

        monkeypatch.setattr(modcheck.ModularChecker, "reach", counting)
        result = exact_structure_connectivity(fdsc8, 1, SUBSTRUCTURE, 2)
        assert result.examined == result.pruned == 896 + math.comb(896, 2) == 401_856
        assert result.connectivity_checks == 0
        assert calls == []

    def test_level_at_the_bound_is_swept(self, fdsc8):
        # t * max|element| = 1 * 5 = kappa: the five-vertex stars of m = 4
        # reach kappa, so the level is swept and none is pruned
        result = exact_structure_connectivity(fdsc8, 4, STRUCTURE, 1)
        assert (result.value, result.candidates) == (None, 1280)
        assert (result.examined, result.pruned) == (1280, 0)

    @pytest.mark.parametrize(
        "name,m,mode,budget,expected",
        [
            # (value, candidates, examined, pruned, certificate) as the
            # label-list sweep gave them
            ("dsc8", 2, STRUCTURE, 2, (2, 1536, 9673, 1536, [(0, [240, 255]), (79, [143, 207])])),
            ("fdsc4", 1, SUBSTRUCTURE, 3, (2, 48, 215, 146, [(0, [12]), (7, [11])])),
            ("fdsc4", 3, SUBSTRUCTURE, 3, (2, 164, 214, 137, [(0, []), (3, [7, 11])])),
            ("fdsc4", 0, STRUCTURE, 4, (4, 16, 697, 696, [(0, []), (1, []), (2, []), (3, [])])),
        ],
    )
    def test_routes_without_checker(self, name, m, mode, budget, expected, request):
        g = request.getfixturevalue(name)
        assert modcheck.SurvivorCheck(g).checker is None
        _table(g, _candidate_keys(g, m, mode), budget)  # matches ``ref_table``
        result = exact_structure_connectivity(g, m, mode, budget)
        certificate = [(s.center, sorted(s.leaves)) for s in result.certificate.elements]
        assert (
            result.value, result.candidates, result.examined, result.pruned, certificate
        ) == expected


class TestTable:
    def test_component_size_bounds_the_reach(self, fdsc8):
        # the bound that spares the table most ``reach`` calls, on FDSC_8's
        # template: for every removed inner mask of at most 7 labels, every
        # module b, every component M and every module set T holding b with
        # |T| <= 3, the reach mask R of M in module b has
        # |R & ~T| >= |M| - |T|.  T - {b} runs over every subset of the
        # other modules, so the values |R & ~T| over the T of one size are
        # the same for every R with the same |R - {b}|; every T is checked
        # on one (b, R) per class of (|R - {b}|, |M|)
        checker = modcheck.SurvivorCheck(fdsc8).checker
        modules = range(checker.module_count)
        classes = {}
        for size in range(8):
            for removed in itertools.combinations(modules, size):
                mask = sum(1 << x for x in removed)
                comps = checker.components(mask)
                assert comps  # 7 of 16 labels never empty the template
                for b in modules:
                    for comp, r in zip(comps, checker.reach(b, mask), strict=True):
                        key = ((r & ~(1 << b)).bit_count(), comp.bit_count())
                        classes.setdefault(key, (b, r))
        assert len(classes) == 30
        for (_, need), (b, r) in classes.items():
            for size in (1, 2, 3):
                for t in itertools.combinations(modules, size):
                    if b in t:
                        assert (r & ~sum(1 << x for x in t)).bit_count() >= need - size
        # a whole module removed leaves no component and no reach mask: the
        # table counts such a pair's smallest component as 0 labels, so the
        # candidate is in every ``weak`` row
        # (``TestBulkSplit.test_all_modules_touched``)
        whole = (1 << checker.module_count) - 1
        assert checker.components(whole) == ()
        assert all(checker.reach(b, whole) == () for b in modules)

    def test_leaves_in_other_modules(self, fdsc8):
        # keys whose rows hold leaves in two other modules, so a candidate
        # touches three modules, in no particular order and with center 21
        # heading two runs.  Removing inner labels 3, 4, 7, 8, 11 and 12 of
        # module 0 cuts off the component {0, 15} of 2 labels, at most
        # 0 + |T_i| for ``wide`` (3 modules) and, with equality, for
        # ``tight`` (2 modules), so both are weak at w = 0.  ``bare``
        # removes all of module 0, which keeps no component, so it is weak
        # too, although the components of its pairs in modules 3 and 7 all
        # reach outside its modules: ``weak`` marks by the size bound alone
        cut = [48, 64, 112, 128, 176, 192]
        wide = star(21, [*cut, 31])
        tight = star(48, [*cut[1:], 31])
        bare = star(0, [*range(16, 256, 16), 3, 7])
        cands = [star(0x26), wide, bare, star(0x1F), tight, star(21, [31]), star(15)]
        keys = _keys_of(cands)
        for budget in (1, 2, 3):
            table = _table(fdsc8, keys, budget)
            assert table.widest == 3
            assert [k for k in range(len(keys)) if table.weak[0] >> k & 1] == [1, 2, 4]
            plain = _table(fdsc8, keys, budget, use_modular=False)
            for t in range(1, budget + 1):
                assert _sweep(table, t, 5) == _sweep(plain, t, 5)
        assert [b for b in range(16) if table.touches[b] >> 2 & 1] == [0, 3, 7]

    @pytest.mark.parametrize(
        "m,mode,budget", [*TABLE_CALLS, (5, STRUCTURE, 3), (1, SUBSTRUCTURE, 3)]
    )
    def test_no_real_candidate_is_weak(self, m, mode, budget, fdsc8):
        # the tables of the nine calls, of the t = 3 K_{1,5}-structure pin
        # and of the budget-3 K_{1,1}-substructure sweep: every component of
        # every candidate has more than weak_cap + |T_i| labels, so the
        # size bound holds back no candidate, and neither could an exact
        # weakest reach, which is never smaller (``weak`` holds the
        # candidates some component of which is small)
        checker = modcheck.SurvivorCheck(fdsc8).checker
        table = _SweepTable(_candidate_keys(fdsc8, m, mode), fdsc8, checker, budget, 5)
        if (m, mode, budget) == (1, SUBSTRUCTURE, 2):
            assert table.checker is None  # both levels wholly pruned: no bitset
        else:
            assert table.weak and not any(table.weak)

    @pytest.mark.slow
    def test_no_real_candidate_is_weak_n16(self, fdsc16):
        # the K_{1,2}-structure table of FDSC_16 at budget 2 (851,968
        # candidates, kappa 6)
        checker = modcheck.SurvivorCheck(fdsc16).checker
        keys = _candidate_keys(fdsc16, 2, STRUCTURE)
        table = _SweepTable(keys, fdsc16, checker, 2, checker.kappa_lower_bound)
        assert (len(keys), len(table.weak)) == (851_968, 3)
        assert not any(table.weak)

    @pytest.mark.slow
    def test_n16_substructure_call_under_500_mb(self):
        # the n = 16 cross-check's memory gate: the K_{1,6}-substructure
        # t = 1 call over 3,817,472 candidates, graph build included, peaks
        # below 500 MB in a fresh process (about 240 MB on CPython 3.11).
        # The child reads the peak of its own address space (VmHWM):
        # Linux carries the parent's peak into a child's ru_maxrss across
        # fork and exec, so under a large test process that would measure
        # the test process
        if not pathlib.Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for the child's peak")
        code = (
            "import re\n"
            "from fdsc import build_graph, exact_structure_connectivity, make_dim\n"
            "r = exact_structure_connectivity(build_graph(make_dim(4)), 6, 'substructure', 1)\n"
            "peak = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]\n"
            "print(r.candidates, r.value, r.examined, r.pruned, peak)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        *result, peak_kb = proc.stdout.split()
        assert result == ["3817472", "None", "3817472", "3358720"]
        assert int(peak_kb) < 500 * 1024

    @pytest.mark.parametrize("row", [[16, 32, 16], [16, 0, 32]])
    def test_row_with_a_repeat_or_its_center_is_refused(self, row, fdsc8):
        # a key's size is 1 + its leaf count only on a row that holds
        # neither its center nor an entry twice
        keys = _Keys(array("I", [0]), [0b11], {0: row})
        with pytest.raises(ValueError, match="row of center 0"):
            _SweepTable(keys, fdsc8, modcheck.SurvivorCheck(fdsc8).checker, 2, 5)


def _slow_reasons(checker, footprints, prefix, i):
    """Why extension i of ``prefix`` is held for the checker, worked out
    per candidate with sets: an empty set means that ``connected`` proves
    the subset when i shares no module with the prefix, and that
    ``_SweepTable.visit`` tests only the shared modules when it shares
    some.  A shared module's own components are the union's, which
    ``visit`` tests, so no reason is read from the prefix's components
    there.  "weak" is the size bound: some component of i's own has at most
    |T_P| + |T_i| labels, by ``smallest_component``; a candidate that
    leaves a touched module no component is weak."""
    merged = {}
    for k in prefix:
        for b, inner in footprints[k]:
            merged[b] = merged.get(b, 0) | inner
    prefix_modules = sum(1 << b for b in merged)
    own_modules = sum(1 << b for b, _ in footprints[i])
    shared = prefix_modules & own_modules
    reasons = set()
    if (prefix_modules | own_modules).bit_count() >= checker.module_count:
        reasons.add("wide")
    smallest = min(smallest_component(checker, inner) for _, inner in footprints[i])
    if smallest <= len(merged) + len(footprints[i]):
        reasons.add("weak")
    for b, removed in merged.items():
        if shared >> b & 1:
            continue
        for r in checker.reach(b, removed):
            left = r & ~prefix_modules
            if not left:
                reasons.add("no reach left")
            elif not left & ~own_modules:
                reasons.add("covered")
    return reasons


def _visit_agrees(table, prefix, merged, size, held, route, kappa):
    """Check ``_SweepTable.visit`` on ``split``'s ``held`` and ``route``
    bitsets: it yields ascending, only members of ``held | route``, each at
    most once; every member of ``route`` shares some module with the
    prefix; the pass's union size is the recount of the labels (no
    extension is pruned at kappa = the recount, every one at the recount +
    1, asked of the extensions of one recount at once); an extension is
    yielded as pruned iff that is below ``kappa``; otherwise it is yielded
    with the recount's merged footprint, unless it is in ``route`` and
    ``connected``'s fast test passes on that footprint (some module
    untouched, and no ``fails_fast_test``), and then ``connected`` answers
    True.  A member of ``held`` is never proven.  Returns i -> "pruned",
    "proven" or "sent"."""
    checker, keys = table.checker, table.keys
    got = list(table.visit(merged, size, held, route, kappa))
    order = [i for i, _ in got]
    assert order == sorted(set(order)) and all((held | route) >> i & 1 for i in order)
    yielded = dict(got)
    removed = {v for k in prefix for v in keys.vertices(k)}
    by_union = {}  # recount -> bitset of the extensions
    outcomes = {}
    for i in _members(held | route):
        fp = table.footprint(i)
        if route >> i & 1:
            assert set(merged) & {c for c, _ in fp}
        union = len(removed.union(keys.vertices(i)))
        by_union[union] = by_union.get(union, 0) | 1 << i
        if union < kappa:
            assert i in yielded and yielded[i] is None, (prefix, i)
            outcomes[i] = "pruned"
            continue
        touched = dict(merged)
        for c, inner in fp:
            touched[c] = touched.get(c, 0) | inner
        fast = len(touched) < checker.module_count and not fails_fast_test(checker, touched)
        if route >> i & 1 and fast:
            assert i not in yielded, (prefix, i)
            assert checker.connected(touched) is True
            outcomes[i] = "proven"
        else:
            assert i in yielded and yielded[i] == touched, (prefix, i)
            outcomes[i] = "sent"
    for union, bits in by_union.items():
        kept = table.visit(merged, size, bits & held, bits & route, union)
        assert all(fp is not None for _, fp in kept)
        pruned = table.visit(merged, size, bits & held, bits & route, union + 1)
        assert [i for i, fp in pruned if fp is None] == list(_members(bits))
    return outcomes


class TestOverlapRoute:
    """``_SweepTable.visit``, the pass that settles the extensions the bulk
    split holds or routes, against a recount and ``connected`` on the
    FDSC_8 tables (``_visit_agrees`` checks each extension it settles)."""

    @staticmethod
    def agree(fdsc8, keys, t, every=1):
        """Run ``_visit_agrees`` on every ``every``-th (t-1)-prefix of
        ``keys``, on the table built for budget t; return the numbers of
        extensions the pass pruned, proved and sent."""
        table = _table(fdsc8, keys, t)
        decided = {"pruned": 0, "proven": 0, "sent": 0}
        prefixes = itertools.islice(_prefixes(_footprints(table), t), 0, None, every)
        for prefix, merged, size, start in prefixes:
            _, held, route = table.split(merged, size, start, 5)
            for got in _visit_agrees(table, prefix, merged, size, held, route, 5).values():
                decided[got] += 1
        return decided["pruned"], decided["proven"], decided["sent"]

    @pytest.mark.parametrize("m,mode,every", [(2, STRUCTURE, 7), (5, SUBSTRUCTURE, 97)])
    def test_t2_prefixes_sampled(self, m, mode, every, fdsc8):
        pruned, proven, sent = self.agree(fdsc8, _candidate_keys(fdsc8, m, mode), 2, every)
        assert pruned > 0 and proven > 0 and sent > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("m,mode", [(2, STRUCTURE), (5, SUBSTRUCTURE)])
    def test_every_t2_prefix(self, m, mode, fdsc8):
        # every prefix of the budget-2 tables, not only those before the hit
        pruned, proven, sent = self.agree(fdsc8, _candidate_keys(fdsc8, m, mode), 2)
        assert pruned > 0 and proven > 0 and sent > 0

    def test_t3_prefixes(self, fdsc8):
        # the K_{1,2}-structure candidates centered on the closed
        # neighborhood of vertex 149, where cuts are found: every pair
        # prefix
        keys = _candidate_keys(fdsc8, 2, STRUCTURE)
        ball = {149, *fdsc8.adj[149]}
        cands = _pick(keys, [k for k in range(len(keys)) if keys.centers[k] in ball])
        pruned, proven, sent = self.agree(fdsc8, cands, 3)
        assert pruned > 0 and proven > 0 and sent > 0


class TestBulkSplit:
    """Each reason that holds an extension for the checker, and each case of
    the pass over the held and routed extensions, on hand-picked FDSC_8
    families (label (x << 4) | b is inner label x of module b; a family
    member is any vertex set, written as a star, since the sweep reads only
    its vertices).  Removing inner labels 0, 3, 7 and 11 of module 0
    isolates its inner label 15, whose cross edge leads to (0, 15), label
    15, in module 15; so with label 15 removed too, label 240 is cut off."""

    KAPPA = 5

    def split_agrees(self, fdsc8, cands, t):
        """Compare the split with ``_slow_reasons`` for every prefix and
        extension, on a table built for budget t and on one built for budget
        3, and check ``visit`` on the extensions held or routed
        (``_visit_agrees``); compare the sweep on both tables with the
        census-only route.  Returns the reasons met and the outcome of each
        extension ``visit`` settles, both by (prefix, extension), and the
        sweep's result."""
        keys = _keys_of(cands)
        table, wide = _table(fdsc8, keys, t), _table(fdsc8, keys, 3)
        checker, footprints = table.checker, _footprints(table)
        met, settled = {}, {}
        for prefix, merged, size, start in _prefixes(footprints, t):
            pruned, held, route = table.split(merged, size, start, self.KAPPA)
            assert wide.split(merged, size, start, self.KAPPA) == (pruned, held, route)
            outcomes = _visit_agrees(table, prefix, merged, size, held, route, self.KAPPA)
            for i in range(start, len(cands)):
                reasons = _slow_reasons(checker, footprints, prefix, i)
                common = set(merged) & {b for b, _ in footprints[i]}
                small = not common and size + len(cands[i].vertices) < self.KAPPA
                assert (pruned >> i & 1, held >> i & 1, route >> i & 1) == (
                    small,
                    bool(reasons) and not small,
                    bool(common) and not reasons,
                )
                met[prefix, i] = reasons
                if i in outcomes:
                    settled[prefix, i] = outcomes[i]
        hit = _sweep(table, t, self.KAPPA)
        assert hit == _sweep(wide, t, self.KAPPA)
        assert hit == _sweep(_table(fdsc8, keys, t, use_modular=False), t, self.KAPPA)
        return met, settled, hit

    def test_shared_module(self, fdsc8):
        # the two stars share module 0 alone: ``visit`` proves them
        met, settled, hit = self.split_agrees(
            fdsc8, [star(0x10, [0x50]), star(0x20, [0x60, 0x70])], 2
        )
        assert met[(0,), 1] == set() and settled == {((0,), 1): "proven"}
        assert hit == (None, 1, 0)

    def test_two_shared_modules(self, fdsc8):
        # the two stars share modules 0 and 1: ``visit`` proves them
        met, settled, hit = self.split_agrees(
            fdsc8, [star(0x10, [0x51]), star(0x20, [0x30, 0x61])], 2
        )
        assert met[(0,), 1] == set() and settled == {((0,), 1): "proven"}
        assert hit == (None, 1, 0)

    def test_second_shared_module_fails(self, fdsc8):
        # the stars share modules 2 and 5; together they remove inner labels
        # 0, 3, 7 and 11 of module 5, which isolates its inner label 15,
        # whose partner, label 0x5F in module 15, the extension removes.
        # Module 2, first in the extension's footprint and the lower, passes;
        # module 5 fails, so ``visit`` sends it to the checker and the
        # census finds the cut
        cands = [star(0x12, [0x05, 0x35]), star(0x22, [0x75, 0xB5, 0x5F])]
        met, settled, hit = self.split_agrees(fdsc8, cands, 2)
        assert met[(0,), 1] == set() and settled == {((0,), 1): "sent"}
        assert hit == ((0, 1), 1, 0)

    def test_prune_on_two_overlaps(self, fdsc8):
        # the stars meet in label 0x10 of module 0 and label 0x01 of module
        # 1: their union has 3 + 3 - 2 = 4 labels, below kappa, and only
        # with both overlaps subtracted
        met, settled, hit = self.split_agrees(
            fdsc8, [star(0x10, [0x01, 0x20]), star(0x01, [0x10, 0x30])], 2
        )
        assert met[(0,), 1] == set() and settled == {((0,), 1): "pruned"}
        assert hit == (None, 1, 1)

    def test_prefix_component_with_no_reach_left(self, fdsc8):
        # the prefix isolates inner label 15 of module 0 and touches module
        # 15 itself: the component has no reach outside the prefix, so no
        # disjoint extension is proven; label 15 completes the cut
        cands = [star(0, [255]), star(48, [112, 176]), star(0x21), star(0x52, [0x12]), star(15)]
        met, settled, hit = self.split_agrees(fdsc8, cands, 3)
        assert met[(0, 1), 2] == met[(0, 1), 3] == {"no reach left"}
        assert met[(0, 1), 4] == {"no reach left"}
        assert hit[0] == (0, 1, 4)

    def test_prefix_mask_covered_by_one_candidate(self, fdsc8):
        # the same isolated inner label 15, whose reach, module 15, is
        # outside the prefix: it fails only for the extensions in module 15
        cands = [star(0, [64]), star(48, [112, 176]), star(0x21), star(0x1F), star(15)]
        met, settled, hit = self.split_agrees(fdsc8, cands, 3)
        assert met[(0, 1), 2] == set()
        assert met[(0, 1), 3] == met[(0, 1), 4] == {"covered"}
        assert hit[0] == (0, 1, 4)

    def test_weak_candidate(self, fdsc8):
        # no star of FDSC_8 cuts its own module, so the weak extension is a
        # vertex set: it isolates inner label 15 of module 0, a component of
        # 1 label, at most |T_P| + |T_i| for any prefix.  The split holds it
        # and ``visit`` sends it to the checker.  The last extension is
        # pruned in bulk, after the hit: it is not counted
        cut_off = star(0, [48, 112, 176])
        met, settled, hit = self.split_agrees(
            fdsc8, [star(0x15), star(15), cut_off, star(0x26)], 2
        )
        assert met[(0,), 2] == met[(1,), 2] == {"weak"}
        assert settled == {((0,), 2): "sent", ((1,), 2): "sent"}
        assert hit[0] == (1, 2)

    def test_overlap_with_a_weak_component_elsewhere(self, fdsc8):
        # the extension shares module 5 with the prefix and cuts off inner
        # label 15 of module 0, whose partner, label 15, the prefix removes:
        # weak, so the split holds it, ``visit`` sends it to the checker
        # and the census finds the cut
        cands = [star(15, [0x25]), star(0, [48, 112, 176, 0x15])]
        met, settled, hit = self.split_agrees(fdsc8, cands, 2)
        assert met[(0,), 1] == {"weak"} and settled == {((0,), 1): "sent"}
        assert hit == ((0, 1), 1, 0)

    def test_overlap_with_a_prefix_mask_elsewhere(self, fdsc8):
        # the prefix cuts off inner label 15 of module 0 and shares module 5
        # with the extension, which removes the partner, label 15: a prefix
        # mask of module 0 fails on it, so the split holds it, ``visit``
        # sends it to the checker and the census finds the cut
        cands = [star(0, [48, 112, 176, 0x25]), star(15, [0x15])]
        met, settled, hit = self.split_agrees(fdsc8, cands, 2)
        assert met[(0,), 1] == {"covered"} and settled == {((0,), 1): "sent"}
        assert hit == ((0, 1), 1, 0)

    def test_prefix_mask_of_a_shared_module(self, fdsc8):
        # the prefix cuts off inner label 15 of module 0, whose reach,
        # module 15, the extension touches; but the extension shares module
        # 0 and removes that label itself, so module 0 is tested on the
        # union, not on the prefix's mask: ``visit`` proves it
        cands = [star(0, [48, 112, 176]), star(0xF0, [0x1F])]
        met, settled, hit = self.split_agrees(fdsc8, cands, 2)
        assert met[(0,), 1] == set() and settled == {((0,), 1): "proven"}
        assert hit == (None, 1, 0)

    def test_overlap_through_the_apex_edge(self, fdsc8):
        # the prefix and the extension remove all of module 3 but inner
        # labels 3 and 5, which are not adjacent, and each alone leaves
        # module 3 large components, so neither is weak.  The component {3} reaches
        # module ~3 = 0xC only, through the apex edge to (0xC, 0xC), label
        # 0xCC: ``visit`` proves the union while module 0xC is untouched,
        # and leaves it to the checker once the prefix removes label 0xCC,
        # where the census finds the cut
        half = [(x << 4) | 3 for x in (7, 9, 10, 11, 13, 14, 15)]
        rest = [(x << 4) | 3 for x in (0, 1, 2, 4, 6, 8, 12)]
        cands = [star(half[0], half[1:]), star(half[0], [*half[1:], 0xCC]), star(rest[0], rest[1:])]
        met, settled, hit = self.split_agrees(fdsc8, cands, 2)
        assert settled == {((0,), 1): "proven", ((0,), 2): "proven", ((1,), 2): "sent"}
        assert hit == ((1, 2), 3, 0)

    def test_route_prune_after_the_hit_is_not_counted(self, fdsc8):
        # the prefix cuts off inner label 15 of module 0, the second star
        # completes the cut (held: a prefix mask fails on it), and the third
        # lies inside the prefix: ``visit`` prunes it, after the hit, so it
        # is not counted
        cands = [star(0, [48, 112, 176]), star(15), star(0)]
        met, settled, hit = self.split_agrees(fdsc8, cands, 2)
        assert settled == {((0,), 1): "sent", ((0,), 2): "pruned"}
        assert hit == ((0, 1), 1, 0)

    def test_all_modules_touched(self, fdsc8):
        # a prefix on modules 1..15 and an extension in module 0 touch every
        # module, so the checker abstains.  Then the extension is weak: a
        # component of its own has fewer than 16 <= |T_P| + |T_i| labels,
        # or it keeps none; here the prefix removes all of modules 1..15,
        # and an extension that removes all of module 0 keeps no component,
        # whether it shares module 1 with the prefix or no module.  The
        # split holds it and ``visit`` sends it to the checker, as it does
        # the weak extension that empties module 0 after the prefix that
        # empties it too.  (Only the pairs within modules 0 and 1, which
        # miss every other module, are proven)
        rest = star(1, [v for v in range(2, 256) if v & 15])
        whole_module = star(0, range(16, 256, 16))
        and_one = star(0, [*range(16, 256, 16), 1])
        met, settled, hit = self.split_agrees(fdsc8, [rest, and_one, whole_module, star(0x20)], 2)
        assert met[(0,), 1] == met[(0,), 2] == met[(0,), 3] == {"wide", "weak"}
        assert met[(1,), 2] == {"weak"}
        assert settled == {
            ((0,), 1): "sent",
            ((0,), 2): "sent",
            ((0,), 3): "sent",
            ((1,), 2): "sent",
            ((1,), 3): "proven",
            ((2,), 3): "proven",
        }
        # nothing survives the first pair, which the census counts as cut
        assert hit == ((0, 1), 1, 0)

    def test_members(self):
        assert list(_members(0)) == []
        assert list(_members(0b1011 << 70)) == [70, 71, 73]


@pytest.mark.parametrize("mode", [STRUCTURE, SUBSTRUCTURE])
@pytest.mark.parametrize("d", [1, 2])
def test_monotone_in_budget(d, mode, fdsc2, fdsc4):
    """For every pattern order m <= d + 2 and every pair of budgets
    b < b' up to d + 4 (beyond every value there): the proven lower bound
    and the examined count never decrease, and once a value is found the
    larger budget returns the same value and certificate."""
    g = fdsc2 if d == 1 else fdsc4
    for m in range(d + 3):
        results = [exact_structure_connectivity(g, m, mode, b) for b in range(1, d + 5)]
        assert results[-1].value is not None
        for small, large in itertools.combinations(results, 2):
            assert small.proven_lower_bound <= large.proven_lower_bound
            assert small.examined <= large.examined
            if small.value is not None:
                assert large.value == small.value
                assert large.certificate.elements == small.certificate.elements


class TestRelations:
    def test_substructure_never_above_structure(self, fdsc2, fdsc4):
        for g, max_m in ((fdsc2, 2), (fdsc4, 3)):
            for m in range(1, max_m + 1):
                ks = exact_structure_connectivity(g, m, SUBSTRUCTURE, 3).value
                k = exact_structure_connectivity(g, m, STRUCTURE, 3).value
                assert ks is not None and k is not None
                assert ks <= k

    def test_m_independence_n4(self, fdsc4):
        values = {
            exact_structure_connectivity(fdsc4, m, STRUCTURE, 3).value for m in (2, 3)
        }
        assert values == {2}

    def test_m_independence_n8(self, fdsc8):
        # the exact value does not move with the pattern order
        values = {
            exact_structure_connectivity(fdsc8, m, STRUCTURE, 2).value
            for m in (2, 3, 4)
        }
        assert values == {2}

    def test_pattern_nesting_n4(self, fdsc4):
        values = [
            exact_structure_connectivity(fdsc4, m, SUBSTRUCTURE, 3).value
            for m in (1, 2, 3, 4)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestReferenceValues:
    def test_table(self):
        assert reference_value(3, 0, STRUCTURE) == 5
        assert reference_value(1, 1, STRUCTURE) == 2
        assert reference_value(2, 1, SUBSTRUCTURE) == 2
        assert reference_value(3, 1, STRUCTURE) == 4
        assert reference_value(6, 1, STRUCTURE) == 7
        assert reference_value(3, 2, STRUCTURE) == 2
        assert reference_value(6, 7, STRUCTURE) == 4
        assert reference_value(3, 5, SUBSTRUCTURE) == 2
        assert reference_value(3, 5, STRUCTURE) is None
        assert reference_value(3, 9, SUBSTRUCTURE) is None


class TestRemovalCheck:
    def test_small_exhaustive_holds(self, fdsc8):
        # the exhaustive removal check is the K_{1,1}-substructure oracle
        # over 896 = 256 vertices + 640 edges
        for budget in (1, 2):
            result = exact_structure_connectivity(fdsc8, 1, SUBSTRUCTURE, budget)
            assert result.candidates == 896
            assert result.value is None
            assert result.examined == sum(math.comb(896, t) for t in range(1, budget + 1))

    def test_exhaustive_certificate_n4(self, fdsc4):
        # no feasible d >= 3 call reaches a hit (FDSC_8 needs t = 4), so the
        # first disconnecting mix is pinned at n = 4: two edges
        family = exact_structure_connectivity(fdsc4, 1, SUBSTRUCTURE, 2).certificate
        assert [(s.center, s.leaves) for s in family.elements] == [(0, {12}), (7, {11})]

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, fdsc8, budget):
        with pytest.raises(ParameterError):
            check_vertex_edge_removals(fdsc8, 10, budget=budget)

    def test_budget_above_vertex_count_rejected(self, fdsc8):
        with pytest.raises(ParameterError, match="vertex count"):
            check_vertex_edge_removals(fdsc8, 50, budget=300)

    def test_seeded_draws_are_families(self, fdsc8, monkeypatch):
        # every draw is reported when nothing survives; these are the mixes
        # seed 42 has always drawn, so the generator's call order is pinned
        monkeypatch.setattr(modcheck.SurvivorCheck, "connected", lambda self, removed: False)
        report = check_vertex_edge_removals(fdsc8, 3, seed=42, budget=3)
        assert [[(s.center, s.leaves) for s in f.elements] for f in report.violations] == [
            [(5, {69}), (51, {179}), (57, {185})],
            [(71, set()), (21, {69}), (147, {211})],
            [(6, {134}), (101, {149}), (179, {227})],
        ]
        for family in report.violations:
            assert len(family) == 3
            assert validate_family(family, fdsc8.dim) == (True, None)

    def test_sample_holds_and_deterministic(self, fdsc8):
        a = check_vertex_edge_removals(fdsc8, 2000, seed=42)
        b = check_vertex_edge_removals(fdsc8, 2000, seed=42)
        assert a.holds and b.holds
        assert a.checked == b.checked == 2000
        assert a.seed == 42 and a.generator

    def test_small_d_rejected(self, fdsc4):
        with pytest.raises(ParameterError):
            check_vertex_edge_removals(fdsc4, 10)

    def test_plain_variant_rejected(self, dsc8):
        with pytest.raises(ParameterError):
            check_vertex_edge_removals(dsc8, 10)


class TestSuperCutProbe:
    def test_exhaustive_n4(self, fdsc4):
        report = super_cut_probe(fdsc4, "exhaustive")
        assert report.holds
        assert report.checked == 696  # C(16,1) + C(16,2) + C(16,3)
        assert report.notes == {"connectivity_method": "plain component search"}

    def test_sample_n8(self, fdsc8):
        report = super_cut_probe(fdsc8, "sample", sample_count=2000, seed=0)
        assert report.holds
        assert report.budget == 5
        assert report.notes == {"connectivity_method": modcheck.SurvivorCheck(fdsc8).method}

    def test_neighborhood_removal_isolates_not_violates(self, fdsc4):
        # removing a full neighborhood disconnects, but with an isolated
        # vertex, which the probe predicate permits
        removed = tuple(fdsc4.adj[0])
        census = components_after_removal(fdsc4, removed)
        assert census.component_count == 2
        assert census.component_sizes[-1] == 1
        report = super_cut_probe(fdsc4, "exhaustive")
        assert report.holds

    def test_exhaustive_cap(self, fdsc8):
        with pytest.raises(ParameterError):
            super_cut_probe(fdsc8, "exhaustive")

    def test_violations_are_vertex_only_removals(self):
        # no FDSC or DSC call that can run reaches a violation, so the
        # probe runs on two 8-cliques joined by the edge 7 -- 8
        halves = (range(8), range(8, 16))
        adj = [[v for v in half if v != u] for half in halves for u in half]
        adj[7].append(8)
        adj[8].append(7)
        g = Graph(dim=make_dim(2), variant=FDSC, adj=adj)
        report = super_cut_probe(g, "exhaustive")
        assert not report.holds
        assert report.checked == 696
        assert [[s.center for s in v.elements] for v in report.violations[:2]] == [[7], [8]]
        for v in report.violations:
            assert (v.pattern_m, v.mode) == (0, STRUCTURE)
            assert all(not s.leaves for s in v.elements)
            census = components_after_removal(g, v.vertex_union())
            assert census.component_count >= 2
            assert census.component_sizes[-1] >= 2

    def test_bad_mode(self, fdsc4):
        with pytest.raises(ParameterError):
            super_cut_probe(fdsc4, "adaptive")
