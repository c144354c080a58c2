import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsc import ParameterError, components_after_removal, make_dim, modcheck, vertex_connectivity
from fdsc.labels import DSC, FDSC, external_neighbor, neighbor_set
from fdsc.modcheck import (
    ModularChecker,
    SurvivorCheck,
    footprint,
    modular_checker,
    module_induction_bound,
)
from refimpl import fails_fast_test


D3 = make_dim(3)


@pytest.fixture(scope="module")
def survivor8(fdsc8):
    return SurvivorCheck(fdsc8)


@pytest.fixture(scope="module")
def checker8(survivor8):
    return survivor8.checker


def plain_connected(g, removed):
    census = components_after_removal(g, removed)
    return census.component_count == 1 and census.surviving > 1


def proves(check, removed):
    """The checker's answer on a label list, given as its footprint."""
    return check.checker.connected(footprint(removed, check.g.dim))


def census_verdict(check, removed):
    """The census verdict, after asserting the checker's contract: it never
    answers False; when every module is touched it answers None; otherwise
    it answers True exactly where the census says connected, and None on
    every disconnecting removal.  ``SurvivorCheck`` returns the census
    verdict."""
    plain = plain_connected(check.g, removed)
    fast = proves(check, removed)
    if len(footprint(removed, check.g.dim)) >= check.checker.module_count:
        assert fast is None, sorted(removed)
    else:
        assert fast is (True if plain else None), sorted(removed)
    assert check.connected(removed) == plain, sorted(removed)
    return plain


def closed_modules(mods, dim):
    """Every vertex of the modules ``mods`` (all but the last) whose partner
    lies outside ``mods``: no component left in those modules reaches an
    untouched module by its own cross edges, so each passes only through
    partner edges into the other touched modules."""
    half, low = dim.half, dim.module_mask
    return {
        v
        for b in mods[:-1]
        for v in ((x << half) | b for x in range(1 << half))
        if external_neighbor(v, dim) & low not in mods
    }


class TestConstruction:
    def test_too_small(self):
        with pytest.raises(ParameterError):
            ModularChecker(make_dim(2))

    def test_builds_n16(self):
        assert ModularChecker(make_dim(4)).kappa_lower_bound == 6

    def test_one_checker_per_dimension(self, fdsc8, survivor8):
        assert SurvivorCheck(fdsc8).checker is survivor8.checker is modular_checker(D3)
        assert modular_checker(make_dim(4)) is not survivor8.checker


@pytest.mark.parametrize("d,variant", [(2, FDSC), (3, DSC), (3, FDSC), (4, FDSC)])
def test_footprint_splits_labels(d, variant):
    """On random star families, repeats included, a footprint names each
    removed label once, as inner label x of module b with label (x, b) =
    (x << half) | b: its popcounts sum to the number of distinct labels,
    and merging the stars' footprints gives the family's."""
    dim = make_dim(d)
    rng = random.Random(d)
    for _ in range(200):
        stars = []
        for _ in range(rng.randint(1, 4)):
            center = rng.randrange(1 << dim.n)
            nbrs = neighbor_set(center, dim, variant)
            stars.append([center, *rng.sample(nbrs, rng.randint(0, len(nbrs)))])
        vertices = [v for s in stars for v in s]
        fp = footprint(vertices, dim)
        assert sum(inner.bit_count() for inner in fp.values()) == len(set(vertices))
        decoded = {
            (x << dim.half) | b
            for b, inner in fp.items()
            for x in range(1 << dim.half)
            if inner >> x & 1
        }
        assert decoded == set(vertices)
        merged = {}
        for s in stars:
            for b, inner in footprint(s, dim).items():
                merged[b] = merged.get(b, 0) | inner
        assert merged == fp


class TestModuleInductionBound:
    @pytest.mark.parametrize(
        "template_kappa,template_size,module_count,bound",
        [
            (4, 16, 16, 5),  # n = 8: template FDSC_4
            (5, 256, 256, 6),  # n = 16: template FDSC_8
            (3, 4, 4, None),  # n = 4: M - 1 = 3 = kappa(FDSC_2)
            (3, 4, 5, 4),  # one more module would do
            (3, 3, 16, None),  # |T| = kappa(T) is not a connectivity
            (0, 16, 16, None),  # a disconnected template proves nothing
        ],
    )
    def test_preconditions(self, template_kappa, template_size, module_count, bound):
        assert module_induction_bound(template_kappa, template_size, module_count) == bound

    def test_agrees_with_flow_n8(self, checker8, fdsc8):
        assert vertex_connectivity(checker8.template) == 4
        assert checker8.kappa_lower_bound == vertex_connectivity(fdsc8) == 5


class TestAgainstPlainSearch:
    def test_random_removals_n8(self, checker8, fdsc8):
        # the checker must not abstain too often: at most 10 removed
        # vertices leave a module intact, so it proves every connected
        # survivor graph, and it abstains on the rest
        rng = random.Random(1234)
        proved = 0
        for _ in range(1500):
            size = rng.randint(0, 10)
            removed = rng.sample(range(256), size)
            plain = plain_connected(fdsc8, removed)
            assert checker8.connected(footprint(removed, D3)) is (True if plain else None), removed
            proved += plain
        assert proved > 1400

    def test_neighborhood_removals_disconnect(self, survivor8):
        # the checker abstains on every isolated hub; the census says no
        for u in range(0, 256, 17):
            removed = list(survivor8.g.adj[u])
            assert proves(survivor8, removed) is None
            assert census_verdict(survivor8, removed) is False

    def test_concentrated_removals(self, survivor8):
        # stress in-module fragmentation: wipe most of one module plus extras
        rng = random.Random(99)
        for _ in range(300):
            base = rng.randrange(16)
            inner = rng.sample(range(16), rng.randint(8, 14))
            removed = [(x << 4) | base for x in inner]
            removed += rng.sample(range(256), rng.randint(0, 4))
            census_verdict(survivor8, removed)

    def test_adversarial_fragmentation(self, survivor8):
        # fragment a few modules heavily and knock out cross partners of
        # their survivors, so the checker proves some queries and abstains
        # on others; both census verdicts occur
        rng = random.Random(2024)
        verdicts = {True: 0, False: 0}
        for _ in range(2000):
            mods = rng.sample(range(16), rng.randint(2, 3))
            removed = set()
            for b in mods:
                for x in rng.sample(range(16), rng.randint(6, 13)):
                    removed.add((x << 4) | b)
            for b in mods:
                for x in range(16):
                    v = (x << 4) | b
                    if v not in removed and rng.random() < 0.2:
                        removed.add(external_neighbor(v, D3))
            verdicts[census_verdict(survivor8, removed)] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_apex_edge_is_the_only_link(self, survivor8):
        # module b keeps only (b, b), whose one cross edge is the apex edge to
        # (~b, ~b); module ~b is touched, so the fast test fails, and the
        # checker follows the apex edge to the component of ~b that holds
        # ~b, which reaches the core
        b = 0x3
        removed = {(x << 4) | b for x in range(16) if x != b} | {(0x0 << 4) | 0xC}
        assert proves(survivor8, removed) is True
        assert census_verdict(survivor8, removed) is True
        # with (~b, ~b) removed the apex edge is gone, (b, b) is cut off, and
        # the checker abstains
        removed.add((0xC << 4) | 0xC)
        assert proves(survivor8, removed) is None
        assert census_verdict(survivor8, removed) is False

    def test_apex_edge_to_an_intact_module_proves(self, survivor8):
        # the same lone (b, b), but with ~b intact: the apex edge reaches the
        # core, so the checker itself proves connectivity
        b = 0x3
        removed = {(x << 4) | b for x in range(16) if x != b}
        assert proves(survivor8, removed) is True
        assert census_verdict(survivor8, removed) is True

    def test_slow_route(self, survivor8):
        # "closed" modules lose every vertex whose partner lies outside the
        # touched modules, so no closed component passes the fast test; one
        # "open" module keeps a route to the intact core that the closed
        # components may or may not reach.  The checker decides on the
        # component graph: True exactly where the census says connected
        rng = random.Random(77)
        verdicts = {True: 0, False: 0}
        for _ in range(1000):
            mods = rng.sample(range(16), rng.randint(3, 6))
            removed = closed_modules(mods, D3)
            removed |= {v for v in range(256) if v & 15 in mods and rng.random() < 0.1}
            removed |= {(x << 4) | mods[-1] for x in rng.sample(range(16), 3)}
            assert fails_fast_test(survivor8.checker, footprint(removed, D3))
            verdicts[census_verdict(survivor8, removed)] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_matches_census_on_module_removals_n8(self, survivor8):
        """Removals drawn per module: a set of touched modules, all 16
        included, and a mask of removed inner labels for each, dense or
        sparse, sometimes after the closed-module construction of
        ``test_slow_route``.  ``connected`` is None when every module is
        touched and otherwise True exactly where the census says
        connected; both verdicts occur on queries that fail the fast
        test."""
        masks = st.one_of(
            st.integers(0, 0xFFFF),
            st.lists(st.integers(0, 15), max_size=3).map(lambda xs: sum(1 << x for x in xs)),
        )
        linked = {True: 0, False: 0}

        @st.composite
        def module_removals(draw):
            mods = draw(st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True))
            removed = closed_modules(mods, D3) if draw(st.booleans()) else set()
            for b in mods:
                mask = draw(masks)
                removed.update((x << 4) | b for x in range(16) if mask >> x & 1)
            return removed

        @settings(max_examples=400, derandomize=True, deadline=None)
        @given(module_removals())
        def agrees(removed):
            plain = census_verdict(survivor8, removed)
            touched = footprint(removed, D3)
            if len(touched) < 16 and fails_fast_test(survivor8.checker, touched):
                linked[plain] += 1

        agrees()
        assert linked[True] > 0 and linked[False] > 0

    def test_closed_modules_n16(self, fdsc16):
        # the closed-module construction at n = 16: a closed module keeps
        # only the vertices whose partners lie in the touched modules, so
        # the fast test fails, and the component graph decides both ways
        check = SurvivorCheck(fdsc16)
        dim = fdsc16.dim
        rng = random.Random(16)
        verdicts = {True: 0, False: 0}
        for _ in range(12):
            mods = rng.sample(range(256), rng.randint(2, 4))
            removed = closed_modules(mods, dim)
            removed |= {(x << 8) | b for b in mods for x in rng.sample(range(256), 3)}
            assert fails_fast_test(check.checker, footprint(removed, dim))
            verdicts[census_verdict(check, removed)] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_spot_checks_n16(self, fdsc16):
        check = SurvivorCheck(fdsc16)
        rng = random.Random(5)
        for _ in range(25):
            removed = rng.sample(range(65536), rng.randint(0, 9))
            assert proves(check, removed) is True
            assert census_verdict(check, removed) is True
        # a full neighborhood disconnects by isolating its hub
        removed = list(fdsc16.adj[12345])
        assert proves(check, removed) is None
        assert census_verdict(check, removed) is False

    def test_empty_removal(self, checker8):
        assert checker8.connected({}) is True

    def test_reach_moves_the_apex_bit(self, checker8):
        # module b = 0x3 keeps inner labels b and 5, which are not adjacent:
        # the component {b} reaches module ~b = 0xc through the apex edge,
        # and the component {5} reaches module 5 only
        b, everything = 0x3, (1 << 16) - 1
        assert 5 not in checker8.template.adj[b]
        assert checker8.reach(b, everything ^ (1 << b) ^ (1 << 5)) == (1 << 0xC, 1 << 5)
        # intact, the module is one component, which loses bit b and gains
        # bit ~b (held already)
        assert checker8.reach(b, 0) == (everything ^ (1 << b),)

    def test_reaches_core_reads_the_reach_masks(self, checker8):
        # the per-module fast test holds iff every reach mask of module b
        # minus the removed mask meets a module outside the touched set:
        # on random removals and touched sets holding b, and on module 3
        # kept at inner labels 3 and 5, whose component {3} reaches module
        # 0xC only, through the apex edge
        rng = random.Random(27)
        cases = []
        for _ in range(2000):
            b = rng.randrange(16)
            removed = sum(1 << x for x in rng.sample(range(16), rng.randint(0, 16)))
            tmask = 1 << b | sum(1 << x for x in rng.sample(range(16), rng.randint(0, 15)))
            cases.append((b, removed, tmask))
        apex = (1 << 16) - 1 ^ (1 << 3) ^ (1 << 5)
        cases += [(3, apex, 1 << 3), (3, apex, 1 << 3 | 1 << 0xC), (3, apex, 1 << 3 | 1 << 5)]
        got = [checker8.reaches_core(*case) for case in cases]
        assert got == [all(r & ~t for r in checker8.reach(b, m)) for b, m, t in cases]
        assert got[-3:] == [True, False, False]
        assert got.count(True) > 100 and got.count(False) > 100


def test_capped_cache_gives_the_same_answers(checker8, monkeypatch):
    # with the component cache cleared every few entries, reach masks and
    # verdicts are those of the shared checker, whose cache never fills at
    # n = 8; the closed-module queries fail the fast test and touch up to
    # six modules, so the cache is cleared while one query is decided on
    # its component graph
    rng = random.Random(8)
    queries = [footprint(rng.sample(range(256), rng.randint(0, 12)), D3) for _ in range(300)]
    linked = []
    for _ in range(300):
        mods = rng.sample(range(16), rng.randint(3, 6))
        removed = closed_modules(mods, D3)
        removed |= {v for v in range(256) if v & 15 in mods and rng.random() < 0.1}
        if fails_fast_test(checker8, footprint(removed, D3)):
            linked.append(footprint(removed, D3))
    queries += linked
    expected = [checker8.connected(q) for q in queries]
    assert expected[300:].count(True) > 50 and expected[300:].count(None) > 50
    monkeypatch.setattr(modcheck, "_CACHE_SOFT_CAP", 3)
    capped = ModularChecker(D3)
    assert [capped.connected(q) for q in queries] == expected
    assert len(capped._comp_cache) <= 4
    pairs = [pair for q in queries for pair in q.items()]
    assert [capped.reach(*pair) for pair in pairs] == [checker8.reach(*pair) for pair in pairs]


@pytest.mark.parametrize("name", ["fdsc4", "fdsc8", "dsc8"])
def test_survivor_check_matches_census(name, request):
    g = request.getfixturevalue(name)
    check = SurvivorCheck(g)
    # the checker models FDSC_n only, and needs n >= 8
    assert (check.checker is not None) == (name == "fdsc8")
    size = g.vertex_count
    # even-weight vertices: half of every module, so none is intact
    every_other = [v for v in range(size) if v.bit_count() % 2 == 0]
    if check.checker is not None:
        assert proves(check, every_other) is None
    for removed in ([], list(range(1, size)), list(g.adj[0]), every_other):
        assert check.connected(removed) == plain_connected(g, removed), removed

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, size - 1), max_size=24))
    def agrees(removed):
        assert check.connected(removed) == plain_connected(g, removed)

    agrees()


def test_survivor_check_matches_census_n16(fdsc16):
    """On removals inside a few modules of FDSC_16 (a label's low byte is
    its module, the high byte its inner label), from a handful of vertices
    up to heavy fragmentation, sometimes with a whole neighborhood so that
    both verdicts occur, the checker proves or abstains, never contradicts
    the plain census, and ``SurvivorCheck`` returns the census verdict."""
    check = SurvivorCheck(fdsc16)
    verdicts = {True: 0, False: 0}

    @st.composite
    def few_module_removals(draw):
        removed = set()
        for module in draw(st.lists(st.integers(0, 255), min_size=1, max_size=3, unique=True)):
            inner = draw(st.lists(st.integers(0, 255), max_size=draw(st.sampled_from((8, 200)))))
            removed.update((x << 8) | module for x in inner)
        if draw(st.booleans()):
            removed.update(fdsc16.adj[draw(st.integers(0, 65535))])
        return sorted(removed)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(few_module_removals())
    def agrees(removed):
        verdicts[census_verdict(check, removed)] += 1

    agrees()
    assert verdicts[True] > 0 and verdicts[False] > 0
