import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsc import ParameterError, components_after_removal, make_dim, vertex_connectivity
from fdsc.labels import external_neighbor
from fdsc.modcheck import ModularChecker, SurvivorCheck, module_induction_bound


D3 = make_dim(3)


@pytest.fixture(scope="module")
def checker8():
    return ModularChecker(D3)


def plain_connected(g, removed):
    census = components_after_removal(g, removed)
    return census.component_count == 1 and census.surviving > 1


class TestConstruction:
    def test_too_small(self):
        with pytest.raises(ParameterError):
            ModularChecker(make_dim(2))

    def test_builds_n16(self):
        assert ModularChecker(make_dim(4)).kappa_lower_bound == 6


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
        rng = random.Random(1234)
        undecided = 0
        for _ in range(1500):
            size = rng.randint(0, 10)
            removed = rng.sample(range(256), size)
            fast = checker8.connected(removed)
            if fast is None:
                undecided += 1
                continue
            assert fast == plain_connected(fdsc8, removed), removed
        assert undecided == 0

    def test_neighborhood_removals_disconnect(self, checker8, fdsc8):
        for u in range(0, 256, 17):
            removed = list(fdsc8.adj[u])
            assert checker8.connected(removed) is False
            assert not plain_connected(fdsc8, removed)

    def test_concentrated_removals(self, checker8, fdsc8):
        # stress in-module fragmentation: wipe most of one module plus extras
        rng = random.Random(99)
        for _ in range(300):
            base = rng.randrange(16)
            inner = rng.sample(range(16), rng.randint(8, 14))
            removed = [(x << 4) | base for x in inner]
            removed += rng.sample(range(256), rng.randint(0, 4))
            fast = checker8.connected(set(removed))
            if fast is None:
                continue
            assert fast == plain_connected(fdsc8, set(removed)), removed

    def test_adversarial_fragmentation(self, checker8, fdsc8):
        # fragment a few modules heavily and knock out cross partners of
        # their survivors, so both the fast path and the union-find over
        # component-to-component links answer; both verdicts occur
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
            fast = checker8.connected(removed)
            assert fast is not None
            assert fast == plain_connected(fdsc8, removed), sorted(removed)
            verdicts[fast] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_apex_edge_is_the_only_link(self, checker8, fdsc8):
        # module b keeps only (b, b), whose one cross edge is the apex edge to
        # (~b, ~b); module ~b is touched, so only the union-find can decide
        b = 0x3
        removed = {(x << 4) | b for x in range(16) if x != b} | {(0x0 << 4) | 0xC}
        assert checker8.connected(removed) is True
        assert plain_connected(fdsc8, removed)
        removed.add((0xC << 4) | 0xC)
        assert checker8.connected(removed) is False
        assert not plain_connected(fdsc8, removed)

    def test_slow_route(self, checker8, fdsc8):
        # "closed" modules lose every vertex whose partner lies outside the
        # touched modules, so no closed component passes the fast path; one
        # "open" module keeps a route to the intact core that the closed
        # components may or may not reach
        rng = random.Random(77)
        verdicts = {True: 0, False: 0}
        for _ in range(1000):
            mods = rng.sample(range(16), rng.randint(3, 6))
            closed, open_module = mods[:-1], mods[-1]
            removed = {
                v for v in range(256)
                if v & 15 in closed and external_neighbor(v, D3) & 15 not in mods
            }
            removed |= {v for v in range(256) if v & 15 in mods and rng.random() < 0.1}
            removed |= {(x << 4) | open_module for x in rng.sample(range(16), 3)}
            assert any(v not in removed for v in range(256) if v & 15 in closed)
            fast = checker8.connected(removed)
            assert fast == plain_connected(fdsc8, removed), sorted(removed)
            verdicts[fast] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_spot_checks_n16(self, fdsc16):
        checker = ModularChecker(make_dim(4))
        rng = random.Random(5)
        for _ in range(25):
            removed = rng.sample(range(65536), rng.randint(0, 9))
            fast = checker.connected(removed)
            assert fast == plain_connected(fdsc16, removed)
        # a full neighborhood disconnects by isolating its hub
        removed = list(fdsc16.adj[12345])
        assert checker.connected(removed) is False

    def test_empty_removal(self, checker8):
        assert checker8.connected([]) is True


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
        assert check.checker.connected(every_other) is None
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
    both verdicts occur, the modular route decides every query and agrees
    with the plain census."""
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
        fast = check.checker.connected(removed)
        assert fast is not None
        assert fast == check.connected(removed) == plain_connected(fdsc16, removed)
        verdicts[fast] += 1

    agrees()
    assert verdicts[True] > 0 and verdicts[False] > 0
