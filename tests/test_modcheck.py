import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsc import ParameterError, components_after_removal, make_dim
from fdsc.modcheck import ModularChecker, SurvivorCheck


@pytest.fixture(scope="module")
def checker8():
    return ModularChecker(make_dim(3))


def plain_connected(g, removed):
    census = components_after_removal(g, removed)
    return census.component_count == 1 and census.surviving > 1


class TestConstruction:
    def test_too_small(self):
        with pytest.raises(ParameterError):
            ModularChecker(make_dim(2))

    def test_builds_n16(self):
        ModularChecker(make_dim(4))


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
        # their survivors, so component-to-component links and the
        # first-core-contact early exit both matter; both verdicts occur
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
                        removed.add(
                            (checker8.ext_inner[v] << 4) | checker8.ext_module[v]
                        )
            fast = checker8.connected(removed)
            assert fast is not None
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
