import tracemalloc

import pytest

import fdsc.graph
import fdsc.modcheck
from fdsc import build_graph, make_dim


@pytest.fixture(scope="session")
def fdsc2():
    return build_graph(make_dim(1))


@pytest.fixture(scope="session")
def fdsc4():
    return build_graph(make_dim(2))


@pytest.fixture(scope="session")
def fdsc8():
    return build_graph(make_dim(3))


@pytest.fixture(scope="session")
def fdsc16():
    return build_graph(make_dim(4))


@pytest.fixture(scope="session")
def dsc8():
    return build_graph(make_dim(3), "dsc")


@pytest.fixture
def no_apex_cross_edge_n8(monkeypatch):
    """A broken FDSC_8 in ``fdsc.graph``: label 0 loses its cross edge to
    255, so the cross-edge rule for modules 0x0 and 0xf names a non-edge."""
    real = fdsc.graph.neighbor_set

    def broken(u, dim, variant="fdsc"):
        nbrs = real(u, dim, variant)
        return [v for v in nbrs if v != 255] if dim.n == 8 and u == 0 else nbrs

    monkeypatch.setattr(fdsc.graph, "neighbor_set", broken)


@pytest.fixture
def fresh_checkers():
    """An empty per-dimension checker memo (``modcheck.modular_checker``)
    during the test and after it, for a test that patches what a checker
    is built from: the patched build is neither served from nor left in
    the memo."""
    fdsc.modcheck.modular_checker.cache_clear()
    yield
    fdsc.modcheck.modular_checker.cache_clear()


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` runs ``fn()`` and returns the most bytes that
    tracemalloc saw allocated during it beyond what was allocated before
    it (memory of forked children is not seen)."""

    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return measure
