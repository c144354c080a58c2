import pytest

import fdsc.graph
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
