import fdsc


def test_every_exported_name_resolves():
    assert len(set(fdsc.__all__)) == len(fdsc.__all__)
    missing = [name for name in fdsc.__all__ if not hasattr(fdsc, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from fdsc import *", namespace)
    assert set(fdsc.__all__) <= set(namespace)
