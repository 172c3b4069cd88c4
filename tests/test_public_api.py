import riskenv


def test_every_exported_name_resolves():
    assert len(set(riskenv.__all__)) == len(riskenv.__all__)
    missing = [name for name in riskenv.__all__ if not hasattr(riskenv, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from riskenv import *", namespace)  # noqa: S102 - the point of the test
    assert set(riskenv.__all__) <= set(namespace)
