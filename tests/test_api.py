import pemskit


def test_every_name_in_all_resolves():
    missing = [name for name in pemskit.__all__ if not hasattr(pemskit, name)]
    assert missing == []
    assert len(set(pemskit.__all__)) == len(pemskit.__all__)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from pemskit import *", namespace)
    assert set(pemskit.__all__) <= set(namespace)


def test_the_single_file_export_is_gone():
    for name in ("to_csv", "read_csv"):
        assert not hasattr(pemskit, name)
        assert not hasattr(pemskit.ingest, name)
