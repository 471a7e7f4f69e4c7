import dataclasses

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


def test_forest_config_has_only_the_knobs_in_use():
    fields = [f.name for f in dataclasses.fields(pemskit.ForestConfig)]
    assert fields == ["n_trees", "seed"]
