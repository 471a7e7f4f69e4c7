import ast
import dataclasses
import importlib
from pathlib import Path

import pemskit

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


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


def _traced_table():
    """The (module, attribute, span) rows of the benchmark child's TRACED
    table, read from its source: the child is not imported, so none of
    its code runs."""
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD} has no TRACED table")


def test_every_function_the_benchmark_traces_resolves():
    table = _traced_table()
    assert table
    missing = [(module, attr) for module, attr, _ in table
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


def test_the_benchmark_tree_probe_reads_a_node_count(turbine_ds):
    # perfbench/run.py's probe_tree grows one tree this way and divides
    # its time by n_nodes
    tree = pemskit.fit_regression_tree(turbine_ds, pemskit.PREDICTORS,
                                       pemskit.TARGET,
                                       pemskit.ForestConfig(seed=1))
    assert type(tree.n_nodes) is int and tree.n_nodes > 0
