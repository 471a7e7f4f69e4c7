import ast
import dataclasses
import importlib
from pathlib import Path

import pemskit
from pemskit import cli

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


def test_pearson_is_gone():
    # correlation_matrix is the one correlation: nothing in the package
    # called pearson, which checked neither shapes nor overflow
    assert "pearson" not in pemskit.__all__
    assert not hasattr(pemskit, "pearson")
    assert not hasattr(pemskit.stats, "pearson")


def test_weather_predictors_is_gone():
    # nothing read it once --exclude-weather went; the process-only run
    # names its predictors, and varclus tags weather as not PROCESS_PREDICTORS
    assert "WEATHER_PREDICTORS" not in pemskit.__all__
    assert not hasattr(pemskit, "WEATHER_PREDICTORS")
    assert not hasattr(pemskit.ingest, "WEATHER_PREDICTORS")


def test_forest_config_has_only_the_knobs_in_use():
    fields = [f.name for f in dataclasses.fields(pemskit.ForestConfig)]
    assert fields == ["n_trees", "seed"]


def test_run_config_has_only_the_options_in_use():
    # each option is one flag and one config key; an alias of another
    # option's value would be a second spelling of the same run
    fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert fields == ["command", "data_dir", "years", "target", "predictors",
                      "split", "seed", "k", "k_max", "weighting", "threshold",
                      "trees", "out", "plots", "out_dir", "reference_year",
                      "tep_unit", "leave_self_out"]
    assert list(cli._OPTIONS) == fields[1:]


def test_a_model_evaluation_reads_its_k_from_its_model():
    # the chosen (or fixed) k is the model's k; a second field for it
    # would be a copy that could disagree
    fields = [f.name for f in dataclasses.fields(pemskit.knn.ModelEvaluation)]
    assert fields == ["label", "curve", "metrics", "model", "predicted"]


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
