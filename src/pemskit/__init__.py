"""Turbine telemetry analytics: ingest, stats, variable clustering,
predictor screening, process-drift detection, and KNN NOx modeling."""

from .errors import (ConfigError, DataError, DegenerateDataError,
                     PemskitError)
from .ingest import (Dataset, PREDICTORS, PROCESS_PREDICTORS, TARGET,
                     load_dataset, write_year_files)
from .stats import (CorrelationMatrix, VariableSummary, correlation_matrix,
                    flag_high_nox, summarize)
from .varclus import VarCluster, VarClusterReport, cluster_variables
from .screening import (ForestConfig, RegressionTree, ScreeningResult,
                        fit_regression_tree, screen_predictors)
from .drift import (DriftReport, LinearFit, PcaModel, drift_report, fit_pca,
                    linear_fit, project, yearly_fit)
from .knn import (EvalMetrics, KSelectionCurve, KnnModel, PooledVsYearly,
                  SplitAssignment, compare_pooled_vs_yearly, evaluate,
                  evaluate_all, fit_knn, load_model, predict, predict_rows,
                  residuals, save_model, select_k, split)
from .synthetic import make_dataset

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DegenerateDataError", "PemskitError",
    "Dataset", "PREDICTORS", "PROCESS_PREDICTORS", "TARGET",
    "load_dataset", "write_year_files",
    "CorrelationMatrix", "VariableSummary", "correlation_matrix",
    "flag_high_nox", "summarize",
    "VarCluster", "VarClusterReport", "cluster_variables",
    "ForestConfig", "RegressionTree", "ScreeningResult",
    "fit_regression_tree", "screen_predictors",
    "DriftReport", "LinearFit", "PcaModel", "drift_report", "fit_pca",
    "linear_fit", "project", "yearly_fit",
    "EvalMetrics", "KSelectionCurve", "KnnModel", "PooledVsYearly",
    "SplitAssignment", "compare_pooled_vs_yearly", "evaluate",
    "evaluate_all", "fit_knn", "load_model", "predict", "predict_rows",
    "residuals", "save_model", "select_k", "split",
    "make_dataset",
    "__version__",
]
