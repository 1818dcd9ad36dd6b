"""planemix: classification with per-class mixtures of hyperplanes.

Each class is scored by the softened maximum of several affine planes in a
lifted feature space; classes compete through a softmax. The package covers
the full path from synthetic data to a calibrated, inspectable model.
"""

from .budgeting import (InitSpec, PlaneBudget, auto_budget, auto_plane_budget,
                        fixed_budget, kmeans, silhouette_score)
from .calibration import (accuracy, apply_temperature, ece, fit_temperature,
                          macro_f1, reliability_data)
from .datasets import (Dataset, SplitSpec, load_csv, make_aniso_blobs,
                       make_circles, make_moons, make_two_spirals,
                       stratified_split)
from .diagnostics import (decision_grid, plane_saliency, plane_usage,
                          responsibility_grid, responsibility_stats)
from .features import (FeaturePipeline, PipelineConfig, build_pipeline,
                       fit_pca, fit_standardizer, sample_rff)
from .model import (ForwardResult, PlaneMixture, class_score, forward,
                    posterior, predict, predict_proba, responsibilities)
from .persist import load_model, save_model
from .training import TrainConfig, TrainLog
from .workflow import (evaluate_model, fit, generate_dataset, split_dataset,
                       train_classifier)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "SplitSpec", "load_csv", "make_moons", "make_circles",
    "make_aniso_blobs", "make_two_spirals", "stratified_split",
    "FeaturePipeline", "PipelineConfig", "fit_standardizer", "fit_pca",
    "sample_rff", "build_pipeline",
    "PlaneMixture", "ForwardResult", "class_score", "responsibilities",
    "posterior", "forward", "predict", "predict_proba",
    "PlaneBudget", "InitSpec", "kmeans", "silhouette_score",
    "auto_plane_budget", "auto_budget", "fixed_budget",
    "TrainConfig", "TrainLog", "fit",
    "accuracy", "macro_f1", "ece", "reliability_data", "fit_temperature",
    "apply_temperature",
    "responsibility_stats", "plane_usage", "plane_saliency", "decision_grid",
    "responsibility_grid",
    "save_model", "load_model",
    "train_classifier", "evaluate_model", "generate_dataset", "split_dataset",
]
