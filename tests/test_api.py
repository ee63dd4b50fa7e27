"""The names ``popgcn`` exports. Removing or renaming one changes the library
API, so the list below has to be edited on purpose."""

import types

import popgcn

PUBLIC_NAMES = [
    "Adam", "AffinityMatrix", "BaselineKind", "CVReport", "DataError",
    "Dataset", "EQUALITY", "EdgeRule", "FoldSplit", "ForwardTrace",
    "GraphError", "ModelParams", "PropagationMatrix", "SynthConfig",
    "THRESHOLD", "TrainConfig", "TrainedModel", "TrainingError", "accuracy",
    "averaged_propagation", "build_affinity", "build_affinity_matrices",
    "build_edge_matrix", "build_propagation_matrices", "class_weights",
    "compute_gradients", "config_to_dict", "confusion_matrix",
    "cv_folds_and_seeds", "default_edge_rules", "evaluate",
    "finite_diff_check", "gc_layer_forward", "generate_synthetic",
    "glorot_uniform", "graph_statistics", "identity_propagation",
    "init_params", "load_dataset", "model_forward", "normalize_affinity",
    "regularization_term", "rules_or_defaults", "run_baseline_cv", "run_cv",
    "save_dataset", "similarity_matrix", "softmax_rows", "split_hash",
    "stratified_kfold", "train_model", "weighted_cross_entropy",
]


def test_public_names_are_pinned():
    # submodules are bound on import (``popgcn.cli`` only once imported), so
    # they are not part of the list
    exported = sorted(name for name, value in vars(popgcn).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)
