"""The names ``popgcn`` exports. Removing or renaming one changes the library
API, so the list below has to be edited on purpose."""

import ast
import types
from pathlib import Path

import popgcn
import popgcn.cli

PUBLIC_NAMES = [
    "Adam", "AffinityMatrix", "BaselineKind", "CVReport", "DataError",
    "Dataset", "EQUALITY", "EdgeRule", "FoldSplit", "ForwardTrace",
    "GraphError", "ModelParams", "PropagationMatrix", "SynthConfig",
    "THRESHOLD", "TrainConfig", "TrainedModel", "TrainingError", "accuracy",
    "averaged_propagation", "build_affinity", "build_affinity_matrices",
    "build_edge_matrix", "build_propagation_matrices", "class_weights",
    "baseline_run", "compute_gradients", "config_to_dict", "confusion_matrix",
    "cross_validate", "cv_folds_and_seeds", "default_edge_rules", "evaluate",
    "finite_diff_check", "gc_layer_forward", "generate_synthetic",
    "glorot_uniform", "graph_statistics", "identity_propagation",
    "init_params", "load_dataset", "model_forward", "normalize_affinity",
    "regularization_term", "rules_or_defaults", "run_baseline_cv", "run_cv",
    "save_dataset", "similarity_matrix", "softmax_rows", "split_hash",
    "stratified_kfold", "subset_runs", "train_model",
    "weighted_cross_entropy",
]


def test_public_names_are_pinned():
    # submodules are bound on import (``popgcn.cli`` only once imported), so
    # they are not part of the list
    exported = sorted(name for name, value in vars(popgcn).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)


def test_cli_imports_no_private_name_of_the_library():
    # the command line trains through the public library; of the private
    # helpers only data's field check, shared with the config parser, and
    # its all-or-nothing writer, shared with the report, are allowed
    tree = ast.parse(Path(popgcn.cli.__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names if alias.name.startswith("_")]
    shared = {("data", "_typed"), ("data", "_write_files")}
    assert [name for name in private if name not in shared] == []
