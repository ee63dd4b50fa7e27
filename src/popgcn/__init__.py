"""Parallel multi-graph spectral GCN with attention-weighted fusion.

Semi-supervised node classification on population graphs: one graph per
demographic element, one graph-convolution branch per graph, branch logits
fused by trainable scalar attention weights.
"""

from .baselines import (BaselineKind, averaged_propagation, baseline_run,
                        identity_propagation, run_baseline_cv, subset_runs)
from .data import (DataError, Dataset, FoldSplit, SynthConfig,
                   generate_synthetic, load_dataset, save_dataset,
                   stratified_kfold)
from .graph import (EQUALITY, THRESHOLD, AffinityMatrix, EdgeRule, GraphError,
                    PropagationMatrix, build_affinity, build_affinity_matrices,
                    build_edge_matrix, build_propagation_matrices,
                    default_edge_rules, graph_statistics, normalize_affinity,
                    rules_or_defaults, similarity_matrix)
from .model import (ForwardTrace, ModelParams, class_weights, compute_gradients,
                    finite_diff_check, gc_layer_forward, glorot_uniform,
                    init_params, model_forward, regularization_term,
                    softmax_rows, weighted_cross_entropy)
from .train import (Adam, CVReport, TrainConfig, TrainedModel, TrainingError,
                    accuracy, config_to_dict, confusion_matrix,
                    cross_validate, cv_folds_and_seeds, evaluate, run_cv,
                    split_hash, train_model)

__version__ = "0.1.0"
