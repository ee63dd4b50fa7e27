"""Shared factories for fast test instances."""

import popgcn


def quick_config(**overrides) -> popgcn.TrainConfig:
    """Training config scaled down for unit-test runtimes."""
    settings = dict(phase1_epochs=15, max_total_epochs=50, patience=8,
                    folds=3, seed=0)
    settings.update(overrides)
    return popgcn.TrainConfig(**settings)


def quick_dataset(n_nodes=36, n_features=8, seed=11, **overrides) -> popgcn.Dataset:
    """Small two-element synthetic cohort (informative 0.9 + noise)."""
    settings = dict(n_nodes=n_nodes, n_features=n_features, n_classes=3,
                    class_separation=2.0,
                    informative_elements=(("informative", 0.9),),
                    noise_elements=("noise",), seed=seed)
    settings.update(overrides)
    return popgcn.generate_synthetic(popgcn.SynthConfig(**settings))


def strip_wall_clock(payload):
    """A report payload with every ``wall_clock_sec`` removed."""
    if isinstance(payload, dict):
        return {key: strip_wall_clock(value) for key, value in payload.items()
                if key != "wall_clock_sec"}
    if isinstance(payload, list):
        return [strip_wall_clock(item) for item in payload]
    return payload
