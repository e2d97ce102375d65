"""Structure-adapting multi-view harmoniums.

Energy-based multi-view feature extraction where learnable switch logits
gate the connection between each hidden unit and each view, so the model
discovers shared versus view-specific structure during training.
"""

from .expfam import Family
from .model import (
    HarmoniumParams,
    StructureKind,
    StructureMode,
    SwitchReport,
    ViewConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    structure_report,
)
from .training import TrainConfig, TrainLog, cd_gradient, exact_gradient, train
from .data import MultiViewDataset, SynthConfig, generate_synthetic_paired

__all__ = [
    "Family",
    "HarmoniumParams",
    "MultiViewDataset",
    "StructureKind",
    "StructureMode",
    "SwitchReport",
    "SynthConfig",
    "TrainConfig",
    "TrainLog",
    "ViewConfig",
    "cd_gradient",
    "exact_gradient",
    "generate_synthetic_paired",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "structure_report",
    "train",
]

__version__ = "0.1.0"
