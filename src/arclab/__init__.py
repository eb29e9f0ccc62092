"""Desk-scale laboratory for re-composable low-rank adapters on a small ViT."""

from .adapters import AdapterBank, ArcConfig, init_adapters
from .model import BackboneConfig, init_backbone
from .training import SyntheticTask, TrainConfig, make_task, train

__version__ = "0.1.0"

__all__ = [
    "AdapterBank",
    "ArcConfig",
    "BackboneConfig",
    "SyntheticTask",
    "TrainConfig",
    "init_adapters",
    "init_backbone",
    "make_task",
    "train",
    "__version__",
]
