"""Desk-scale laboratory for re-composable low-rank adapters on a small ViT.

Importing the package before numpy defaults BLAS to one thread, which the
environment can override. The matrices here are small, and a GEMM's bits
depend on the BLAS thread count, so the default keeps results and speed the
same on every machine. A process that imported numpy first keeps its BLAS
threads: BLAS reads these variables once, when numpy loads it.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_variable, "1")

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
