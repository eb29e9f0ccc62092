"""Print the tracemalloc peak of one 16-image Eager forward at three shapes.

Each shape is a backbone from ``init_backbone`` with a fresh adapter bank
at both default sites of every layer. ``model.forward`` (Eager) runs once
to warm up, then once more under ``tracemalloc``. The
peak is taken above the traced memory at the start of that second
forward, so the weights, the bank and the images are not counted: it is
the forward's own activations and scratch. It only prints; the bounds
that gate the forward's memory are tests in ``tests/test_model.py``,
which call :func:`forward_peak`.

Usage: PYTHONPATH=src python3 tools/forward_peak.py
"""

from __future__ import annotations

import tracemalloc

from arclab import adapters, model
from arclab.kernel import Rng

IMAGES = 16
SHAPES = {  # name -> (backbone, adapter bottleneck D')
    "toy": (model.BackboneConfig(image_size=8, patch_size=4, channels=1, embed_dim=16,
                                 layers=3, heads=2, classes=4), 4),
    "D=128, L=12": (model.BackboneConfig(image_size=32, patch_size=8, channels=1,
                                         embed_dim=128, layers=12, heads=4, classes=10), 50),
    "ViT-B width, L=2": (model.BackboneConfig(image_size=224, patch_size=16, channels=3,
                                              embed_dim=768, layers=2, heads=12,
                                              classes=1000), 50),
}


def forward_peak(cfg: model.BackboneConfig, bottleneck: int, images: int = IMAGES) -> int:
    """Bytes the second of two Eager forwards over ``images`` images peaks
    at, above the traced memory when it starts."""
    rng = Rng(0)
    weights = model.init_backbone(cfg, rng)
    bank = adapters.init_adapters(adapters.ArcConfig(bottleneck=bottleneck), cfg, rng)
    x = rng.normals((images, cfg.image_size, cfg.image_size, cfg.channels))
    model.forward(cfg, weights, x, bank)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.forward(cfg, weights, x, bank)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def main() -> int:
    print(f"{'shape':<18} {'(B, T, D)':>16} {'layers':>6} {'peak MiB':>9}")
    for name, (cfg, bottleneck) in SHAPES.items():
        peak = forward_peak(cfg, bottleneck)
        btd = f"({IMAGES}, {cfg.tokens + 1}, {cfg.embed_dim})"
        print(f"{name:<18} {btd:>16} {cfg.layers:>6} {peak / 2**20:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
