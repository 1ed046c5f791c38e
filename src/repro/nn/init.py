"""Weight initialisation schemes used by the ViT model zoo."""

from __future__ import annotations

import numpy as np

_DEFAULT_RNG = np.random.default_rng(0)


def set_seed(seed: int) -> None:
    """Reset the module-level RNG used by the initialisers (for reproducibility)."""

    global _DEFAULT_RNG
    _DEFAULT_RNG = np.random.default_rng(seed)


def truncated_normal(shape: tuple[int, ...], std: float = 0.02, rng: np.random.Generator | None = None) -> np.ndarray:
    """Truncated-normal init (the standard ViT/DeiT weight init)."""

    rng = rng or _DEFAULT_RNG
    values = rng.normal(0.0, std, size=shape)
    return np.clip(values, -2.0 * std, 2.0 * std)


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """He-normal init for convolutional layers feeding ReLU-family activations."""

    rng = rng or _DEFAULT_RNG
    fan_in, _ = _fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in and fan-out for dense (in, out) or conv (o, i, kh, kw) shapes."""

    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        out_channels, in_channels, kernel_h, kernel_w = shape
        receptive = kernel_h * kernel_w
        return in_channels * receptive, out_channels * receptive
    flat = int(np.prod(shape))
    return flat, flat
