"""Procedural image-classification datasets.

The execution environment has no network access, so CIFAR-10, CIFAR-100
and SVHN are replaced by synthetic datasets with the same tensor shapes
(3x32x32), the same class counts, and the same *relative difficulty
ordering* (cifar100 > svhn >= cifar10).  The experiments of the paper
measure fault-induced accuracy *loss* relative to fault-free training, so
what matters is that the tasks are (a) learnable by the scaled CNNs in a
few epochs and (b) hard enough that corrupted gradients visibly destroy
training — both hold for these generators.

* ``synth-cifar10`` / ``synth-cifar100`` — each class is a random smooth
  colour texture (a coarse random grid upsampled to full resolution);
  samples perturb the prototype with global brightness/contrast jitter,
  spatial shifts and pixel noise.
* ``synth-svhn`` — a 5x7 digit glyph (the class) rendered at a random
  position/colour over a smooth textured background, mimicking the
  "digits in natural scenes" character of SVHN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SyntheticDataset",
    "make_dataset",
    "cached_dataset",
    "dataset_cache_key",
    "insert_cached_dataset",
    "clear_dataset_cache",
    "DATASET_NAMES",
]

DATASET_NAMES = ("synth-cifar10", "synth-cifar100", "synth-svhn")

# 5x7 bitmap font for digits 0-9 ('#' = on).
_DIGIT_FONT = {
    0: (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    1: ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    2: (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    3: (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    4: ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    5: ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    6: (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    7: ("#####", "    #", "   # ", "  #  ", "  #  ", "  #  ", "  #  "),
    8: (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    9: (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
}


@dataclass
class SyntheticDataset:
    """A train/test split of synthetic images."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def image_size(self) -> int:
        return self.x_train.shape[-1]

    def __repr__(self) -> str:
        return (
            f"SyntheticDataset({self.name!r}, train={len(self.y_train)}, "
            f"test={len(self.y_test)}, classes={self.num_classes})"
        )


def _smooth_field(rng: np.random.Generator, size: int, grid: int) -> np.ndarray:
    """A random smooth 3-channel field: coarse noise upsampled to size."""
    coarse = rng.normal(0.0, 1.0, size=(3, grid, grid))
    reps = size // grid
    field = np.kron(coarse, np.ones((reps, reps)))
    # Light spatial smoothing (box blur) to remove the block edges.
    for _ in range(2):
        field = (
            field
            + np.roll(field, 1, axis=1)
            + np.roll(field, -1, axis=1)
            + np.roll(field, 1, axis=2)
            + np.roll(field, -1, axis=2)
        ) / 5.0
    return field


def _texture_samples(
    rng: np.random.Generator,
    num_classes: int,
    n: int,
    size: int,
    noise: float,
    shift: int,
    kernel: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Texture-statistics classification (CIFAR-difficulty surrogate).

    Each class is a random ``kernel x kernel`` filter bank; a sample is a
    fresh white-noise field convolved (circularly, via FFT) with its
    class's filters.  Every class therefore has (near) zero mean and unit
    variance — no template matching possible — and class identity lives
    in *local second-order texture statistics*, which a CNN must learn
    convolution filters to extract.  This keeps the task in the regime the
    paper's experiments rely on: accuracy is earned through precise
    learned filters, so corrupted gradients visibly derail training while
    fault-free training converges reliably within a few epochs.
    """
    # Per-class filter banks: 3 output channels mixing 3 noise channels.
    kernels = rng.normal(0.0, 1.0, size=(num_classes, 3, 3, kernel, kernel))
    kernel_ffts = np.fft.rfft2(kernels, s=(size, size))
    labels = rng.integers(0, num_classes, size=n)
    images = np.empty((n, 3, size, size), dtype=np.float64)
    for i, cls in enumerate(labels):
        field = rng.normal(0.0, 1.0, size=(3, size, size))
        field_fft = np.fft.rfft2(field)
        tex_fft = np.einsum("ocxy,cxy->oxy", kernel_ffts[cls], field_fft)
        img = np.fft.irfft2(tex_fft, s=(size, size))
        img /= img.std() + 1e-8
        img = img * rng.uniform(0.8, 1.2) + rng.normal(0.0, 0.1)
        img = np.roll(img, rng.integers(-shift, shift + 1), axis=1)
        img = np.roll(img, rng.integers(-shift, shift + 1), axis=2)
        img += rng.normal(0.0, noise, size=img.shape)
        images[i] = img
    return images, labels


def _digit_samples(
    rng: np.random.Generator, n: int, size: int, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """SVHN-like digit glyphs over textured backgrounds."""
    labels = rng.integers(0, 10, size=n)
    images = np.empty((n, 3, size, size), dtype=np.float64)
    for i, cls in enumerate(labels):
        img = 0.8 * _smooth_field(rng, size, grid=4)
        glyph = np.array(
            [[ch == "#" for ch in row] for row in _DIGIT_FONT[int(cls)]],
            dtype=np.float64,
        )
        scale = int(rng.integers(2, 4))  # glyph becomes 10-15 x 15-21 px... clipped
        glyph = np.kron(glyph, np.ones((scale, scale)))
        gh, gw = glyph.shape
        gh, gw = min(gh, size), min(gw, size)
        glyph = glyph[:gh, :gw]
        r0 = int(rng.integers(0, size - gh + 1))
        c0 = int(rng.integers(0, size - gw + 1))
        colour = rng.uniform(1.0, 2.0, size=3) * rng.choice([-1.0, 1.0])
        for ch in range(3):
            img[ch, r0 : r0 + gh, c0 : c0 + gw] += colour[ch] * glyph
        img += rng.normal(0.0, noise, size=img.shape)
        images[i] = img
    return images, labels


def _standardise(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = train.mean(axis=(0, 2, 3), keepdims=True)
    std = train.std(axis=(0, 2, 3), keepdims=True) + 1e-8
    return (train - mean) / std, (test - mean) / std


def make_dataset(
    name: str,
    n_train: int = 1024,
    n_test: int = 512,
    image_size: int = 32,
    rng: np.random.Generator | None = None,
) -> SyntheticDataset:
    """Generate one of the three synthetic datasets.

    The generator RNG fully determines the dataset, so two calls with the
    same seed produce identical data (fault-free and faulty runs of one
    experiment must train on the same task).
    """
    rng = rng or np.random.default_rng(0)
    name = name.lower()
    if image_size % 32 != 0 and image_size % 4 != 0:
        raise ValueError("image_size must be a multiple of 4")
    if name == "synth-cifar10":
        x, y = _texture_samples(rng, 10, n_train + n_test, image_size,
                                noise=0.35, shift=3)
        num_classes = 10
    elif name == "synth-cifar100":
        x, y = _texture_samples(rng, 100, n_train + n_test, image_size,
                                noise=0.40, shift=2)
        num_classes = 100
    elif name == "synth-svhn":
        x, y = _digit_samples(rng, n_train + n_test, image_size, noise=0.45)
        num_classes = 10
    else:
        raise ValueError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    x_train, x_test = _standardise(x[:n_train], x[n_train:])
    return SyntheticDataset(
        name=name,
        x_train=x_train,
        y_train=y[:n_train].astype(np.int64),
        x_test=x_test,
        y_test=y[n_train:].astype(np.int64),
        num_classes=num_classes,
    )


# --------------------------------------------------------------------- #
# per-process dataset cache
# --------------------------------------------------------------------- #
#: generation-recipe key -> dataset.  Experiments seeded identically train
#: on identical data, so N cells of a figure sweep share one generation.
#: Per process; every worker group prefills it in the parent so forked
#: workers inherit the arrays copy-on-write (spawned workers receive them
#: through shared memory — see repro.workers).
_DATASET_CACHE: dict[tuple, SyntheticDataset] = {}

#: the named RNG stream datasets are derived from (matches the stream the
#: experiment controller historically used, keeping results bit-identical).
DATA_STREAM = "data"


def dataset_cache_key(
    name: str, n_train: int, n_test: int, image_size: int, seed: int
) -> tuple:
    """The full generation recipe — two equal keys mean identical arrays."""
    return (name.lower(), int(n_train), int(n_test), int(image_size), int(seed))


def _freeze(ds: SyntheticDataset) -> SyntheticDataset:
    """Mark the arrays read-only: cached datasets are shared across cells."""
    for arr in (ds.x_train, ds.y_train, ds.x_test, ds.y_test):
        arr.flags.writeable = False
    return ds


def cached_dataset(
    name: str, n_train: int, n_test: int, image_size: int, seed: int
) -> SyntheticDataset:
    """Memoised :func:`make_dataset` keyed on the full generation recipe.

    The generator draws from the ``"data"`` stream of :class:`RngHub`
    derived from ``seed`` — exactly the stream ``build_experiment`` always
    used, so a cache hit is bit-identical to regeneration.  Returned
    arrays are read-only (shared across experiment cells).
    """
    from repro.utils.rng import derive_rng

    key = dataset_cache_key(name, n_train, n_test, image_size, seed)
    ds = _DATASET_CACHE.get(key)
    if ds is None:
        ds = _freeze(
            make_dataset(name, n_train, n_test, image_size,
                         derive_rng(int(seed), DATA_STREAM))
        )
        _DATASET_CACHE[key] = ds
    return ds


def insert_cached_dataset(key: tuple, ds: SyntheticDataset) -> None:
    """Install an externally materialised dataset (worker shared memory)."""
    _DATASET_CACHE[key] = _freeze(ds)


def clear_dataset_cache() -> None:
    """Drop all cached datasets (frees memory between sweeps)."""
    _DATASET_CACHE.clear()
