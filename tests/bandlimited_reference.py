"""The full-grid random band-limited generator that the tests hold random_bandlimited against.

White noise goes through the full rfftn; every half-grid bin outside the
box |xi_j| <= cutoff, and the zero mode, is multiplied by 0; the full
irfftn gives the samples, which are scaled to unit L^2 norm.
"""

import numpy as np


def full_grid_bandlimited(grid, d, cutoff, seed):
    """The samples of random_bandlimited(grid, d, cutoff, seed), computed on the whole grid."""
    white = np.random.default_rng(seed).standard_normal(grid.shape + (d,))
    axes = tuple(range(grid.n))
    hat = np.fft.rfftn(white, axes=axes)
    keep = np.all(np.abs(grid.half_frequency_grid) <= cutoff, axis=-1) & ~grid.half_zero_mask
    hat *= keep[..., None]
    vals = np.fft.irfftn(hat, s=grid.shape, axes=axes)
    nrm = float(np.sqrt(np.sum(np.linalg.norm(vals, axis=-1) ** 2) * grid.cell_volume))
    return vals * (1.0 / nrm)
