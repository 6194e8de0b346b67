"""The full-grid random band-limited spectrum that the tests hold random_bandlimited against.

White noise goes through the full rfftn, Parseval-normalized; every
half-grid bin outside the box |xi_j| <= cutoff, and the zero mode, is
multiplied by 0.  The field is that spectrum over its Parseval norm, here
summed over the whole half grid.
"""

import math

import numpy as np


def full_grid_bandlimited(grid, d, cutoff, seed):
    """(spectrum, norm): the masked half spectrum of random_bandlimited's white noise
    on the whole half grid, and its Parseval norm, which random_bandlimited divides by."""
    white = np.random.default_rng(seed).standard_normal(grid.shape + (d,))
    hat = np.fft.rfftn(white, axes=tuple(range(grid.n))) * grid.spectrum_scale
    keep = np.all(np.abs(grid.half_frequency_grid) <= cutoff, axis=-1) & ~grid.half_zero_mask
    hat *= keep[..., None]
    power = np.sum(np.abs(hat) ** 2, axis=-1)
    return hat, math.sqrt(float(np.sum(grid.parseval_weights * power)))
