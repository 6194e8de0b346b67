"""References that the tests hold the box inverse and the field generators against.

copying_irfftn is the pruned inverse transform written with a fresh array
for every step: each axis padded into a copy and transformed into another.
periodised_gaussian sums a Gaussian over its periodic images directly,
with no Fourier series.
"""

import math
from functools import reduce

import numpy as np


def copying_irfftn(box, coef):
    """irfftn of box coefficients zero-padded to the half grid, one new array per step."""
    n, m = box.grid.n, box.grid.points_per_axis
    out = coef
    for axis in range(n - 1):
        if not box.is_full:
            padded = np.zeros(out.shape[:axis] + (m,) + out.shape[axis + 1 :], complex)
            padded[(slice(None),) * axis + (box.axis_bins,)] = out
            out = padded
        out = np.fft.ifftn(out, axes=(axis,))
    return np.fft.irfftn(out, s=(m,), axes=(n - 1,))


def periodised_gaussian(grid, center, width, images=3):
    """The sum over j in Z^n, |j_a| <= images, of exp(-|x - center + 2 pi j|^2 / (2 width^2)).

    Sampled on the grid.  The sum factorizes over the axes, so it is the outer product of n 1-D
    image sums.
    """
    m = grid.points_per_axis
    axis = 2.0 * math.pi * np.arange(m) / m
    shifts = 2.0 * math.pi * np.arange(-images, images + 1)
    sums = [
        np.sum(np.exp(-((axis[:, None] - c + shifts) ** 2) / (2.0 * width**2)), axis=1)
        for c in center
    ]
    return reduce(np.multiply.outer, sums)
