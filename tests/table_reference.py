"""The per-bin half-grid table that the tests hold MultiplierDescriptor.grid_table against.

It assumes no symmetry of the multiplier: batch is evaluated at every
half-grid bin, one first-axis slab at a time, and the Nyquist-plane bins,
where no spectrum has content, are set to 0.
"""

import numpy as np


def nyquist_planes(grid):
    """True at the half-grid bins with a Nyquist coordinate (-M/2)."""
    return np.any(grid.half_frequency_grid == -(grid.points_per_axis // 2), axis=-1)


def per_bin_table(desc, grid):
    """The matrices on grid's half grid, shape grid.half_shape + desc.shape."""
    freqs = grid.half_frequency_grid
    table = None
    for i in range(freqs.shape[0]):
        slab = desc.on_frequencies(freqs[i : i + 1].astype(float))
        if table is None:
            table = np.empty(grid.half_shape + slab.shape[grid.n :], slab.dtype)
        table[i : i + 1] = slab
    table[nyquist_planes(grid)] = 0.0
    return table


class PerBinTable:
    """per_bin_table applied by einsum, a stand-in for the table grid_table returns."""

    def __init__(self, desc, grid):
        self.dense = per_bin_table(desc, grid)

    def apply(self, box, coef):
        return np.einsum("...rc,...c->...r", box.take(self.dense), coef)
