"""The per-bin half-grid table that the tests hold MultiplierDescriptor.grid_table against.

It assumes no symmetry of the multiplier: batch is evaluated at every
half-grid bin, one first-axis slab at a time, and at the mirror xi' of every
Nyquist-plane bin, which is then averaged with its mirror.
"""

import numpy as np


def per_bin_table(desc, grid):
    """Hermitian-part matrices on grid's half grid, shape grid.half_shape + desc.shape."""
    freqs = grid.half_frequency_grid
    table = None
    for i in range(freqs.shape[0]):
        slab = desc.on_frequencies(freqs[i : i + 1].astype(float))
        if table is None:
            table = np.empty(grid.half_shape + slab.shape[grid.n :], slab.dtype)
        table[i : i + 1] = slab
    planes = np.any(grid.half_nyquist_mask, axis=-1)
    mirror = desc.on_frequencies(grid.half_mirror_grid[planes].astype(float))
    table[planes] = 0.5 * (table[planes] + mirror.conj())
    return table


class PerBinTable:
    """per_bin_table applied by einsum, a stand-in for the table grid_table returns."""

    def __init__(self, desc, grid):
        self.dense = per_bin_table(desc, grid)

    def apply(self, box, coef):
        return np.einsum("...rc,...c->...r", box.take(self.dense), coef)
