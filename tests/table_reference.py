"""The half-grid tables that the tests hold MultiplierDescriptor.grid_table against.

per_bin_table assumes no symmetry of the multiplier: batch is evaluated at
every half-grid bin, one first-axis slab at a time, and the Nyquist-plane
bins, where no spectrum has content, are set to 0.  orbit_reference_table
builds a certified table the way grid_table once did, from the orbit
decomposition of every live bin and the whole signed-permutation group.
"""

import functools

import numpy as np

from fullgrid_reference import half_frequency_grid
from kmslab.multipliers import TABLE_CHUNK, OrbitTable, _check_real_to_real
from kmslab.operators import frequency_orbits, signed_permutations
from kmslab.torus import TorusGrid


def nyquist_planes(grid):
    """True at the half-grid bins with a Nyquist coordinate (-M/2)."""
    return np.any(half_frequency_grid(grid) == -(grid.points_per_axis // 2), axis=-1)


def per_bin_table(desc, grid):
    """The matrices on grid's half grid, shape grid.half_shape + desc.shape."""
    freqs = half_frequency_grid(grid)
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

    def matrices(self, bins=...):
        """The matrices at half-grid bins: bins indexes an array of the half-grid shape (all, by default)."""
        grid_shape = self.dense.shape[:-2]
        index = np.arange(np.prod(grid_shape)).reshape(grid_shape)[bins]
        return self.dense.reshape((-1,) + self.dense.shape[-2:])[index]

    def apply(self, box, coef):
        return np.einsum("...rc,...c->...r", box.take(self.dense), coef)

    def bin_keys(self, box):
        """The matrices of the box's bins, flat: the keys apply_rows reads."""
        dense = box.take(self.dense)
        return dense.reshape((-1,) + dense.shape[-2:]), None

    def apply_rows(self, keys, bins, vec, out=None):
        got = np.einsum("...rc,...c->...r", keys[0][bins], vec)
        if out is None:
            return got
        out[...] = got
        return out


@functools.lru_cache(maxsize=4)
def _live_orbits(n, points_per_axis):
    """(live, keys, rep, elem): operators.frequency_orbits (signed, rays) over a half grid's live bins."""
    freqs = half_frequency_grid(TorusGrid(n, points_per_axis)).reshape(-1, n)
    nyquist = np.any(freqs == -(points_per_axis // 2), axis=1)
    live = np.flatnonzero(np.any(freqs != 0, axis=1) & ~nyquist)
    return (live, *frequency_orbits(freqs[live], signed=True, rays=True))


def _stabilized(desc, keys):
    """desc at the keys, each matrix made invariant under its key's stabilizer, read off the whole group."""
    values = desc.on_frequencies(keys.astype(float))
    d = values.shape[-1]
    group = signed_permutations(keys.shape[1], desc._symmetry)
    flat = values.reshape(-1, d * d)
    # each key's stabilizer, as a row of flags over the group
    stabilizers = np.all(keys[:, group.perm] == group.signs * keys[:, None, :], axis=2)
    todo = np.ones(keys.shape[0], bool)
    while todo.any():
        stabilizer = stabilizers[np.argmax(todo)]
        rows = np.flatnonzero(todo & np.all(stabilizers == stabilizer, axis=1))
        todo[rows] = False
        src, sgn = group.src[stabilizer], group.sgn[stabilizer]
        pos = (src[:, :, None] * d + src[:, None, :]).reshape(src.shape[0], -1)
        sign = (sgn[:, :, None] * sgn[:, None, :]).reshape(sgn.shape[0], -1)
        first = pos.min(axis=0)
        carried = sign[pos.argmin(axis=0), np.arange(d * d)]
        odd = np.any((pos == first) & (sign != carried), axis=0)
        flat[rows] = flat[rows][:, first] * np.where(odd, 0.0, carried)
    return values


def orbit_reference_table(desc, grid):
    """A certified descriptor's OrbitTable, built from operators.frequency_orbits over every live bin.

    code is each bin's row of the whole operators.signed_permutations table,
    and action holds all 2^n n! rows.  The keys are evaluated in
    TABLE_CHUNK batches, as grid_table evaluates them.  No realness check
    is made (mirror_check).
    """
    live, keys, rep, elem = _live_orbits(grid.n, grid.points_per_axis)
    values = np.concatenate(
        [_stabilized(desc, keys[lo : lo + TABLE_CHUNK]) for lo in range(0, keys.shape[0], TABLE_CHUNK)]
    )
    values = np.concatenate([values, np.zeros((1,) + values.shape[1:], values.dtype)])
    bin_rep = np.full(np.prod(grid.half_shape), keys.shape[0], np.int32)
    bin_rep[live] = rep
    code = np.zeros(grid.half_shape, np.int32)
    code.reshape(-1)[live] = elem
    return OrbitTable(
        shape=grid.half_shape + values.shape[1:],
        keys=keys,
        values=values,
        rep=bin_rep.reshape(grid.half_shape),
        code=code,
        action=signed_permutations(grid.n, desc._symmetry)[2:],
    )


def mirror_check(desc, grid, table):
    """The realness check of the reference: m(-xi) against conj m(xi), bin by bin on the bin-0 plane."""
    plane = table.matrices((..., 0))
    flip = (-np.arange(grid.points_per_axis)) % grid.points_per_axis
    _check_real_to_real(desc.provenance, plane, plane[np.ix_(*[flip] * (grid.n - 1))])
