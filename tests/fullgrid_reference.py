"""Full-grid reference calculus that the tests compare kmslab against.

kmslab works on real-FFT half spectra.  The reference here is the plain
complex transform over the whole grid, Parseval-normalized like kmslab's
half spectra, plus the small fields and multipliers the tests build from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kmslab.multipliers import MultiplierDescriptor
from kmslab.torus import TensorField, TorusGrid


@dataclass(eq=False)
class SpectrumField:
    """Fourier coefficients of a TensorField, one complex d-vector per frequency."""

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=complex)
        if coef.shape[: self.grid.n] != self.grid.shape or coef.ndim != self.grid.n + 1:
            raise ValueError("coefficient shape incompatible with grid")
        self.coefficients = coef


def _axes(grid):
    return tuple(range(grid.n))


def transform(field: TensorField) -> SpectrumField:
    """Parseval-normalized discrete Fourier transform on the full grid."""
    coef = np.fft.fftn(field.values, axes=_axes(field.grid)) * field.grid.spectrum_scale
    return SpectrumField(field.grid, coef)


def inverse_transform(spectrum: SpectrumField) -> TensorField:
    """Inverse transform; the (tiny) imaginary residue of real fields is dropped."""
    vals = np.fft.ifftn(spectrum.coefficients, axes=_axes(spectrum.grid))
    return TensorField(spectrum.grid, vals.real / spectrum.grid.spectrum_scale)


def nyquist_free(field: TensorField) -> TensorField:
    """The field with every frequency that has a Nyquist coordinate (-M/2) removed."""
    spectrum = transform(field)
    nyquist = np.any(field.grid.frequency_grid == -(field.grid.points_per_axis // 2), axis=-1)
    spectrum.coefficients[nyquist] = 0.0
    return inverse_transform(spectrum)


def frequency_norm2(grid: TorusGrid) -> np.ndarray:
    """|xi|^2 over grid.frequency_grid."""
    return np.sum(grid.frequency_grid.astype(float) ** 2, axis=-1)


def zero_mask(grid: TorusGrid) -> np.ndarray:
    """True at the zero frequency of grid.frequency_grid."""
    return ~np.any(grid.frequency_grid != 0, axis=-1)


def half_frequency_grid(grid: TorusGrid) -> np.ndarray:
    """Frequencies of the real-FFT half spectrum, shape grid.half_shape + (n,).

    grid.frequency_grid on the last axis's first M/2 + 1 bins: 0 ... M/2 - 1,
    then -M/2.
    """
    return grid.frequency_grid[..., : grid.points_per_axis // 2 + 1, :]


def half_parseval_weights(grid: TorusGrid) -> np.ndarray:
    """Multiplicity of each half-spectrum bin in the full spectrum sum: 1 where
    the last coordinate is 0 or -M/2 (its partner is in the half grid), 2 elsewhere."""
    last = half_frequency_grid(grid)[..., -1]
    return np.where((last == 0) | (last == -(grid.points_per_axis // 2)), 1.0, 2.0)


def constant_field(grid: TorusGrid, v) -> TensorField:
    v = np.asarray(v, dtype=float)
    return TensorField(grid, np.broadcast_to(v, grid.shape + v.shape).copy())


def identity_multiplier(d: int) -> MultiplierDescriptor:
    eye = np.eye(d)
    return MultiplierDescriptor(
        shape=(d, d),
        provenance="identity",
        batch=lambda freqs: np.broadcast_to(eye, freqs.shape[:-1] + (d, d)).copy(),
    )
