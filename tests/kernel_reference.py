"""Formulas that the tests hold kmslab's real-arithmetic kernels and lazy samples against.

operator_coefficients is B[i xi] on a half spectrum in complex arithmetic,
sum over alpha of (i xi)^alpha (coef @ Re B_alpha^T); lp is the discrete L^p
norm through the Euclidean norm of each fibre value; bump_samples is the
product of a Gaussian bump's 1-D profiles, made as the bump is built.
"""

import math
from functools import reduce

import numpy as np


def operator_coefficients(spec, box, coef):
    """B u from the half spectrum coef on box, one complex product per alpha."""
    i_xi = 1j * box.frequencies.astype(float)
    out = np.zeros(coef.shape[:-1] + (spec.l,), dtype=complex)
    for alpha, mat in spec.coeffs.items():
        out += alpha.power(i_xi)[..., None] * (coef @ mat.real.T)
    return out


def lp(grid, values, p):
    """(sum of |v|^p over the grid points, times the cell volume)^(1/p)."""
    point_norms = np.linalg.norm(values, axis=-1)
    return float((np.sum(point_norms**p) * grid.cell_volume) ** (1.0 / p))


def bump_samples(grid, center, width, v, zero_mean=True):
    """The samples of bump_field(grid, center, width, v, zero_mean), Nyquist terms dropped."""
    m = grid.points_per_axis
    axis = 2.0 * math.pi * np.arange(m) / m
    nyquist_mode = np.where(np.arange(m) % 2 == 0, 1.0 / m, -1.0 / m)
    profiles = []
    for j, c in enumerate(np.asarray(center, dtype=float)):
        distance = (axis - c + math.pi) % (2.0 * math.pi) - math.pi
        profile = np.exp(-(distance**2) / (2.0 * width**2))
        transform = np.fft.rfftn if j == grid.n - 1 else np.fft.fftn
        nyquist = transform(profile, axes=(0,))[m // 2].real
        profiles.append(profile - nyquist * nyquist_mode)
    profile = reduce(np.multiply.outer, profiles)
    if zero_mean:
        profile -= math.prod(p.mean() for p in profiles)
    return profile[..., None] * np.asarray(v, dtype=float)
