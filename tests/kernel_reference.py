"""Formulas that the tests hold kmslab's real-arithmetic kernels and trial sides against.

operator_coefficients is B[i xi] on a half spectrum in complex arithmetic,
sum over alpha of (i xi)^alpha (coef @ Re B_alpha^T); lp is the discrete L^p
norm through the Euclidean norm of each fibre value; corrected_sides is
both sides of a corrected trial with the samples of P and of corr P taken
apart and A applied to P's samples.
"""

import math

import numpy as np

from kmslab import torus
from kmslab.torus import HalfSpectrum


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


def _gradient_blocks(box, coef, m):
    """coef, or for m = 1 its gradient blocks i xi_j coef stacked on the fibre axis."""
    if m == 0:
        return coef
    assert m == 1
    i_xi = 1j * box.frequencies.astype(float)
    return np.concatenate([i_xi[..., j, None] * coef for j in range(box.grid.n)], axis=-1)


def _negative_norm(box, coef, s):
    """(sum over xi != 0 of |xi|^(-2s) |coef(xi)|^2, each bin with its Parseval weight)^(1/2)."""
    norm2 = np.where(box.zero_mask, np.inf, box.frequency_norm2)
    weight = norm2**-s * box.parseval_weights
    return math.sqrt(float(np.sum(weight * np.sum(np.abs(coef) ** 2, axis=-1))))


def corrected_sides(config, fld):
    """(lhs, rhs) of kms_sides for a config with a correction, by subtracting samples.

    The left side is |grad^m P - grad^m corr P|_q, each term's samples taken
    on its own; the A side is |A grad^m P|_q, A applied to P's samples
    (block by block for m = 1).  m = k - 1 <= 1 and q = p*; korn_const2_p2
    reads the Fourier weights of P^ - corr P^, A P^ and B P^ instead.
    |B P|_p is the norm of the samples of B P, which at p = 2 is the
    Parseval sum to roundoff.  P^ is HalfSpectrum.of(fld): no Nyquist rows.
    """
    grid, part = config.grid, config.part
    f_hat = HalfSpectrum.of(fld)
    box, coef = f_hat.box, f_hat.coefficients
    corr = config.correction_descriptor.grid_table(grid).apply(box, coef)
    b_coef = operator_coefficients(config.operator, box, coef)
    if config.inequality_id == "korn_const2_p2":
        lhs = _negative_norm(box, coef - corr, 1.0)
        a_norm = _negative_norm(box, coef @ part.matrix.T, 1.0)
        return lhs, a_norm + _negative_norm(box, b_coef, float(config.k))
    m, q, d = config.k - 1, config.p_star, config.operator.d
    p_samples = torus._inverse(box, _gradient_blocks(box, coef, m))
    lhs = lp(grid, p_samples - torus._inverse(box, _gradient_blocks(box, corr, m)), q)
    a_samples = np.concatenate(
        [p_samples[..., j : j + d] @ part.matrix.T for j in range(0, p_samples.shape[-1], d)],
        axis=-1,
    )
    b_norm = lp(grid, torus._inverse(box, b_coef), config.p)
    return lhs, lp(grid, a_samples, q) + b_norm
