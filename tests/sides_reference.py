"""The whole-box composition of kms_sides that the tests hold the streamed one against.

sides is kms_sides as it was composed before the spectrum was streamed:
B P, corr P, A P and the derivative blocks each formed on the whole box,
every L^2 norm one Parseval sum of its whole spectrum, and every L^q norm
one L^q sum over a sample array of the whole grid (R's for the left and A
sides).  operator_spectrum is B[i xi] as one real product per alpha over
every bin at once, the shape numpy hands BLAS for a whole box.  The inverse
transform is generator_reference.copying_irfftn.  Only the correction's
table and its apply are kmslab's own.
"""

import math

import numpy as np

from generator_reference import copying_irfftn
from kmslab.operators import multiindex_enumerate
from kmslab.torus import HalfSpectrum
from kmslab.verify import _negligible_as_zero

_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def operator_spectrum(spec, box, coef):
    """B u from the half spectrum coef on box: one real product per alpha over all bins."""
    pairs = np.ascontiguousarray(coef).view(float).reshape(-1, 2 * coef.shape[-1])
    rotation = np.linalg.matrix_power(_QUARTER_TURN, spec.k % 4)
    xi = box.frequencies.reshape(-1, box.grid.n).astype(float)
    out = np.zeros((pairs.shape[0], 2 * spec.l))
    term = np.empty_like(out)
    for alpha, mat in spec.coeffs.items():
        np.matmul(pairs, np.kron(mat.real.T, rotation), out=term)
        term *= alpha.power(xi)[:, None]
        out += term
    return out.view(complex).reshape(coef.shape[:-1] + (spec.l,))


def parseval(box, coef, weight=None):
    pairs = np.ascontiguousarray(coef).view(float)
    power = np.einsum("...j,...j->...", pairs, pairs)
    weights = box.parseval_weights if weight is None else box.parseval_weights * weight
    return math.sqrt(float(np.vdot(weights, power)))


def lp(grid, values, p):
    power = np.einsum("...j,...j->...", values, values)
    return float((np.sum(power ** (p / 2.0)) * grid.cell_volume) ** (1.0 / p))


def samples(box, coef):
    values = copying_irfftn(box, coef)
    values /= box.grid.spectrum_scale
    return values


def derivative(box, coef, m):
    if m == 0:
        return coef
    indices = multiindex_enumerate(box.grid.n, m)
    out = np.empty(coef.shape[:-1] + (len(indices), coef.shape[-1]), dtype=complex)
    i_xi = 1j * box.frequencies.astype(float)
    for b, beta in enumerate(indices):
        weight = math.sqrt(beta.multiplicity()) * beta.power(i_xi)
        out[..., b, :] = weight[..., None] * coef
    return out.reshape(coef.shape[:-1] + (-1,))


def sobolev_norm(box, coef, m, p):
    if m < 0:
        norm2 = box.frequency_norm2
        weight = np.zeros_like(norm2)
        nz = ~box.zero_mask
        weight[nz] = norm2[nz] ** float(m)
        return parseval(box, coef, weight)
    blocks = derivative(box, coef, m)
    if p == 2:
        return parseval(box, blocks)
    return lp(box.grid, samples(box, blocks), p)


def sobolev_norms(box, coef, m, p, part):
    values = samples(box, derivative(box, coef, m))
    d = part.d
    blocks = [part.apply(values[..., j : j + d]) for j in range(0, values.shape[-1], d)]
    mapped = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)
    return lp(box.grid, values, p), lp(box.grid, mapped, p)


def sides(config, fld):
    """kms_sides(config, fld), composed on the whole box."""
    f_hat = HalfSpectrum.of(fld)
    box, coef = f_hat.box, f_hat.coefficients
    (m, q), (b_order, b_q) = config.norms
    b_norm = sobolev_norm(box, operator_spectrum(config.operator, box, coef), b_order, b_q)
    if config.part is None:
        lhs, rhs = sobolev_norm(box, coef, m, q), b_norm
    else:
        r_coef = coef
        if config.correction_enabled:
            c = f_hat.apply_multiplier(config.correction_descriptor).coefficients
            r_coef = np.subtract(coef, c, out=c)
        if q == 2:
            a_norm = sobolev_norm(box, config.part.apply(coef), m, q)
            lhs, rhs = sobolev_norm(box, r_coef, m, q), a_norm + b_norm
        else:
            lhs, a_norm = sobolev_norms(box, r_coef, m, q, config.part)
            rhs = a_norm + b_norm
    out = _negligible_as_zero(sobolev_norm(box, coef, 0, 2.0), lhs, rhs)
    return float(out[0]), float(out[1])
