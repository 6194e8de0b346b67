"""The real-arithmetic kernels against their complex and norm-based formulas.

HalfSpectrum.apply_operator takes one real product per multi-index on the
(re, im) pairs of the coefficients, and torus._lp one power of the squared
fibre norm per point.  kernel_reference keeps the formulas they replace;
both must agree with them to 1e-15 relative.
"""

import math

import numpy as np
import pytest

from kernel_reference import lp, operator_coefficients
from kmslab import torus
from kmslab.operators import MultiIndex, OperatorSpec, catalog_operator
from kmslab.torus import HalfSpectrum, TensorField, TorusGrid, bump_field, random_bandlimited

OPERATORS = [
    "curl_vector", "curl_matrix_rowwise", "divergence", "div_matrix_rowwise",
    "sym_curl_matrix", "sym_gradient",
]


def assert_close(got, want, rtol=1e-15):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def trial_spectra(grid, d):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(d)
    fields = [
        random_bandlimited(grid, d, grid.points_per_axis // 4, seed=3),
        bump_field(grid, np.full(grid.n, math.pi), 0.4, v),
        bump_field(grid, 0.37 + 1.9 * np.arange(grid.n), 0.8, v, zero_mean=False),
    ]
    return [HalfSpectrum.of(fld) for fld in fields]


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("name", OPERATORS)
def test_operator_matches_the_complex_formula(name, m):
    spec = catalog_operator(name, 3)
    for f_hat in trial_spectra(TorusGrid(3, m), spec.d):
        got = f_hat.apply_operator(spec).coefficients
        assert_close(got, operator_coefficients(spec, f_hat.box, f_hat.coefficients))


def test_complex_coefficient_operator_matches_the_complex_formula():
    # order 2, so i^2 = -1 rotates both parts; Im B_alpha is dropped
    grid = TorusGrid(2, 8)
    coeffs = {MultiIndex((2, 0)): [[1 + 2j]], MultiIndex((1, 1)): [[0.5 - 1j]]}
    spec = OperatorSpec("complex_test", n=2, d=1, l=1, k=2, coeffs=coeffs)
    fld = TensorField(grid, np.random.default_rng(3).standard_normal(grid.shape + (1,)))
    f_hat = HalfSpectrum.of(fld)
    got = f_hat.apply_operator(spec).coefficients
    assert_close(got, operator_coefficients(spec, f_hat.box, f_hat.coefficients))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 6.0])
def test_lp_matches_the_fibre_norm_formula(q):
    for grid, d in ((TorusGrid(3, 16), 9), (TorusGrid(2, 8), 1), (TorusGrid(3, 8), 3)):
        values = np.random.default_rng(7).standard_normal(grid.shape + (d,))
        want = lp(grid, values, q)
        assert abs(torus._lp(grid, values, q) - want) <= 1e-15 * want
