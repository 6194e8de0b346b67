"""kms_sides on the real-FFT half spectrum against full-grid references.

The reference below is the full-grid formula (complex transform, multiplier
and symbol on every grid frequency, real part of the inverse).  kms_sides
reads a field as its projection on the trial space without Nyquist rows, so
a field with Nyquist content is held against the reference on that
projection, which fullgrid_reference.nyquist_free computes on the full grid.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fullgrid_reference import (
    SpectrumField,
    frequency_norm2,
    inverse_transform,
    nyquist_free,
    transform,
    zero_mask,
)
from kmslab.operators import (
    MultiIndex,
    OperatorSpec,
    catalog_operator,
    catalog_partmap,
    multiindex_enumerate,
)
from kmslab.torus import (
    HalfSpectrum,
    TensorField,
    TorusGrid,
    apply_operator,
    bump_field,
    lp_norm,
    plane_wave_field,
    random_bandlimited,
)
from kmslab.verify import InequalityConfig, kms_sides, single_frequency_trial, trial_ratio
from table_reference import nyquist_planes

# one exponent per inequality id
CASES = [
    ("korn_ell", None, 2.0),
    ("kms_sym", "sym", 2.0),
    ("asplit", "dev", 2.0),
    ("korn_ellip", "sym", 1.5),
    ("korn_const", "tr", 2.0),
    ("korn_const2_p2", "tr", 2.0),
    ("korn_const_p1", "tr", 1.0),
]
# p != 2 takes inverse transforms
NYQUIST_CASES = CASES + [("korn_ell", None, 1.5), ("korn_const", "tr", 1.5)]


@functools.lru_cache(maxsize=None)
def make_config(ident, part, p, m):
    grid = TorusGrid(3, m)
    if ident == "korn_ell":
        return InequalityConfig(ident, catalog_operator("sym_gradient", 3), None, p, grid)
    op = catalog_operator("curl_matrix_rowwise", 3)
    return InequalityConfig(ident, op, catalog_partmap(part, 3), p, grid)


def reference_sides(cfg, fld):
    """Both sides by the full-grid formula, one complex transform per step."""
    grid = fld.grid
    freqs = grid.frequency_grid.astype(float)

    def spectrum(values):
        return transform(TensorField(grid, values)).coefficients

    def samples(coef):
        return inverse_transform(SpectrumField(grid, coef)).values

    def operator(values):
        f_hat = spectrum(values)
        out = sum(
            alpha.power(1j * freqs)[..., None] * (f_hat @ mat.T)
            for alpha, mat in cfg.operator.coeffs.items()
        )
        return samples(out)

    def lp(values, p):
        return float((np.sum(np.linalg.norm(values, axis=-1) ** p) * grid.cell_volume) ** (1 / p))

    def sobolev(values, m, p):
        if m == 0:
            return lp(values, p)
        f_hat = spectrum(values)
        blocks = [
            math.sqrt(beta.multiplicity()) * samples(beta.power(1j * freqs)[..., None] * f_hat)
            for beta in multiindex_enumerate(grid.n, m)
        ]
        return lp(np.concatenate(blocks, axis=-1), p)

    def negative(values, s):
        nz = ~zero_mask(grid)
        weights = np.zeros(grid.shape)
        weights[nz] = frequency_norm2(grid)[nz] ** (-s)
        return math.sqrt(np.sum(weights * np.sum(np.abs(spectrum(values)) ** 2, axis=-1)))

    k, p, vals = cfg.k, cfg.p, fld.values
    if cfg.inequality_id == "korn_ell":
        return sobolev(vals, k, p), lp(operator(vals), p)
    reduced = vals
    if cfg.correction_enabled:
        table = cfg.correction_descriptor.on_frequencies(grid.frequency_grid)
        reduced = vals - samples(np.einsum("...rc,...c->...r", table, spectrum(vals)))
    a_vals = cfg.part.apply(vals)
    if cfg.inequality_id == "korn_const2_p2":
        return negative(reduced, 1.0), negative(a_vals, 1.0) + negative(operator(vals), float(k))
    q = cfg.p_star
    return sobolev(reduced, k - 1, q), sobolev(a_vals, k - 1, q) + lp(operator(vals), p)


def white_noise(grid, d, seed):
    vals = np.random.default_rng(seed).standard_normal(grid.shape + (d,))
    return TensorField(grid, vals - vals.mean(axis=(0, 1, 2)))


def ratio(cfg, fld):
    return trial_ratio(*kms_sides(cfg, fld))


def close(a, b, rtol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


@pytest.mark.parametrize("ident,part,p", NYQUIST_CASES, ids=str)
def test_nyquist_white_noise_matches_full_grid_reference(ident, part, p):
    cfg = make_config(ident, part, p, 8)
    for seed in range(2):
        fld = white_noise(cfg.grid, cfg.operator.d, seed)
        got = kms_sides(cfg, fld)
        want = reference_sides(cfg, nyquist_free(fld))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w), (got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_white_noise_spectrum_has_no_nyquist_rows(n):
    grid = TorusGrid(n, 8)
    fld = TensorField(grid, np.random.default_rng(n).standard_normal(grid.shape + (2,)))
    coef = HalfSpectrum.of(fld).coefficients
    assert coef.shape == grid.half_shape + (2,)
    assert not np.any(coef[nyquist_planes(grid)])
    assert np.all(coef[~nyquist_planes(grid)] != 0)


@pytest.mark.parametrize("ident,part,p", NYQUIST_CASES, ids=str)
def test_nyquist_content_leaves_kms_sides_unchanged(ident, part, p):
    cfg = make_config(ident, part, p, 8)
    fld = random_bandlimited(cfg.grid, cfg.operator.d, 2, seed=5)
    noise = white_noise(cfg.grid, cfg.operator.d, 6)
    nyquist_only = noise - nyquist_free(noise)
    assert lp_norm(nyquist_only, 2) > lp_norm(fld, 2)
    got, want = kms_sides(cfg, fld + nyquist_only), kms_sides(cfg, fld)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w), (got, want)


# P = cos((M/2) x_1) v lives on the Nyquist rows: its projection on the trial
# space is 0.  With the Nyquist rows kept, every first-order B read 0 on it
# while the left side did not, so these ratios read inf.
SKEW = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / math.sqrt(2)
TRACE_FREE = np.diag([1.0, -1.0, 0.0]) / math.sqrt(2)


@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize(
    "ident,part,p,v",
    [
        ("kms_sym", "sym", 1.5, SKEW),
        ("korn_const", "tr", 1.5, TRACE_FREE),
        ("korn_const2_p2", "tr", 2.0, TRACE_FREE),
    ],
    ids=["kms_sym", "korn_const", "korn_const2_p2"],
)
def test_nyquist_wave_reads_its_projection(ident, part, p, v, m):
    cfg = make_config(ident, part, p, m)
    wave = np.cos((m // 2) * cfg.grid.points[..., 0])[..., None] * v.reshape(9)
    fld = TensorField(cfg.grid, wave)
    lhs, rhs = kms_sides(cfg, fld)
    assert lhs <= 1e-12 * lp_norm(fld, 2)
    assert trial_ratio(lhs, rhs) == 0.0


@pytest.mark.parametrize("zero_mean", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bump_values_are_its_kept_spectrum(n, zero_mean):
    grid = TorusGrid(n, 8)
    for width in (0.4, 0.8):
        fld = bump_field(grid, np.full(n, 1.3), width, np.array([1.0, -2.0]), zero_mean=zero_mean)
        f_hat = HalfSpectrum.of(fld)
        # a box below M/2 holds no Nyquist bin
        assert not np.any(f_hat.box.frequencies == -4)
        scale = np.max(np.abs(fld.values))
        assert np.max(np.abs(f_hat.to_field().values - fld.values)) <= 1e-13 * scale


@pytest.mark.parametrize("p", [1.5, 2.5])
def test_vanishing_correction_bit_for_bit_at_p_not_2(p):
    # at p != 2 korn_const subtracts the samples of the vanishing correction
    # from P; korn_ellip takes P itself
    grid = TorusGrid(3, 8)
    curl, sym = catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("sym", 3)
    const_cfg = InequalityConfig("korn_const", curl, sym, p, grid)
    ellip_cfg = InequalityConfig("korn_ellip", curl, sym, p, grid)
    for seed in range(2):
        fld = random_bandlimited(grid, 9, 2, seed=seed)
        assert kms_sides(const_cfg, fld) == kms_sides(ellip_cfg, fld)


def test_complex_coefficient_operator_matches_full_grid_reference():
    # complex B_alpha: the real part of the inverse keeps Re B_alpha, on the
    # projection of white noise on the trial space
    grid = TorusGrid(2, 8)
    coeffs = {MultiIndex((2, 0)): [[1 + 2j]], MultiIndex((1, 1)): [[0.5 - 1j]]}
    spec = OperatorSpec("complex_test", n=2, d=1, l=1, k=2, coeffs=coeffs)
    fld = TensorField(grid, np.random.default_rng(3).standard_normal(grid.shape + (1,)))
    freqs = grid.frequency_grid.astype(float)
    f_hat = transform(nyquist_free(fld)).coefficients
    symbol = sum(
        a.power(1j * freqs)[..., None] * (f_hat @ np.asarray(m).T) for a, m in coeffs.items()
    )
    want = inverse_transform(SpectrumField(grid, symbol)).values
    assert np.max(np.abs(apply_operator(spec, fld).values - want)) <= 1e-12 * np.max(np.abs(want))


# plane-wave frequencies up to |xi_j| = M/2 - 1, any signs, nonzero
def frequencies(m):
    coord = st.integers(-(m // 2 - 1), m // 2 - 1)
    return st.tuples(coord, coord, coord).filter(any).map(np.array)


SEEDS = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("ident,part,p", CASES, ids=str)
class TestPlaneWaveProperties:
    @given(data=st.data(), seed=SEEDS)
    def test_matches_single_frequency_trial(self, ident, part, p, m, data, seed):
        cfg = make_config(ident, part, p, m)
        xi = data.draw(frequencies(m))
        v = np.random.default_rng(seed).standard_normal(cfg.operator.d)
        exact = single_frequency_trial(cfg, xi, v).ratio
        assert close(ratio(cfg, plane_wave_field(cfg.grid, xi, v)), exact, 1e-9)

    @given(data=st.data(), seed=SEEDS)
    def test_invariant_under_grid_shifts(self, ident, part, p, m, data, seed):
        cfg = make_config(ident, part, p, m)
        shift = data.draw(st.tuples(*[st.integers(0, m - 1)] * 3))
        fld = random_bandlimited(cfg.grid, cfg.operator.d, m // 4, seed=seed)
        moved = TensorField(cfg.grid, np.roll(fld.values, shift, axis=(0, 1, 2)))
        assert close(ratio(cfg, moved), ratio(cfg, fld), 1e-12)

    @given(data=st.data(), seed=SEEDS)
    def test_opposite_frequencies_agree(self, ident, part, p, m, data, seed):
        # complex v: Re(v e^{ix.xi}) and Re(v e^{-ix.xi}) are different fields,
        # mirror images of each other under x -> -x
        cfg = make_config(ident, part, p, m)
        xi = data.draw(frequencies(m))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(cfg.operator.d) + 1j * rng.standard_normal(cfg.operator.d)
        plus = ratio(cfg, plane_wave_field(cfg.grid, xi, v))
        minus = ratio(cfg, plane_wave_field(cfg.grid, -xi, v))
        assert close(plus, minus, 1e-12)
