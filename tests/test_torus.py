import math
import warnings

import numpy as np
import pytest

from fullgrid_reference import (
    SpectrumField,
    constant_field,
    frequency_norm2,
    identity_multiplier,
    inverse_transform,
    transform,
    zero_mask,
)
from kmslab import torus
from kmslab.multipliers import kernel_projection_symbol, mihlin_korn_multiplier
from kmslab.operators import ArgumentError, MultiIndex, catalog_operator, eval_symbol
from kmslab.torus import (
    TensorField,
    TorusGrid,
    apply_multiplier,
    apply_operator,
    bump_cutoff,
    bump_field,
    dual_exponent_chain,
    homog_sobolev_norm,
    lp_norm,
    negative_sobolev_norm_l2,
    plane_wave_field,
    random_bandlimited,
    sobolev_conjugate,
)


class TestTorusGrid:
    def test_validation(self):
        cases = (
            (3, 5, "points_per_axis"),
            (3, 2, "points_per_axis"),
            (0, 8, "n"),
            (3, 8.0, "points_per_axis"),
            (True, 8, "n"),
            (3.0, 8, "n"),
        )
        for n, m, argument in cases:
            with pytest.raises(ArgumentError) as err:
                TorusGrid(n, m)
            assert err.value.argument == argument

    def test_numpy_integer_sizes_are_accepted(self):
        assert TorusGrid(np.int64(3), np.int32(8)).shape == (8, 8, 8)

    def test_frequency_set_closed_under_negation_except_nyquist(self):
        grid = TorusGrid(2, 8)
        freqs = {tuple(f) for f in grid.frequency_grid.reshape(-1, 2)}
        for f in freqs:
            if any(c == -4 for c in f):
                continue
            assert tuple(-c for c in f) in freqs

    def test_canonical_frequencies_halves(self):
        for n, m in [(1, 4), (1, 10), (2, 8), (3, 6), (4, 4)]:
            grid = TorusGrid(n, m)
            flat = grid.frequency_grid.reshape(-1, n)
            full = flat[np.any(flat != 0, axis=1) & ~np.any(flat == -(m // 2), axis=1)]
            canon = grid.canonical_frequencies
            assert not canon.flags.writeable
            assert grid.canonical_frequencies is canon
            assert full.shape[0] == 2 * canon.shape[0]
            # the representative of {xi, -xi} is the one whose leading nonzero is positive
            leading_positive = [xi for xi in full if next(c for c in xi if c != 0) > 0]
            assert canon.dtype == np.int64
            assert np.array_equal(canon, np.array(leading_positive).reshape(-1, n))

    @pytest.mark.parametrize("n,m", [(1, 4), (1, 10), (2, 8), (3, 6), (3, 16), (4, 4)])
    def test_canonical_frequencies_cache_no_frequency_grid(self, n, m):
        # meshed from the axis frequencies and dropped: the same int64 array as
        # the one read off the whole frequency grid, which the grid does not keep
        grid = TorusGrid(n, m)
        canon = grid.canonical_frequencies
        assert "frequency_grid" not in vars(grid)
        flat = TorusGrid(n, m).frequency_grid.reshape(-1, n)
        keep = np.any(flat != 0, axis=1) & ~np.any(flat == -(m // 2), axis=1)
        flat = flat[keep]
        want = flat[flat[np.arange(flat.shape[0]), np.argmax(flat != 0, axis=1)] > 0]
        assert canon.dtype == want.dtype == np.int64
        assert canon.shape == want.shape and np.array_equal(canon, want)

    def test_cell_volume(self):
        grid = TorusGrid(3, 8)
        assert grid.cell_volume == pytest.approx((2 * math.pi / 8) ** 3)


class TestTransform:
    def test_roundtrip(self):
        grid = TorusGrid(3, 8)
        f = random_bandlimited(grid, 4, 3, seed=0)
        back = inverse_transform(transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_constant_field_concentrates_at_zero(self):
        grid = TorusGrid(2, 8)
        f = constant_field(grid, np.array([2.0, -1.0]))
        coef = transform(f).coefficients
        nz = ~zero_mask(grid)
        assert np.max(np.abs(coef[nz])) <= 1e-13
        assert np.linalg.norm(coef[zero_mask(grid)]) > 0

    def test_plane_wave_two_modes(self):
        grid = TorusGrid(2, 8)
        f = plane_wave_field(grid, np.array([1, 2]), np.array([1.0]))
        coef = transform(f).coefficients
        mags = np.abs(coef[..., 0])
        support = np.argwhere(mags > 1e-12)
        assert len(support) == 2
        freqs = {tuple(grid.frequency_grid[tuple(s)]) for s in support}
        assert freqs == {(1, 2), (-1, -2)}

    def test_parseval_direct_sum_oracle(self):
        grid = TorusGrid(2, 16)
        f = random_bandlimited(grid, 3, 5, seed=1)
        direct = math.sqrt(np.sum(np.linalg.norm(f.values, axis=-1) ** 2) * grid.cell_volume)
        assert lp_norm(f, 2) == pytest.approx(direct, rel=1e-13)
        coef = transform(f).coefficients
        assert lp_norm(f, 2) ** 2 == pytest.approx(float(np.sum(np.abs(coef) ** 2)), rel=1e-10)

    def test_real_field_spectrum_conjugate_symmetric(self):
        grid = TorusGrid(2, 8)
        f = random_bandlimited(grid, 2, 3, seed=20)
        coef = transform(f).coefficients
        for idx in np.ndindex(*grid.shape):
            xi = grid.frequency_grid[idx]
            if np.any(xi == -4):  # Nyquist rows have no negation partner
                continue
            partner = tuple((-xi) % 8)
            assert np.allclose(coef[idx], np.conj(coef[partner]), atol=1e-13)


class TestApplyOperator:
    def test_gradient_of_sine(self):
        grid = TorusGrid(3, 16)
        u = TensorField(grid, np.sin(grid.points[..., 0])[..., None])
        du = apply_operator(catalog_operator("gradient", 3), u)
        want = np.zeros(grid.shape + (3,))
        want[..., 0] = np.cos(grid.points[..., 0])
        assert np.max(np.abs(du.values - want)) <= 1e-12

    def test_curl_of_jacobian_vanishes(self):
        grid = TorusGrid(3, 8)
        grad = catalog_operator("gradient", 3)
        u = random_bandlimited(grid, 3, 3, seed=2)
        rows = [apply_operator(grad, TensorField(grid, u.values[..., i : i + 1])).values for i in range(3)]
        jac = TensorField(grid, np.concatenate(rows, axis=-1))
        curl = apply_operator(catalog_operator("curl_matrix_rowwise", 3), jac)
        assert np.max(np.abs(curl.values)) <= 1e-12

    def test_sym_gradient_matches_finite_differences(self):
        # centered differences on a fixed band-limited field: error is O(h^2)
        eps = catalog_operator("sym_gradient", 3)

        def fd_error(m):
            grid = TorusGrid(3, m)
            u = _fixed_smooth_vector_field(grid)
            spectral = apply_operator(eps, u).values
            h = 2 * math.pi / m
            fd = np.zeros_like(spectral)
            for j in range(3):
                dj = (np.roll(u.values, -1, axis=j) - np.roll(u.values, 1, axis=j)) / (2 * h)
                for i in range(3):
                    fd[..., 3 * i + j] += 0.5 * dj[..., i]
                    fd[..., 3 * j + i] += 0.5 * dj[..., i]
            return np.max(np.abs(fd - spectral))

        e16, e32 = fd_error(16), fd_error(32)
        assert e32 <= e16 / 3.0  # second order would give a factor of 4

    def test_fiber_mismatch(self):
        grid = TorusGrid(3, 8)
        u = random_bandlimited(grid, 2, 3, seed=3)
        with pytest.raises(ValueError):
            apply_operator(catalog_operator("gradient", 3), u)


def _fixed_smooth_vector_field(grid):
    x = grid.points
    vals = np.stack(
        [
            np.sin(x[..., 0]) * np.cos(2 * x[..., 1]),
            np.cos(x[..., 1] + x[..., 2]),
            np.sin(x[..., 2]) * np.cos(x[..., 0]),
        ],
        axis=-1,
    )
    return TensorField(grid, vals)


class TestApplyMultiplier:
    def test_identity_keeps_zero_mean_field(self):
        grid = TorusGrid(2, 8)
        f = random_bandlimited(grid, 2, 3, seed=4)
        out = apply_multiplier(identity_multiplier(2), f)
        assert np.max(np.abs(out.values - f.values)) <= 1e-12

    def test_identity_annihilates_mean(self):
        grid = TorusGrid(2, 8)
        f = constant_field(grid, np.array([1.0, 2.0]))
        out = apply_multiplier(identity_multiplier(2), f)
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_curl_kernel_projector_fixes_gradients(self):
        grid = TorusGrid(3, 16)
        phi = random_bandlimited(grid, 1, 5, seed=5)
        gradphi = apply_operator(catalog_operator("gradient", 3), phi)
        pi = kernel_projection_symbol(catalog_operator("curl_vector", 3), 2)
        out = apply_multiplier(pi, gradphi)
        assert lp_norm(out - gradphi, 2) <= 1e-10 * lp_norm(gradphi, 2)

    def test_mihlin_reconstructs_derivative_from_sym_gradient(self):
        grid = TorusGrid(3, 16)
        eps = catalog_operator("sym_gradient", 3)
        u = random_bandlimited(grid, 3, 5, seed=6)
        epsu = apply_operator(eps, u)
        m = mihlin_korn_multiplier(eps, MultiIndex((0, 1, 0)), operator_input=True)
        recon = apply_multiplier(m, epsu)
        f_hat = transform(u).coefficients
        want = inverse_transform(
            SpectrumField(grid, 1j * grid.frequency_grid[..., 1:2] * f_hat)
        )
        assert lp_norm(recon - want, 2) <= 1e-10 * lp_norm(want, 2)

    def test_operator_multiplier_commutation(self):
        grid = TorusGrid(3, 8)
        curl = catalog_operator("curl_matrix_rowwise", 3)
        pi = kernel_projection_symbol(curl, 6)
        f = random_bandlimited(grid, 9, 3, seed=7)
        residual = apply_operator(curl, apply_multiplier(pi, f))
        assert np.max(np.abs(transform(residual).coefficients)) <= 1e-10

    def test_shape_mismatch(self):
        grid = TorusGrid(2, 8)
        f = random_bandlimited(grid, 3, 3, seed=8)
        with pytest.raises(ValueError):
            apply_multiplier(identity_multiplier(2), f)


class TestNorms:
    def test_constant_unit_norm_field(self):
        for n, p in [(2, 2.0), (3, 1.0), (2, 6.0)]:
            grid = TorusGrid(n, 8)
            f = constant_field(grid, np.array([1.0]))
            assert lp_norm(f, p) == pytest.approx((2 * math.pi) ** (n / p), rel=1e-12)

    def test_zero_field(self):
        grid = TorusGrid(2, 8)
        assert lp_norm(constant_field(grid, np.zeros(2)), 3.0) == 0.0

    def test_invalid_exponent(self):
        grid = TorusGrid(2, 8)
        with pytest.raises(ValueError):
            lp_norm(constant_field(grid, np.ones(1)), 0.5)

    def test_homog_zero_order_is_lp(self):
        grid = TorusGrid(2, 8)
        f = random_bandlimited(grid, 2, 3, seed=9)
        assert homog_sobolev_norm(f, 0, 3.0) == lp_norm(f, 3.0)

    def test_single_frequency_scaling(self):
        grid = TorusGrid(3, 16)
        xi = np.array([2, -1, 3])
        f = plane_wave_field(grid, xi, np.array([0.7, -0.1, 0.4]))
        scale = math.sqrt(float(xi @ xi))
        for m in (1, 2):
            assert homog_sobolev_norm(f, m, 2.0) == pytest.approx(
                scale**m * lp_norm(f, 2.0), rel=1e-12
            )

    def test_parseval_weight_oracle(self):
        grid = TorusGrid(3, 8)
        f = random_bandlimited(grid, 2, 3, seed=10)
        coef = transform(f).coefficients
        want = math.sqrt(float(np.sum(frequency_norm2(grid)[..., None] * np.abs(coef) ** 2)))
        assert homog_sobolev_norm(f, 1, 2.0) == pytest.approx(want, rel=1e-10)

    def test_absolute_homogeneity_in_field(self):
        grid = TorusGrid(2, 8)
        f = random_bandlimited(grid, 2, 3, seed=11)
        assert homog_sobolev_norm(3.5 * f, 2, 2.5) == pytest.approx(
            3.5 * homog_sobolev_norm(f, 2, 2.5), rel=1e-12
        )

    def test_requires_zero_mean(self):
        grid = TorusGrid(2, 8)
        f = constant_field(grid, np.array([1.0]))
        with pytest.raises(ValueError):
            homog_sobolev_norm(f, 1, 2.0)

    @pytest.mark.parametrize("m", [1.5, 1.0, True, "1", None])
    def test_refuses_an_order_that_is_not_an_integer(self, m, monkeypatch):
        f = random_bandlimited(TorusGrid(2, 8), 2, 3, seed=12)
        # before any transform
        monkeypatch.setattr(torus, "_slabs", None)
        monkeypatch.setattr(torus, "_forward", None)
        with pytest.raises(ArgumentError) as caught:
            homog_sobolev_norm(f, m, 2.5)
        assert caught.value.argument == "m"

    def test_refuses_a_negative_order(self):
        f = random_bandlimited(TorusGrid(2, 8), 2, 3, seed=12)
        with pytest.raises(ArgumentError, match="derivative order must be >= 0") as caught:
            homog_sobolev_norm(f, -1, 2.0)
        assert caught.value.argument == "m"
        assert homog_sobolev_norm(f, np.int64(1), 2.5) == homog_sobolev_norm(f, 1, 2.5)


class TestNegativeSobolev:
    def test_single_frequency_value(self):
        grid = TorusGrid(3, 16)
        xi = np.array([2, 0, 1])
        f = plane_wave_field(grid, xi, np.array([1.0, 0.0]))
        want = lp_norm(f, 2) * float(xi @ xi) ** -0.5
        assert negative_sobolev_norm_l2(f, 1.0) == pytest.approx(want, rel=1e-12)

    def test_order_zero_is_l2(self):
        grid = TorusGrid(2, 8)
        f = random_bandlimited(grid, 2, 3, seed=12)
        assert negative_sobolev_norm_l2(f, 0.0) == pytest.approx(lp_norm(f, 2), rel=1e-12)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, True, False, "1", None, 1j])
    def test_refuses_an_order_that_is_not_a_finite_real(self, s, monkeypatch):
        f = random_bandlimited(TorusGrid(2, 8), 2, 3, seed=1)
        # before any transform
        monkeypatch.setattr(torus, "_slabs", None)
        monkeypatch.setattr(torus, "_forward", None)
        with pytest.raises(ArgumentError) as caught:
            negative_sobolev_norm_l2(f, s)
        assert caught.value.argument == "s"

    def test_refuses_a_negative_order(self):
        f = random_bandlimited(TorusGrid(2, 8), 2, 3, seed=1)
        with pytest.raises(ArgumentError, match="order s must be >= 0") as caught:
            negative_sobolev_norm_l2(f, -0.5)
        assert caught.value.argument == "s"
        assert negative_sobolev_norm_l2(f, np.float64(1.5)) == negative_sobolev_norm_l2(f, 1.5)
        assert negative_sobolev_norm_l2(f, np.int64(1)) == negative_sobolev_norm_l2(f, 1.0)

    def test_duality_cauchy_schwarz(self):
        grid = TorusGrid(2, 16)
        f = random_bandlimited(grid, 1, 5, seed=13)
        g = random_bandlimited(grid, 1, 5, seed=14)
        inner = float(np.sum(f.values * g.values)) * grid.cell_volume
        for s in (1, 2):
            bound = negative_sobolev_norm_l2(f, float(s)) * homog_sobolev_norm(g, s, 2.0)
            assert abs(inner) <= bound + 1e-10


class TestExponents:
    def test_examples(self):
        assert sobolev_conjugate(2, 3) == pytest.approx(6.0)
        assert sobolev_conjugate(1, 3) == pytest.approx(1.5)
        q, qd = dual_exponent_chain(2, 3)
        assert q == pytest.approx(1.2)
        assert qd == pytest.approx(6.0)

    def test_rejects_supercritical(self):
        with pytest.raises(ValueError):
            sobolev_conjugate(3, 3)
        with pytest.raises(ValueError):
            sobolev_conjugate(4, 3)

    def test_chain_closes_random(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = float(rng.uniform(1.0 + 1e-6, n - 1e-6))
            q, qd = dual_exponent_chain(p, n)
            assert abs(qd - sobolev_conjugate(p, n)) <= 1e-12 * sobolev_conjugate(p, n)


class TestGenerators:
    def test_random_deterministic(self):
        grid = TorusGrid(2, 8)
        a = random_bandlimited(grid, 2, 3, seed=17)
        b = random_bandlimited(grid, 2, 3, seed=17)
        assert np.array_equal(a.values, b.values)

    def test_random_zero_mean_and_bandlimited(self):
        grid = TorusGrid(2, 16)
        f = random_bandlimited(grid, 2, 3, seed=18)
        assert f.is_zero_mean
        coef = transform(f).coefficients
        outside = np.any(np.abs(grid.frequency_grid) > 3, axis=-1)
        assert np.max(np.abs(coef[outside])) <= 1e-12

    def test_cutoff_validation(self):
        grid = TorusGrid(2, 8)
        with pytest.raises(ValueError):
            random_bandlimited(grid, 2, 4, seed=0)

    def test_plane_wave_single_mode_calculus(self):
        grid = TorusGrid(3, 16)
        curl = catalog_operator("curl_matrix_rowwise", 3)
        xi = np.array([1, 2, -1])
        rng = np.random.default_rng(19)
        v = rng.standard_normal(9)
        f = plane_wave_field(grid, xi, v)
        out = apply_operator(curl, f)
        coef = transform(out).coefficients
        idx = tuple(np.argwhere(np.all(grid.frequency_grid == xi, axis=-1))[0])
        got = coef[idx]
        base = transform(f).coefficients[idx]
        want = 1j * eval_symbol(curl, xi.astype(float)) @ base
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n,m", [(1, 8), (2, 16), (3, 8), (3, 32), (4, 8)])
    def test_a_plane_wave_caches_no_sample_points(self, n, m):
        # x . xi is a broadcast sum of per-axis phases; it agrees with the phase
        # read off the whole array of sample points to 1e-15 of its largest
        # value, and the samples agree to the same roundoff
        rng = np.random.default_rng(n * m)
        for _ in range(5):
            grid = TorusGrid(n, m)
            xi = rng.integers(-(m // 2 - 1), m // 2, size=n)
            xi[0] = xi[0] or 1
            v = rng.standard_normal(3)
            got = plane_wave_field(grid, xi, v).values
            assert "points" not in vars(grid)
            phase = grid.points @ xi.astype(float)
            want = (np.exp(1j * phase)[..., None] * v).real
            tol = 1e-15 * np.max(np.abs(phase)) * np.linalg.norm(v)
            assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("xi0", [(0, 0), (-4, 1), (4, 0), (1, 0.5), (1, 2, 3)])
    def test_plane_wave_rejections_name_xi0(self, xi0):
        with pytest.raises(ArgumentError) as err:
            plane_wave_field(TorusGrid(2, 8), np.array(xi0), np.array([1.0]))
        assert err.value.argument == "xi0"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_frequency_is_refused_before_any_cast(self, bad):
        # the int64 cast of rint(nan) warns: the refusal must come first, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError) as err:
                plane_wave_field(TorusGrid(3, 8), [bad, 0, 0], np.ones(3))
        assert err.value.argument == "xi0"

    @pytest.mark.parametrize(
        "argument,center,width",
        [
            ("width", (1.0, 2.0), 0.0),
            ("width", (1.0, 2.0), -0.5),
            ("width", (1.0, 2.0), math.inf),
            ("width", (1.0, 2.0), math.nan),
            ("width", (1.0, 2.0), True),
            ("width", (1.0, 2.0), "0.5"),
            ("center", (1.0,), 0.5),
            ("center", (1.0, 2.0, 3.0), 0.5),
        ],
    )
    def test_bump_rejections_name_the_argument(self, argument, center, width):
        with pytest.raises(ArgumentError) as err:
            bump_field(TorusGrid(2, 8), np.array(center), width, np.array([1.0]))
        assert err.value.argument == argument

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, -math.inf, math.nan, True, False, "0.5", None])
    def test_bump_cutoff_refuses_a_width_that_is_not_positive_and_finite(self, width):
        # no ZeroDivisionError at width 0, and no cutoff of -8 or 0 for widths -1 and inf
        with pytest.raises(ArgumentError) as err:
            bump_cutoff(TorusGrid(3, 8), width)
        assert err.value.argument == "width"

    @pytest.mark.parametrize(
        "make",
        [
            lambda grid: bump_field(grid, np.zeros(2), 0.5, np.ones(0)),
            lambda grid: plane_wave_field(grid, np.array([1, 0]), np.ones(0)),
        ],
        ids=["bump", "plane-wave"],
    )
    def test_an_empty_fibre_vector_is_refused(self, make):
        # a d = 0 field, which random_bandlimited refuses too
        with pytest.raises(ArgumentError) as err:
            make(TorusGrid(2, 8))
        assert err.value.argument == "v"

    def test_bump_l1_matches_gaussian_integral(self):
        # midpoint rule on a width-0.5 periodic Gaussian at M = 64 is
        # spectrally accurate; compare against the whole-space integral
        grid = TorusGrid(3, 64)
        v = np.array([2.0])
        width = 0.5
        f = bump_field(grid, np.full(3, math.pi), width, v, zero_mean=False)
        want = float(np.linalg.norm(v)) * (width * math.sqrt(2 * math.pi)) ** 3
        assert lp_norm(f, 1) == pytest.approx(want, rel=1e-3)

    def test_bump_zero_mean_default(self):
        grid = TorusGrid(2, 16)
        f = bump_field(grid, np.array([1.0, 2.0]), 0.4, np.array([1.0, -1.0]))
        assert f.is_zero_mean
