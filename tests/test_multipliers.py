import numpy as np
import pytest

from fullgrid_reference import half_frequency_grid, identity_multiplier
from kmslab.classify import SphereSampling
from kmslab.multipliers import (
    ConstantRankViolation,
    MultiplierConstructionError,
    composed_correction_symbol,
    infer_constant_rank,
    kernel_projection_symbol,
    mihlin_korn_multiplier,
    pseudoinverse_symbol,
)
from kmslab.operators import (
    CATALOG_OPERATORS,
    CATALOG_PARTMAPS,
    MultiIndex,
    catalog_operator,
    catalog_partmap,
    eval_symbol,
    restrict_symbol,
    symbol_on_frequencies,
)
from table_reference import nyquist_planes


def unit_frequencies(n, count, seed):
    return SphereSampling.standard(n, count=count, seed=seed).points


class TestMihlinKorn:
    def test_gradient_reconstruction_identity(self):
        grad = catalog_operator("gradient", 3)
        m = mihlin_korn_multiplier(grad, MultiIndex((1, 0, 0)))
        rng = np.random.default_rng(0)
        xi = rng.standard_normal(3)
        lhs = m.evaluate(xi) @ eval_symbol(grad, xi)
        assert np.allclose(lhs, 1j * xi[0] * np.eye(1), atol=1e-13)
        # (B*B)^{-1} B* is xi^T / |xi|^2 for the gradient
        assert np.allclose(m.evaluate(xi), 1j * xi[0] * xi[None, :] / (xi @ xi), atol=1e-13)

    def test_sym_gradient_identity_random(self):
        eps = catalog_operator("sym_gradient", 3)
        alpha = MultiIndex((0, 0, 1))
        m = mihlin_korn_multiplier(eps, alpha)
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi = rng.standard_normal(3)
            v = rng.standard_normal(3)
            lhs = m.evaluate(xi) @ (eval_symbol(eps, xi) @ v)
            assert np.linalg.norm(lhs - alpha.power(1j * xi) * v) <= 1e-12

    def test_homogeneity_on_rays(self):
        # |alpha| = k = 1: degree 0
        eps = catalog_operator("sym_gradient", 3)
        m = mihlin_korn_multiplier(eps, MultiIndex((0, 1, 0)))
        rng = np.random.default_rng(2)
        for _ in range(20):
            xi = rng.standard_normal(3)
            c = float(rng.uniform(0.3, 4.0))
            base = m.evaluate(xi)
            assert np.allclose(m.evaluate(c * xi), base, atol=1e-12)

    def test_mihlin_derivative_decay(self):
        # |Dm(c xi)| ~ |Dm(xi)| / c on rays: finite-difference check of the
        # first-order Mihlin bound for the degree-0 multiplier
        eps = catalog_operator("sym_gradient", 3)
        m = mihlin_korn_multiplier(eps, MultiIndex((1, 0, 0)))
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            eta = rng.standard_normal(3)
            eta /= np.linalg.norm(eta)

            def fd(point, step):
                return np.linalg.norm(
                    m.evaluate(point + step * eta) - m.evaluate(point - step * eta)
                ) / (2 * step)

            d1 = fd(xi, h)
            c = 3.0
            d2 = fd(c * xi, c * h)
            assert d2 <= d1 / c * 1.01 + 1e-9

    def test_non_elliptic_rejected_with_frequency(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        m = mihlin_korn_multiplier(curl, MultiIndex((1, 0, 0)))
        with pytest.raises(MultiplierConstructionError) as err:
            m.evaluate(np.array([1.0, 0.0, 0.0]))
        assert "frequency" in str(err.value)

    def test_alpha_order_limit(self):
        grad = catalog_operator("gradient", 3)
        with pytest.raises(ValueError):
            mihlin_korn_multiplier(grad, MultiIndex((1, 1, 0)))


def tall_restricted_symbols():
    """Every catalog operator restricted to ker A of a catalog part map, with l >= d > 0, by name."""
    out = {}
    for n in (2, 3, 4):
        for op in CATALOG_OPERATORS:
            try:
                spec = catalog_operator(op, n)
            except ValueError:
                continue
            for part in CATALOG_PARTMAPS:
                matrix = part in ("sym", "dev", "tr", "skew")
                if matrix and spec.d != n * n:
                    continue
                restricted = restrict_symbol(spec, catalog_partmap(part, n, dim=None if matrix else spec.d))
                if 0 < restricted.d <= restricted.l:
                    out[f"{op}/{part}/n{n}"] = restricted
    return out


class TestKernelProjection:
    def test_curl_vector_projector_closed_form(self):
        curl = catalog_operator("curl_vector", 3)
        pi = kernel_projection_symbol(curl, 2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi = rng.standard_normal(3)
            assert np.allclose(pi.evaluate(xi), np.outer(xi, xi) / (xi @ xi), atol=1e-12)

    def test_rowwise_curl_projector_row_structure(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        pi = kernel_projection_symbol(curl, 6)
        rng = np.random.default_rng(5)
        xi = rng.standard_normal(3)
        want = np.kron(np.eye(3), np.outer(xi, xi) / (xi @ xi))
        assert np.allclose(pi.evaluate(xi), want, atol=1e-12)

    def test_elliptic_projector_vanishes(self):
        eps = catalog_operator("sym_gradient", 3)
        pi = kernel_projection_symbol(eps, 3)
        assert np.allclose(pi.evaluate(np.array([1.0, -2.0, 0.5])), 0.0)

    def test_projection_identities_sampled(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        pi = kernel_projection_symbol(curl, 6)
        pts = unit_frequencies(3, 1000, seed=6)
        mats = pi.on_frequencies(pts)
        sym = np.swapaxes(mats, -1, -2).conj()
        assert np.max(np.abs(mats @ mats - mats)) <= 1e-12
        assert np.max(np.abs(mats - sym)) <= 1e-12
        from kmslab.operators import symbol_on_frequencies

        bsym = symbol_on_frequencies(curl, pts)
        assert np.max(np.abs(bsym @ mats)) <= 1e-12

    def test_rank_violation_named(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        pi = kernel_projection_symbol(curl, 4)
        with pytest.raises(ConstantRankViolation) as err:
            pi.evaluate(np.array([0.0, 1.0, 0.0]))
        assert "frequency" in str(err.value)

    def test_thin_factorisation_of_a_tall_or_square_symbol_is_the_full_one(self):
        # a symbol with l >= d is factorised thinly: its s and vh are those of
        # the full factorisation, bit for bit, and so is the projector
        symbols = tall_restricted_symbols()
        assert len(symbols) == 22
        for name, spec in symbols.items():
            lattice = np.argwhere(np.ones((7,) * spec.n)) - 3.0
            lattice = lattice[np.any(lattice != 0, axis=1)]
            freqs = np.concatenate([unit_frequencies(spec.n, 256, seed=3), lattice])
            sym = symbol_on_frequencies(spec, freqs)
            _, s, vh = np.linalg.svd(sym, full_matrices=True)
            _, thin_s, thin_vh = np.linalg.svd(sym, full_matrices=False)
            assert np.array_equal(s, thin_s) and np.array_equal(vh, thin_vh), name
            rank = infer_constant_rank(spec)
            vker = np.swapaxes(vh[..., rank:, :], -1, -2).conj()
            want = vker @ np.swapaxes(vker, -1, -2).conj()
            assert np.array_equal(kernel_projection_symbol(spec, rank).batch(freqs), want), name

    def test_zero_spec_projector_is_identity(self):
        restricted = restrict_symbol(
            catalog_operator("sym_curl_matrix", 3), catalog_partmap("dev", 3)
        )
        pi = kernel_projection_symbol(restricted, 0)
        assert np.allclose(pi.evaluate(np.array([1.0, 2.0, 3.0])), np.eye(1))


class TestPseudoinverse:
    def test_full_rank_matches_normal_equations(self):
        eps = catalog_operator("sym_gradient", 3)
        dag = pseudoinverse_symbol(eps, 3)
        rng = np.random.default_rng(7)
        xi = rng.standard_normal(3)
        B = eval_symbol(eps, xi)
        want = np.linalg.inv(B.T @ B) @ B.T
        assert np.allclose(dag.evaluate(xi), want, atol=1e-11)

    def test_curl_vector_unit_norm(self):
        # nonzero singular values of v -> xi x v are both |xi|
        curl = catalog_operator("curl_vector", 3)
        dag = pseudoinverse_symbol(curl, 2)
        rng = np.random.default_rng(8)
        for _ in range(10):
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            s = np.linalg.svd(eval_symbol(curl, xi), compute_uv=False)
            assert np.allclose(s, [1.0, 1.0, 0.0], atol=1e-12)
            assert np.linalg.norm(dag.evaluate(xi), 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_spec_pseudoinverse_zero(self):
        restricted = restrict_symbol(
            catalog_operator("sym_curl_matrix", 3), catalog_partmap("dev", 3)
        )
        dag = pseudoinverse_symbol(restricted, 0)
        assert np.allclose(dag.evaluate(np.array([0.3, 1.0, -2.0])), 0.0)

    def test_pinv_plus_projector_is_identity(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        dag = pseudoinverse_symbol(curl, 6)
        pi = kernel_projection_symbol(curl, 6)
        pts = unit_frequencies(3, 200, seed=9)
        for xi in pts[:50]:
            B = eval_symbol(curl, xi)
            assert np.max(np.abs(dag.evaluate(xi) @ B + pi.evaluate(xi) - np.eye(9))) <= 1e-12

    def test_homogeneity_degree(self):
        curl = catalog_operator("curl_vector", 3)
        dag = pseudoinverse_symbol(curl, 2)
        rng = np.random.default_rng(10)
        xi = rng.standard_normal(3)
        assert np.allclose(dag.evaluate(2.0 * xi), dag.evaluate(xi) / 2.0, atol=1e-12)


class TestFonsecaMuellerEstimate:
    def test_per_frequency_inequality(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        pi = kernel_projection_symbol(curl, 6)
        dag = pseudoinverse_symbol(curl, 6)
        rng = np.random.default_rng(11)
        pts = unit_frequencies(3, 100, seed=12)
        c = max(np.linalg.norm(dag.evaluate(xi), 2) for xi in pts)
        for _ in range(1000):
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            v = rng.standard_normal(9)
            v /= np.linalg.norm(v)
            lhs = np.linalg.norm(v - pi.evaluate(xi) @ v)
            rhs = c * np.linalg.norm(eval_symbol(curl, xi) @ v)
            assert lhs <= rhs + 1e-10


class TestComposedCorrection:
    def test_zero_part_reduces_to_kernel_projection(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        zero = catalog_partmap("zero", 3)
        corr = composed_correction_symbol(curl, zero)
        pi = kernel_projection_symbol(curl, 6)
        rng = np.random.default_rng(13)
        xi = rng.standard_normal(3)
        assert np.allclose(corr.evaluate(xi), pi.evaluate(xi), atol=1e-12)

    def test_identity_part_gives_zero_multiplier(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        ident = catalog_partmap("identity", 3)
        corr = composed_correction_symbol(curl, ident)
        assert np.allclose(corr.evaluate(np.array([1.0, 0.0, 2.0])), 0.0)

    def test_restricted_vanishes_when_elliptic_on_kernel(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        sym = catalog_partmap("sym", 3)
        corr = composed_correction_symbol(curl, sym)
        pts = unit_frequencies(3, 64, seed=14)
        assert np.max(np.abs(corr.on_frequencies(pts))) <= 1e-12

    def test_full_composition_matches_riesz_closed_form(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        tr = catalog_partmap("tr", 3)
        dev = catalog_partmap("dev", 3)
        corr = composed_correction_symbol(curl, tr, projector="full")
        rng = np.random.default_rng(15)
        for _ in range(10):
            xi = rng.standard_normal(3)
            u = xi / np.linalg.norm(xi)
            want = np.kron(np.eye(3), np.outer(u, u)) @ dev.matrix
            assert np.allclose(np.real(corr.evaluate(xi)), want, atol=1e-12)

    def test_restricted_and_full_agree_on_witnesses(self):
        # both projector choices fix fields valued in ker(tr) cap ker B[xi]
        curl = catalog_operator("curl_matrix_rowwise", 3)
        tr = catalog_partmap("tr", 3)
        restricted = composed_correction_symbol(curl, tr, projector="restricted")
        full = composed_correction_symbol(curl, tr, projector="full")
        rng = np.random.default_rng(16)
        for _ in range(10):
            xi = rng.standard_normal(3)
            a = rng.standard_normal(3)
            a -= (a @ xi) / (xi @ xi) * xi
            w = np.outer(a, xi).reshape(9)
            assert np.linalg.norm(np.real(restricted.evaluate(xi)) @ w - w) <= 1e-12
            assert np.linalg.norm(np.real(full.evaluate(xi)) @ w - w) <= 1e-12

    def test_restricted_projector_is_projector(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        tr = catalog_partmap("tr", 3)
        corr = composed_correction_symbol(curl, tr)
        rng = np.random.default_rng(17)
        xi = rng.standard_normal(3)
        mat = np.real(corr.evaluate(xi))
        assert np.allclose(mat @ mat, mat, atol=1e-12)

    def test_infer_constant_rank(self):
        assert infer_constant_rank(catalog_operator("curl_matrix_rowwise", 3)) == 6
        assert infer_constant_rank(catalog_operator("gradient", 3)) == 1


class TestDescriptorPlumbing:
    def test_identity_descriptor(self):
        ident = identity_multiplier(4)
        assert np.allclose(ident.evaluate(np.array([1.0, 2.0])), np.eye(4))

    def test_zero_mode_annihilated_on_grid(self):
        from kmslab.torus import TorusGrid

        grid = TorusGrid(2, 4)
        ident = identity_multiplier(2)
        table = ident.grid_table(grid)
        assert np.allclose(table.matrices((0, 0)), 0.0)
        assert np.allclose(table.matrices((1, 0)), np.eye(2))

    def test_grid_table_cached(self):
        from kmslab.torus import TorusGrid

        grid = TorusGrid(2, 4)
        ident = identity_multiplier(2)
        assert ident.grid_table(grid) is ident.grid_table(grid)

    def test_next_grid_table_replaces_the_cached_one(self):
        import gc
        import weakref

        from kmslab.torus import TorusGrid

        ident = identity_multiplier(2)
        first = weakref.ref(ident.grid_table(TorusGrid(2, 4)))
        second = ident.grid_table(TorusGrid(2, 8))
        gc.collect()
        assert first() is None
        assert second.shape == (8, 5, 2, 2)
        assert ident.grid_table(TorusGrid(2, 8)) is second

    def test_compact_table_build_and_field_estimate_peak_memory(self):
        # korn_const (A = tr) at M = 32: the dense half-grid table took
        # 11,280,384 bytes; the compact table's build peaks below that, and a
        # whole estimate over the benchmark's field family below 20 MB
        import tracemalloc

        from kmslab.torus import TorusGrid
        from kmslab.verify import FieldFamily, InequalityConfig, estimate_constant

        curl, tr = catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3)
        desc = composed_correction_symbol(curl, tr)
        cfg = InequalityConfig("korn_const", curl, tr, 2.0, TorusGrid(3, 32))
        family = FieldFamily(sweep=False, random_trials=4, bump_widths=(0.4, 0.8), witness=False)
        peaks = []
        runs = (lambda: desc.grid_table(TorusGrid(3, 32)), lambda: estimate_constant(cfg, family))
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 11_280_384
        assert peaks[1] < 20_000_000

    @pytest.mark.parametrize(
        "make",
        [
            lambda spec: mihlin_korn_multiplier(spec, MultiIndex((1, 0, 0))),
            lambda spec: pseudoinverse_symbol(spec, rank=3),
        ],
        ids=["mihlin_korn", "pseudoinverse"],
    )
    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_grid_table_refuses_non_hermitian_multiplier(self, make, scale):
        # first-order real symbol: m(-xi) = -conj m(xi), which maps real
        # fields to complex ones; the check is relative, so scaling the
        # symbol, and with it the deviation, changes nothing
        from kmslab.operators import OperatorSpec
        from kmslab.torus import TensorField, TorusGrid, apply_multiplier

        grid = TorusGrid(3, 4)
        eps = catalog_operator("sym_gradient", 3)
        scaled = OperatorSpec(
            "scaled_sym_gradient", n=3, d=3, l=9, k=1,
            coeffs={alpha: scale * mat for alpha, mat in eps.coeffs.items()},
        )
        desc = make(scaled)
        with pytest.raises(ValueError, match="real fields"):
            desc.grid_table(grid)
        with pytest.raises(ValueError, match="real fields"):
            apply_multiplier(desc, TensorField(grid, np.zeros(grid.shape + (9,))))

    @pytest.mark.parametrize(
        "make,m",
        [
            (lambda: mihlin_korn_multiplier(
                catalog_operator("sym_gradient", 3), MultiIndex((1, 0, 0)), operator_input=True
            ), 4),
            (lambda: composed_correction_symbol(
                catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3)
            ), 8),
        ],
        ids=["mihlin_korn", "korn_const_tr"],
    )
    def test_grid_table_is_the_symbol_off_the_nyquist_planes_and_zero_on_them(self, make, m):
        from kmslab.torus import TorusGrid

        grid, desc = TorusGrid(3, m), make()
        freqs, planes = half_frequency_grid(grid), nyquist_planes(grid)
        table = desc.grid_table(grid).matrices()
        assert table.shape == grid.half_shape + desc.shape
        assert planes.sum() == np.prod(grid.half_shape) - (m - 1) ** 2 * (m // 2)
        assert not np.any(table[planes])
        want = desc.on_frequencies(freqs[~planes])
        assert np.max(np.abs(table[~planes] - want)) <= 1e-14 * np.max(np.abs(want))
