import json
import math

import numpy as np
import pytest

from kmslab.classify import (
    SphereSampling,
    _ndtri,
    classify,
    classify_on_kernel,
    is_c_elliptic,
    subspace_intersection,
)
from kmslab.operators import (
    ArgumentError,
    MultiIndex,
    OperatorSpec,
    catalog_operator,
    catalog_partmap,
    eval_symbol,
    restrict_symbol,
)


def brute_flags(spec, points, tol=1e-8):
    """Independent oracle: plain per-sample SVD loop, stacked-complement nullspace."""
    mins, maxes, ranks = [], [], []
    complements = []
    for xi in points:
        mat = eval_symbol(spec, xi)
        u, s, _ = np.linalg.svd(mat)
        maxes.append(s[0])
        mins.append(s[-1] if spec.l >= spec.d else 0.0)
        r = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
        ranks.append(r)
        complements.append(np.eye(spec.l) - u[:, :r] @ u[:, :r].T)
    stacked = np.vstack(complements)
    s = np.linalg.svd(stacked, compute_uv=False)
    smax = s[0] if s[0] > 0 else 1.0
    residual = int(np.sum(s <= 1e-8 * smax))
    return {
        "is_elliptic": min(mins) > tol * max(maxes),
        "ranks": set(ranks),
        "residual": residual,
    }


def scipy_sphere_points(n, count, seed, complex_mode):
    """The sampler as built on scipy's qmc.Halton and special.ndtri, the reference."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    dims = 2 * n if complex_mode else n
    raw = qmc.Halton(d=dims, scramble=True, seed=seed).random(count)
    z = ndtri(np.clip(raw, 1e-12, 1.0 - 1e-12))
    pts = z[:, :n] + 1j * z[:, n:] if complex_mode else z
    axes = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
    if complex_mode:
        axes = axes.astype(complex)
    pts = np.concatenate([pts, axes], axis=0)
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0] = 1.0
    return pts / norms[:, None]


class TestSphereSampling:
    # (count, seed) of check_hypotheses, infer_constant_rank and the default
    @pytest.mark.parametrize("count,seed", [(512, 11), (256, 7), (2048, 1729)])
    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_points_bit_identical_to_scipy(self, n, count, seed, complex_mode):
        points = SphereSampling.standard(n, count, seed, complex_mode).points
        assert np.array_equal(points, scipy_sphere_points(n, count, seed, complex_mode))

    def test_ndtri_bit_identical_to_scipy(self):
        from scipy.special import ndtri

        e2 = math.exp(-2.0)
        y = np.concatenate(
            [
                [0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12],
                # both sides of the branch points exp(-2) and 1 - exp(-2)
                [np.nextafter(v, t) for v in (e2, 1.0 - e2) for t in (0.0, 1.0)],
                [e2, 1.0 - e2],
                np.random.default_rng(0).random(200_000),
                np.logspace(-300, -1, 20_000),  # below exp(-32) is the P2/Q2 branch
                1.0 - np.logspace(-16, -1, 2_000),
            ]
        )
        got = _ndtri(y)
        assert got[0] == -np.inf and got[1] == np.inf
        assert np.array_equal(got, ndtri(y))

    def test_bad_seed_names_it(self):
        for seed in (-1, 1.5, "x", True):
            with pytest.raises(ArgumentError) as err:
                SphereSampling.standard(3, count=8, seed=seed)
            assert err.value.argument == "seed"

    def test_unit_norm_and_determinism(self):
        a = SphereSampling.standard(3, count=64, seed=5)
        b = SphereSampling.standard(3, count=64, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.max(np.abs(np.linalg.norm(a.points, axis=1) - 1.0)) <= 1e-14
        c = SphereSampling.standard(3, count=64, seed=6)
        assert not np.array_equal(a.points, c.points)

    def test_includes_coordinate_directions(self):
        s = SphereSampling.standard(2, count=16, seed=0)
        pts = {tuple(np.round(p, 12)) for p in s.points}
        for e in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]:
            assert e in pts

    def test_complex_mode(self):
        s = SphereSampling.standard(2, count=32, seed=1, complex_mode=True)
        assert np.iscomplexobj(s.points)
        assert np.max(np.abs(np.linalg.norm(s.points, axis=1) - 1.0)) <= 1e-14


class TestClassify:
    def test_gradient_elliptic_unit_singular_value(self):
        rep = classify(catalog_operator("gradient", 3))
        assert rep.is_elliptic
        assert rep.common_rank == 1
        assert rep.min_singular_value == pytest.approx(1.0, abs=1e-12)
        assert rep.max_singular_value == pytest.approx(1.0, abs=1e-12)
        assert rep.is_cancelling

    def test_curl_vector_constant_rank_two_cancelling(self):
        curl = catalog_operator("curl_vector", 3)
        sampling = SphereSampling.standard(3, count=1000, seed=3)
        rep = classify(curl, sampling)
        assert not rep.is_elliptic
        assert rep.is_constant_rank and rep.common_rank == 2
        assert rep.is_cancelling
        oracle = brute_flags(curl, sampling.points)
        assert oracle["is_elliptic"] == rep.is_elliptic
        assert oracle["ranks"] == {2}
        assert oracle["residual"] == 0
        # kernel is span{xi}, image is xi-perp
        rng = np.random.default_rng(0)
        xi = rng.standard_normal(3)
        mat = eval_symbol(curl, xi)
        assert np.linalg.norm(mat @ xi) <= 1e-12
        assert abs(xi @ (mat @ rng.standard_normal(3))) <= 1e-12

    def test_curl_matrix_constant_rank_cancelling(self):
        rep = classify(catalog_operator("curl_matrix_rowwise", 3))
        assert rep.is_constant_rank
        assert rep.is_cancelling
        assert rep.common_rank == 6

    def test_divergence_not_cancelling(self):
        rep = classify(catalog_operator("divergence", 3))
        assert not rep.is_cancelling
        assert rep.residual_image_dim == 1

    def test_gradient_cancelling_two_sample_brute_force(self):
        # the images of two independent frequencies already intersect trivially
        grad = catalog_operator("gradient", 3)
        u1 = eval_symbol(grad, np.array([1.0, 0.0, 0.0]))
        u2 = eval_symbol(grad, np.array([0.0, 1.0, 0.0]))
        inter = subspace_intersection(u1, u2)
        assert inter.shape[1] == 0

    def test_elliptic_iff_constant_rank_d(self):
        for name in ("gradient", "sym_gradient", "curl_vector", "curl_matrix_rowwise",
                     "divergence", "sym_curl_matrix"):
            spec = catalog_operator(name, 3)
            rep = classify(spec)
            assert rep.is_elliptic == (rep.is_constant_rank and rep.common_rank == spec.d)

    def test_determinism_bit_identical(self):
        spec = catalog_operator("sym_curl_matrix", 3)
        r1 = classify(spec, SphereSampling.standard(3, count=256, seed=9))
        r2 = classify(spec, SphereSampling.standard(3, count=256, seed=9))
        assert r1.to_dict() == r2.to_dict()
        assert r1.min_singular_value == r2.min_singular_value

    def test_refinement_never_flips_false_to_true(self):
        # curl has exact symbol kernels, so a witness with sigma_min < tol/10 exists
        curl = catalog_operator("curl_vector", 3)
        small = classify(curl, SphereSampling.standard(3, count=2048, seed=4))
        assert small.min_singular_value < small.tol / 10 * small.max_singular_value
        big = classify(curl, SphereSampling.standard(3, count=4096, seed=4))
        assert not small.is_elliptic and not big.is_elliptic

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            classify(catalog_operator("gradient", 3), tol=1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify(catalog_operator("gradient", 3), SphereSampling.standard(2))


class TestClassifyOnKernel:
    def test_sym_curl_on_dev_kernel(self):
        rep = classify_on_kernel(
            catalog_operator("sym_curl_matrix", 3), catalog_partmap("dev", 3)
        )
        assert not rep.is_elliptic
        assert rep.is_constant_rank and rep.common_rank == 0
        assert rep.is_cancelling

    def test_curl_elliptic_on_skew(self):
        rep = classify_on_kernel(
            catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("sym", 3)
        )
        assert rep.is_elliptic
        assert rep.common_rank == 3

    def test_identity_part_vacuous(self):
        rep = classify_on_kernel(
            catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("identity", 3)
        )
        assert rep.vacuous
        assert rep.is_elliptic and rep.is_constant_rank and rep.is_cancelling
        assert rep.common_rank == 0

    def test_matches_explicit_restriction(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        tr = catalog_partmap("tr", 3)
        sampling = SphereSampling.standard(3, count=128, seed=2)
        a = classify_on_kernel(curl, tr, sampling)
        b = classify(restrict_symbol(curl, tr), sampling)
        assert a.to_dict() == b.to_dict()


class TestCElliptic:
    def test_gradient_c_elliptic(self):
        verdict = is_c_elliptic(catalog_operator("gradient", 2))
        assert verdict.is_c_elliptic
        assert verdict.witness is None

    def test_cauchy_riemann_fails_at_witness(self):
        cr = OperatorSpec(
            "cauchy_riemann",
            n=2,
            d=1,
            l=1,
            k=1,
            coeffs={
                MultiIndex((1, 0)): np.array([[1.0]]),
                MultiIndex((0, 1)): np.array([[1j]]),
            },
        )
        # direct evaluation oracle: the symbol vanishes at (1, i)/sqrt(2)
        witness = np.array([1.0, 1j]) / np.sqrt(2.0)
        assert abs(eval_symbol(cr, witness)[0, 0]) <= 1e-15
        verdict = is_c_elliptic(cr, refine_steps=400)
        assert not verdict.is_c_elliptic
        assert verdict.min_singular_value <= 1e-8
        z = verdict.witness
        # witness lies on the zero set z1 = -i z2 up to phase
        assert abs(z[0] + 1j * z[1]) <= 1e-6
        # but the operator is elliptic over the reals
        assert classify(cr).is_elliptic

    def test_sym_gradient_c_elliptic(self):
        verdict = is_c_elliptic(catalog_operator("sym_gradient", 3))
        assert verdict.is_c_elliptic
        assert verdict.min_singular_value > 0.1

    def test_requires_complex_sampling(self):
        with pytest.raises(ValueError):
            is_c_elliptic(catalog_operator("gradient", 2), SphereSampling.standard(2))

    def test_verdict_flagged_as_sampled(self):
        verdict = is_c_elliptic(catalog_operator("gradient", 2))
        assert verdict.to_dict()["verdict_kind"] == "sampled"

    def test_vacuous_verdict_is_strict_json(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        vacuous = restrict_symbol(curl, catalog_partmap("identity", 3, dim=curl.d))
        sampling = SphereSampling.standard(3, count=16, complex_mode=True)
        text = json.dumps(is_c_elliptic(vacuous, sampling).to_dict(), allow_nan=False)
        assert json.loads(text)["min_singular_value"] == "inf"

    def test_negative_refine_steps_rejected(self):
        with pytest.raises(ArgumentError) as excinfo:
            is_c_elliptic(catalog_operator("gradient", 2), refine_steps=-1)
        assert excinfo.value.argument == "refine_steps"
