import math

import numpy as np
import pytest

from kmslab import verify
from kmslab.multipliers import pseudoinverse_symbol
from kmslab.operators import ArgumentError, catalog_operator, catalog_partmap, eval_symbol
from kmslab.torus import (
    TorusGrid,
    apply_partmap,
    bump_field,
    homog_sobolev_norm,
    lp_norm,
    plane_wave_field,
    random_bandlimited,
)
from kmslab.verify import (
    FieldFamily,
    InequalityConfig,
    PreconditionError,
    _unit_ball_volume,
    check_hypotheses,
    curl_riesz_crosscheck,
    estimate_constant,
    kms_sides,
    necessity_demo,
    p1_probe,
    refinement_study,
    search_kernel_witness,
    single_frequency_trial,
    trial_ratio,
)
from kmslab.verify import _sweep, _sweep_vectors


def small_family(trials=5):
    return FieldFamily(random_trials=trials, bump_widths=(0.5,))


@pytest.fixture(scope="module")
def grid16():
    return TorusGrid(3, 16)


@pytest.fixture(scope="module")
def grid8():
    return TorusGrid(3, 8)


@pytest.fixture(scope="module")
def curl():
    return catalog_operator("curl_matrix_rowwise", 3)


@pytest.mark.parametrize("seed", [-1, 1.5, "x"])
def test_bad_seed_names_it(grid8, curl, seed):
    cfg = InequalityConfig("kms_sym", curl, catalog_partmap("sym", 3), 2.0, grid8)
    calls = [
        lambda: estimate_constant(cfg, family=small_family(1), seed=seed),
        lambda: refinement_study(cfg, [8], family=small_family(1), seed=seed),
        lambda: random_bandlimited(grid8, 1, 2, seed),
    ]
    for call in calls:
        with pytest.raises(ArgumentError) as err:
            call()
        assert err.value.argument == "seed"


@pytest.mark.parametrize("trials", [-1, True, 1.5, "3"])
def test_bad_trials_names_it(trials):
    with pytest.raises(ArgumentError) as err:
        FieldFamily(random_trials=trials)
    assert err.value.argument == "random_trials"


class TestTrialRatio:
    def test_plain(self):
        assert trial_ratio(2.0, 4.0) == 0.5

    def test_exact_division_without_an_absolute_cutoff(self):
        assert trial_ratio(0.5, 1e-15) == 0.5 / 1e-15
        assert math.isinf(trial_ratio(0.5, 0.0))
        assert math.isinf(trial_ratio(1e-300, 0.0))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_sides_negligible_against_the_wave_read_zero(self, grid8, curl, scale):
        # the korn_const_p1 kernel witness: both sides are roundoff against a |v|
        cfg = InequalityConfig("korn_const_p1", curl, catalog_partmap("tr", 3), 1.0, grid8)
        xi, v = search_kernel_witness(cfg.part, cfg.operator, grid8)
        trial = single_frequency_trial(cfg, xi, scale * v)
        assert (trial.lhs, trial.rhs, trial.ratio) == (0.0, 0.0, 0.0)
        lhs, rhs = kms_sides(cfg, plane_wave_field(grid8, xi, scale * v))
        assert (lhs, rhs) == (0.0, 0.0)

    def test_zero_over_zero_never_infinite(self):
        assert trial_ratio(0.0, 0.0) == 0.0


class TestUnitBallVolume:
    def test_closed_form(self):
        for n, want in [(1, 2.0), (2, math.pi), (3, 4 * math.pi / 3)]:
            assert _unit_ball_volume(n) == pytest.approx(want, rel=1e-12)

    def test_recursion_oracle(self):
        # omega_n = 2 pi omega_{n-2} / n
        for n in range(3, 9):
            a = _unit_ball_volume(n)
            b = _unit_ball_volume(n - 2)
            assert a == pytest.approx(2 * math.pi * b / n, rel=1e-12)


class TestConfigValidation:
    def test_unknown_id(self, grid16, curl):
        with pytest.raises(ValueError):
            InequalityConfig("nope", curl, catalog_partmap("tr", 3), 2.0, grid16)

    def test_kms_sym_fixes_operators(self, grid16):
        eps = catalog_operator("sym_gradient", 3)
        with pytest.raises(ValueError):
            InequalityConfig("kms_sym", eps, catalog_partmap("sym", 3), 2.0, grid16)

    def test_korn_ell_takes_no_part(self, grid16, curl):
        with pytest.raises(ValueError):
            InequalityConfig("korn_ell", curl, catalog_partmap("tr", 3), 2.0, grid16)

    def test_p_constraints(self, grid16, curl):
        tr = catalog_partmap("tr", 3)
        with pytest.raises(ValueError):
            InequalityConfig("korn_const_p1", curl, tr, 2.0, grid16)
        with pytest.raises(ValueError):
            InequalityConfig("korn_const2_p2", curl, tr, 1.5, grid16)
        with pytest.raises(ValueError):
            InequalityConfig("korn_const", curl, tr, 3.0, grid16)  # p < n

    def test_correction_only_for_constant_rank_ids(self, grid16, curl):
        with pytest.raises(ValueError):
            InequalityConfig(
                "korn_ellip", curl, catalog_partmap("sym", 3), 2.0, grid16,
                correction_enabled=True,
            )

    def test_each_rejection_names_its_argument(self, grid16, curl):
        tr, sym = catalog_partmap("tr", 3), catalog_partmap("sym", 3)
        cases = [
            ("inequality_id", ("nope", curl, tr, 2.0, grid16)),
            ("grid", ("korn_const", curl, tr, 2.0, TorusGrid(2, 16))),
            ("part", ("korn_ell", curl, tr, 2.0, grid16)),
            ("part", ("korn_const", curl, None, 2.0, grid16)),
            ("part", ("korn_const", catalog_operator("curl_vector", 3), tr, 2.0, grid16)),
            ("operator", ("kms_sym", catalog_operator("div_matrix_rowwise", 3), sym, 2.0, grid16)),
            ("part", ("kms_sym", curl, tr, 2.0, grid16)),
            ("p", ("korn_const", curl, tr, 3.0, grid16)),
            ("correction_enabled", ("korn_ellip", curl, sym, 2.0, grid16, True)),
        ]
        for argument, args in cases:
            with pytest.raises(ArgumentError) as err:
                InequalityConfig(*args)
            assert err.value.argument == argument, args[0]

    @pytest.mark.parametrize("scale", [1e-20, 1e-13, 1e-6, 1.0, 1e6, 1e13, 1e20])
    def test_zero_mean_precondition(self, grid16, curl, scale):
        # the check is relative: a constant field in ker tr is refused at every
        # scale, zero-mean random and bump fields are accepted at every scale
        from fullgrid_reference import constant_field

        cfg = InequalityConfig("korn_const", curl, catalog_partmap("tr", 3), 2.0, grid16)
        with pytest.raises(PreconditionError):
            kms_sides(cfg, constant_field(grid16, scale * np.diag([1.0, -1.0, 0.0]).reshape(-1)))
        bump = bump_field(grid16, np.full(3, 1.0), 0.5, np.eye(9)[1])
        for fld in (random_bandlimited(grid16, 9, 4, seed=5), bump):
            kms_sides(cfg, fld * scale)


class TestKornEll:
    def test_random_fields_within_korn_constant(self, grid16):
        # classical Korn at p = 2: per-frequency symbol algebra bounds the
        # ratio by sqrt(2) for every field
        eps = catalog_operator("sym_gradient", 3)
        cfg = InequalityConfig("korn_ell", eps, None, 2.0, grid16)
        for seed in range(5):
            u = random_bandlimited(grid16, 3, 4, seed=seed)
            lhs, rhs = kms_sides(cfg, u)
            assert lhs / rhs <= math.sqrt(2.0) + 1e-6

    def test_gradient_field_saturates_nothing(self, grid16):
        # P = grad(phi) has symmetric jacobian, so both sides agree
        eps = catalog_operator("sym_gradient", 3)
        grad = catalog_operator("gradient", 3)
        cfg = InequalityConfig("korn_ell", eps, None, 2.0, grid16)
        from kmslab.torus import apply_operator

        phi = random_bandlimited(grid16, 1, 4, seed=3)
        p = apply_operator(grad, phi)
        lhs, rhs = kms_sides(cfg, p)
        assert lhs / rhs == pytest.approx(1.0, abs=1e-10)

    def test_estimate_attains_korn_constant(self, grid16):
        eps = catalog_operator("sym_gradient", 3)
        cfg = InequalityConfig("korn_ell", eps, None, 2.0, grid16)
        est = estimate_constant(cfg, family=small_family(), seed=0)
        assert est.max_ratio <= 1.42
        assert est.max_ratio == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert est.infinite_count == 0


class TestSingleFrequencyExactness:
    @pytest.mark.parametrize(
        "ident,part_name,p",
        [
            ("korn_const", "tr", 2.0),
            ("korn_const", "tr", 1.5),
            ("kms_sym", "sym", 2.0),
            ("korn_const2_p2", "tr", 2.0),
            ("korn_const_p1", "tr", 1.0),
        ],
    )
    def test_algebra_matches_fft_path(self, grid16, curl, ident, part_name, p):
        part = catalog_partmap(part_name, 3)
        cfg = InequalityConfig(ident, curl, part, p, grid16)
        rng = np.random.default_rng(17)
        for _ in range(3):
            xi = np.array([rng.integers(-5, 6), rng.integers(-5, 6), rng.integers(1, 6)])
            v = rng.standard_normal(9)
            v /= np.linalg.norm(v)
            alg = single_frequency_trial(cfg, xi, v)
            lhs, rhs = kms_sides(cfg, plane_wave_field(grid16, xi, v))
            assert alg.lhs == pytest.approx(lhs, rel=1e-10, abs=1e-12)
            assert alg.rhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_korn_ell_exactness(self, grid16):
        eps = catalog_operator("sym_gradient", 3)
        cfg = InequalityConfig("korn_ell", eps, None, 2.0, grid16)
        xi = np.array([2, -3, 1])
        v = np.array([0.3, -1.0, 0.7])
        v /= np.linalg.norm(v)
        alg = single_frequency_trial(cfg, xi, v)
        lhs, rhs = kms_sides(cfg, plane_wave_field(grid16, xi, v))
        assert alg.lhs == pytest.approx(lhs, rel=1e-10)
        assert alg.rhs == pytest.approx(rhs, rel=1e-10)


class TestBatchedSweep:
    # every inequality id at M = 8; at M = 40 the 1,539 orbits span two chunks
    @pytest.mark.parametrize(
        "ident,part_name,p,m,orbits",
        [
            ("korn_ell", None, 2.0, 8, 19),
            ("kms_sym", "sym", 2.0, 8, 19),
            ("asplit", "dev", 2.0, 8, 19),
            ("korn_ellip", "sym", 2.0, 8, 19),
            ("korn_const", "tr", 2.0, 8, 19),
            ("korn_const2_p2", "tr", 2.0, 8, 19),
            ("korn_const_p1", "tr", 1.0, 8, 19),
            ("kms_sym", "sym", 2.0, 40, 1539),
        ],
    )
    def test_ratios_match_single_frequency_reference(
        self, sweep_calls, curl, ident, part_name, p, m, orbits
    ):
        grid = TorusGrid(3, m)
        if ident == "korn_ell":
            cfg = InequalityConfig(ident, catalog_operator("sym_gradient", 3), None, p, grid)
        else:
            cfg = InequalityConfig(ident, curl, catalog_partmap(part_name, 3), p, grid)
        freqs, vs, ratios, counts = _sweep(cfg)
        # every orbit is trusted, so the representatives are all that is swept
        assert sum(sweep_calls) == orbits
        assert (len(sweep_calls) > 1) == (m == 40)
        # one representative per orbit, the first canonical frequency of its sorted |xi|
        canonical = grid.canonical_frequencies
        keys = np.sort(np.abs(canonical), axis=1)
        _, first, size = np.unique(keys, axis=0, return_index=True, return_counts=True)
        order = np.argsort(first)
        assert freqs.shape[0] == orbits
        assert np.array_equal(freqs, canonical[first[order]])
        assert np.array_equal(counts, size[order])
        for xi, v, ratio in zip(freqs, vs, ratios):
            ref = single_frequency_trial(cfg, xi, v).ratio
            if math.isinf(ref) or math.isinf(ratio):
                assert ratio == ref, xi
            else:
                assert abs(ratio - ref) <= 1e-12 * max(abs(ref), abs(ratio)), xi

    # every inequality id, korn_const without its correction, and asplit
    # with A = tr, whose curl is not elliptic on ker A
    @pytest.mark.parametrize(
        "ident,part_name,p,correction",
        [
            ("korn_ell", None, 2.0, None),
            ("kms_sym", "sym", 2.0, None),
            ("asplit", "dev", 1.5, None),
            ("asplit", "tr", 2.0, None),
            ("korn_ellip", "sym", 1.5, None),
            ("korn_const", "tr", 1.5, None),
            ("korn_const", "tr", 2.0, False),
            ("korn_const2_p2", "tr", 2.0, None),
            ("korn_const_p1", "tr", 1.0, None),
        ],
    )
    def test_ratios_match_the_fft_path(self, grid8, curl, ident, part_name, p, correction):
        # the closed form against kms_sides on the sampled plane wave, which
        # shares no arithmetic with it
        if ident == "korn_ell":
            cfg = InequalityConfig(ident, catalog_operator("sym_gradient", 3), None, p, grid8)
        else:
            cfg = InequalityConfig(
                ident, curl, catalog_partmap(part_name, 3), p, grid8,
                correction_enabled=correction,
            )
        freqs, vs, ratios, _ = _sweep(cfg)
        assert freqs.shape[0] == 19
        for xi, v, ratio in zip(freqs, vs, ratios):
            ref = trial_ratio(*kms_sides(cfg, plane_wave_field(grid8, xi, v)))
            if math.isinf(ref) or math.isinf(ratio):
                assert ratio == ref, xi
            else:
                assert abs(ratio - ref) <= 1e-12 * max(abs(ref), abs(ratio)), xi
        infinite = (ident, part_name) == ("asplit", "tr") or correction is False
        assert np.isinf(ratios).all() if infinite else np.isfinite(ratios).all()


class TestKmsSymAlgebra:
    def test_no_single_frequency_kernel_witness(self, grid16, curl):
        # sym(a (x) xi) = 0 forces a = 0, so every single-frequency trial
        # has a genuinely positive right side
        sym = catalog_partmap("sym", 3)
        assert search_kernel_witness(sym, curl, grid16) is None
        cfg = InequalityConfig("kms_sym", curl, sym, 2.0, grid16)
        rng = np.random.default_rng(23)
        for _ in range(5):
            xi = np.array([rng.integers(-5, 6), rng.integers(-5, 6), rng.integers(1, 6)])
            v = rng.standard_normal(9)
            v /= np.linalg.norm(v)
            trial = single_frequency_trial(cfg, xi, v)
            assert trial.rhs > 1e-6


class TestWitnessAndNecessity:
    def test_witness_for_trace_curl(self, grid16, curl):
        tr = catalog_partmap("tr", 3)
        found = search_kernel_witness(tr, curl, grid16)
        assert found is not None
        xi, v = found
        mat = v.reshape(3, 3)
        # v = a (x) xi with a orthogonal to xi: trace-free, rows parallel to xi
        assert abs(np.trace(mat)) <= 1e-10
        for i in range(3):
            assert np.linalg.norm(np.cross(mat[i], xi.astype(float))) <= 1e-8

    def test_corrected_witness_trial_reports_zero(self, grid16, curl):
        tr = catalog_partmap("tr", 3)
        xi, v = search_kernel_witness(tr, curl, grid16)
        cfg = InequalityConfig("korn_const", curl, tr, 2.0, grid16)
        # kms_sides' FFT path on a kernel witness; verify evaluates plane waves in closed form
        lhs, rhs = kms_sides(cfg, plane_wave_field(grid16, xi, v))
        assert lhs <= 1e-10
        assert rhs <= 1e-12
        assert trial_ratio(lhs, rhs) == 0.0

    @pytest.mark.parametrize(
        "ident,p,correction",
        [("korn_const", 2.0, None), ("korn_const", 2.0, False), ("korn_const_p1", 1.0, None)],
        ids=["korn_const", "korn_const-uncorrected", "korn_const_p1"],
    )
    def test_witness_row_is_the_single_frequency_trial(self, grid8, curl, ident, p, correction):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig(ident, curl, tr, p, grid8, correction_enabled=correction)
        xi, v = search_kernel_witness(tr, curl, grid8)
        family = FieldFamily(sweep=False, random_trials=0, bump_widths=())
        est = estimate_constant(cfg, family=family, enforce=False)
        assert est.family_maxima["witness"] == single_frequency_trial(cfg, xi, v).ratio
        assert est.argmax == {
            "generator": "witness_plane_wave",
            "xi": [int(x) for x in xi],
            "v": [float(x) for x in v],
        }

    def test_necessity_demo_trace_curl(self, grid16, curl):
        tr = catalog_partmap("tr", 3)
        demo = necessity_demo(tr, curl, grid16)
        assert demo.found
        xi, v = search_kernel_witness(tr, curl, grid16)
        for trial, correction in [(demo.uncorrected, False), (demo.corrected, True)]:
            cfg = InequalityConfig(
                "korn_const", curl, tr, 2.0, grid16, correction_enabled=correction
            )
            want = single_frequency_trial(cfg, xi, v)
            assert (trial.lhs, trial.rhs, trial.ratio) == (want.lhs, want.rhs, want.ratio)
            assert trial.field == {"generator": "witness_plane_wave", "xi": demo.xi, "v": demo.v}
        assert demo.uncorrected.rhs <= 1e-12
        assert demo.uncorrected.lhs >= 0.1
        assert math.isinf(demo.uncorrected.ratio)
        assert demo.corrected.lhs <= 1e-10
        assert demo.corrected.ratio == 0.0

    @pytest.mark.parametrize("n,m", [(3, 8), (3, 16), (2, 8)])
    def test_wide_stack_finds_its_kernel_witness(self, n, m):
        # [tr; Re B[xi]] for the row-wise divergence stacks 1 + n rows on
        # d = n^2 columns, so ker tr cap ker B[xi] is nontrivial at every xi
        div, tr = catalog_operator("div_matrix_rowwise", n), catalog_partmap("tr", n)
        grid = TorusGrid(n, m)
        found = search_kernel_witness(tr, div, grid)
        assert found is not None
        xi, v = found
        assert np.sum(xi**2) == 1  # the scan's first frequency
        bmat = eval_symbol(div, xi.astype(float))
        assert np.linalg.norm(tr.matrix @ v) <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(bmat @ v) <= 1e-12 * np.linalg.norm(v)
        demo = necessity_demo(tr, div, grid, p=1.5)
        assert demo.found and "unnecessary" not in demo.message
        assert math.isinf(demo.uncorrected.ratio) and demo.corrected.ratio == 0.0

    def test_necessity_demo_sym_curl_has_no_witness(self, grid16, curl):
        demo = necessity_demo(catalog_partmap("sym", 3), curl, grid16)
        assert not demo.found
        assert "unnecessary" in demo.message

    def test_necessity_demo_identity_vacuous(self, grid16, curl):
        demo = necessity_demo(catalog_partmap("identity", 3), curl, grid16)
        assert not demo.found

    @staticmethod
    def sweep_vector(cfg, xi):
        vs, ratios = _sweep_vectors(cfg, np.asarray(xi, dtype=float)[None])
        return vs[0], float(ratios[0])

    def test_worst_vector_flags_uncorrected_witness(self, grid8, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig(
            "korn_const", curl, tr, 2.0, grid8, correction_enabled=False
        )
        v, ratio = self.sweep_vector(cfg, [0, 0, 1])
        assert math.isinf(ratio)
        trial = single_frequency_trial(cfg, np.array([0, 0, 1]), v)
        assert math.isinf(trial.ratio)

    def test_worst_vector_finite_when_corrected(self, grid8, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig("korn_const", curl, tr, 2.0, grid8)
        v, ratio = self.sweep_vector(cfg, [0, 0, 1])
        assert math.isfinite(ratio)
        trial = single_frequency_trial(cfg, np.array([0, 0, 1]), v)
        assert trial.ratio < 10.0


class TestSpecializations:
    def test_identity_part_reduces_to_plain_norm(self, grid8, curl):
        # injective A: the correction vanishes and the left side is the
        # plain homogeneous norm of the field
        ident = catalog_partmap("identity", 3)
        cfg = InequalityConfig("korn_const", curl, ident, 2.0, grid8)
        f = random_bandlimited(grid8, 9, 2, seed=21)
        lhs, _ = kms_sides(cfg, f)
        assert lhs == pytest.approx(homog_sobolev_norm(f, 0, cfg.p_star), rel=1e-12)

    def test_elliptic_degeneration_bit_for_bit(self, grid8, curl):
        # B elliptic on ker(A): korn_const and korn_ellip coincide exactly
        sym = catalog_partmap("sym", 3)
        const_cfg = InequalityConfig("korn_const", curl, sym, 2.0, grid8)
        ellip_cfg = InequalityConfig("korn_ellip", curl, sym, 2.0, grid8)
        table = const_cfg.correction_descriptor.grid_table(grid8).matrices()
        assert np.max(np.abs(table)) <= 1e-12
        for seed in range(3):
            f = random_bandlimited(grid8, 9, 2, seed=seed)
            a = kms_sides(const_cfg, f)
            b = kms_sides(ellip_cfg, f)
            assert a == b

    def test_decomposition_identity(self, grid8):
        part = catalog_partmap("dev", 3)
        f = random_bandlimited(grid8, 9, 2, seed=31)
        vals = (part.proj_ker @ f.values[..., None])[..., 0] + (
            part.proj_perp @ f.values[..., None]
        )[..., 0]
        assert np.max(np.abs(vals - f.values)) <= 1e-14

    def test_pointwise_estimate_integrated(self, grid8):
        part = catalog_partmap("dev", 3)
        f = random_bandlimited(grid8, 9, 2, seed=32)
        from kmslab.torus import TensorField

        perp = TensorField(grid8, (part.proj_perp @ f.values[..., None])[..., 0])
        af = apply_partmap(part, f)
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(perp, p) <= part.injectivity_constant * lp_norm(af, p) + 1e-12


class TestEstimates:
    def test_reseed_stability_korn_const(self, grid8, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig("korn_const", curl, tr, 2.0, grid8)
        a = estimate_constant(cfg, family=small_family(10), seed=1)
        b = estimate_constant(cfg, family=small_family(10), seed=2)
        assert a.infinite_count == 0 and b.infinite_count == 0
        assert abs(a.max_ratio - b.max_ratio) <= 0.1 * max(a.max_ratio, b.max_ratio)

    def test_determinism(self, grid8, curl):
        sym = catalog_partmap("sym", 3)
        cfg = InequalityConfig("kms_sym", curl, sym, 2.0, grid8)
        a = estimate_constant(cfg, family=small_family(), seed=5)
        b = estimate_constant(cfg, family=small_family(), seed=5)
        assert a.to_dict() == b.to_dict()

    def test_sobolev_case_bounded_by_pseudoinverse_constant(self, grid8):
        # A = 0 and elliptic B: the per-frequency ratio is controlled by the
        # pseudoinverse norm times a profile-norm factor
        eps = catalog_operator("sym_gradient", 3)
        zero = catalog_partmap("zero", 3, dim=3)
        cfg = InequalityConfig("korn_ellip", eps, zero, 2.0, grid8)
        est = estimate_constant(cfg, family=small_family(), seed=3)
        dag = pseudoinverse_symbol(eps, 3)
        pts = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -2, 1]])
        cpinv = max(
            np.linalg.norm(dag.evaluate(xi / np.linalg.norm(xi)), 2) for xi in pts
        )
        # profile factor: L^{p*} vs L^p norms of the wave profiles
        bound = cpinv * (2 * math.pi) ** (3 / cfg.p_star - 3 / 2) * 2.0
        assert est.max_ratio <= cpinv * 3.0 + bound

    def test_enforce_rejects_bad_hypotheses(self, grid8, curl):
        dev = catalog_partmap("dev", 3)
        cfg = InequalityConfig("korn_ellip", curl, dev, 2.0, grid8)
        ok, note, _ = check_hypotheses(cfg)
        if not ok:
            with pytest.raises(PreconditionError):
                estimate_constant(cfg, family=small_family(), seed=0)

    def test_hypotheses_flagging(self, grid8):
        # divergence of matrix fields is not cancelling on ker(zero) = everything
        div = catalog_operator("div_matrix_rowwise", 3)
        zero = catalog_partmap("zero", 3, dim=9)
        cfg = InequalityConfig("korn_const_p1", div, zero, 1.0, grid8)
        ok, note, _ = check_hypotheses(cfg)
        assert not ok
        assert "outside theorem hypotheses" in note
        est = estimate_constant(cfg, family=small_family(), seed=0, enforce=False)
        assert not est.hypotheses_met

    @pytest.mark.parametrize("ident", ["kms_sym", "korn_ell"])
    def test_empty_family_rejected_before_classification(self, grid8, curl, monkeypatch, ident):
        def classified(config):
            raise AssertionError("classified an empty family")

        monkeypatch.setattr(verify, "check_hypotheses", classified)
        if ident == "korn_ell":
            cfg = InequalityConfig(ident, catalog_operator("sym_gradient", 3), None, 2.0, grid8)
        else:
            cfg = InequalityConfig(ident, curl, catalog_partmap("sym", 3), 2.0, grid8)
        # korn_ell has no witness family, so witness=True adds no trial to it
        family = FieldFamily(
            sweep=False, random_trials=0, bump_widths=(), witness=ident == "korn_ell"
        )
        with pytest.raises(ArgumentError) as err:
            estimate_constant(cfg, family=family)
        assert err.value.argument == "family"

    def test_first_infinite_ratio_in_family_order_takes_the_argmax(self, grid8, curl):
        # the sweep and the witness both diverge; the sweep comes first
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig("korn_const", curl, tr, 2.0, grid8, correction_enabled=False)
        est = estimate_constant(cfg, family=small_family(), seed=0)
        assert math.isinf(est.family_maxima["sweep"])
        assert math.isinf(est.family_maxima["witness"])
        freqs, vs, ratios, _ = _sweep(cfg)
        first = int(np.argmax(np.isinf(ratios)))
        assert est.argmax == {
            "generator": "plane_wave",
            "xi": [int(x) for x in freqs[first]],
            "v": [float(x) for x in vs[first]],
        }


class TestRefinement:
    def test_kms_sym_growth_bounded(self, curl):
        sym = catalog_partmap("sym", 3)
        cfg = InequalityConfig("kms_sym", curl, sym, 2.0, TorusGrid(3, 8))
        study = refinement_study(cfg, [8, 16], family=small_family(), seed=0)
        assert study.all_finite
        assert study.max_growth < 0.25

    def test_uncorrected_witness_is_infinite_at_every_size(self, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig(
            "korn_const", curl, tr, 2.0, TorusGrid(3, 8), correction_enabled=False
        )
        study = refinement_study(cfg, [8, 16], family=small_family(), seed=0)
        assert all(math.isinf(r) for r in study.max_ratios)
        assert not study.all_finite

    def test_identity_part_trivially_bounded(self, curl):
        ident = catalog_partmap("identity", 3)
        cfg = InequalityConfig("korn_const", curl, ident, 2.0, TorusGrid(3, 8))
        study = refinement_study(cfg, [8, 16], family=small_family(), seed=0)
        assert all(r <= 1.0 + 1e-12 for r in study.max_ratios)

    def test_size_validation(self, grid8, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig("korn_const", curl, tr, 2.0, grid8)
        with pytest.raises(ValueError):
            refinement_study(cfg, [16, 8])

    def test_empty_sizes_rejected(self, grid8, curl):
        # no estimate, no verdict: all_finite would hold vacuously
        cfg = InequalityConfig("korn_const", curl, catalog_partmap("tr", 3), 2.0, grid8)
        with pytest.raises(ArgumentError) as err:
            refinement_study(cfg, [])
        assert err.value.argument == "sizes"


class TestConst2:
    def test_negative_norm_variant_bounded(self, grid8, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig("korn_const2_p2", curl, tr, 2.0, grid8)
        est = estimate_constant(cfg, family=small_family(), seed=4)
        assert est.infinite_count == 0
        assert est.max_ratio < 10.0


class TestCrosscheck:
    def test_symbol_identity(self):
        res = curl_riesz_crosscheck(mode="symbol", grid=TorusGrid(3, 8))
        assert res.max_relative_deviation <= 1e-12
        # the restricted projector genuinely differs from the closed form
        assert res.details["restricted_projector_deviation"] > 0.1

    def test_quadrature_small_grid(self):
        res = curl_riesz_crosscheck(mode="quadrature", grid=TorusGrid(3, 16), eval_points=4)
        assert res.max_relative_deviation <= 0.2

    @pytest.mark.parametrize("m,points", [(4, 3), (4, 10), (6, 5), (6, 10)])
    def test_quadrature_point_off_the_grid_names_grid(self, m, points):
        with pytest.raises(ArgumentError) as err:
            curl_riesz_crosscheck(mode="quadrature", grid=TorusGrid(3, m), eval_points=points)
        assert err.value.argument == "grid"

    # M = 8 keeps every quadrature point on the grid, so only the dimension is wrong
    @pytest.mark.parametrize("mode,m", [("symbol", 6), ("quadrature", 8)])
    @pytest.mark.parametrize("n", [2, 4])
    def test_grid_of_another_dimension_names_grid(self, mode, m, n):
        with pytest.raises(ArgumentError) as err:
            curl_riesz_crosscheck(mode=mode, grid=TorusGrid(n, m))
        assert err.value.argument == "grid"

    def test_quadrature_largest_point_count_per_grid(self):
        # point 3, (2, 0, 1), leaves M = 4 and point 5, (1, 2, 3), leaves M = 6
        for m, points in [(4, 2), (6, 4), (8, 10)]:
            res = curl_riesz_crosscheck(mode="quadrature", grid=TorusGrid(3, m), eval_points=points)
            assert res.details["eval_points"] == points


class TestP1Probe:
    @pytest.mark.parametrize("sizes", [[], [7, 8], [8, 8]])
    def test_bad_sizes_named(self, curl, sizes):
        with pytest.raises(ArgumentError) as err:
            p1_probe(catalog_partmap("tr", 3), curl, sizes)
        assert err.value.argument == "sizes"

    def test_gradient_sobolev_case(self):
        # elliptic and cancelling: the L^1 -> L^{n/(n-1)} bound holds
        grad = catalog_operator("gradient", 3)
        zero = catalog_partmap("zero", 3, dim=1)
        probe = p1_probe(zero, grad, [8, 16], family=small_family(), seed=0)
        assert probe.estimates[0].hypotheses_met
        assert all(r < 5.0 for r in probe.max_ratios)

    def test_classifies_once_per_size(self, monkeypatch, curl):
        # the hypotheses do not depend on M: each estimate checks them once
        checked = []
        check = verify.check_hypotheses

        def counting(config):
            checked.append(config.grid.points_per_axis)
            return check(config)

        monkeypatch.setattr(verify, "check_hypotheses", counting)
        probe = p1_probe(catalog_partmap("tr", 3), curl, [8, 16], family=small_family(1))
        assert checked == [8, 16]
        assert all(e.hypotheses_met for e in probe.estimates)
        assert probe.estimates[1].hypotheses_note == probe.estimates[0].hypotheses_note

    def test_exponent_is_n_over_n_minus_one(self, grid8, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig("korn_const_p1", curl, tr, 1.0, grid8)
        assert cfg.p_star == pytest.approx(1.5)
