import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmslab import verify
from kmslab.classify import SphereSampling
from kmslab.multipliers import pseudoinverse_symbol
from kmslab.operators import (
    ArgumentError,
    OperatorSpec,
    catalog_operator,
    catalog_partmap,
    eval_symbol,
    multiindex_enumerate,
)
from kmslab.specfile import parse_operator_text
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
from test_reduced_field import curl_curl_rowwise


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


def hessian():
    """The Hessian of a scalar field on R^3, d = 1, l = 9, k = 2: entry (i, j) is d_i d_j u."""
    coeffs = {}
    for alpha in multiindex_enumerate(3, 2):
        i, j = [a for a in range(3) for _ in range(alpha.exponents[a])]
        mat = np.zeros((9, 1))
        mat[3 * i + j, 0] = mat[3 * j + i, 0] = 1.0
        coeffs[alpha] = mat
    return OperatorSpec("hessian", n=3, d=1, l=9, k=2, coeffs=coeffs)


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


@pytest.mark.parametrize("widths", [(0.0,), (math.nan,), (-1.0,), 0.4])
def test_bad_bump_widths_are_refused_before_any_classification(grid8, curl, monkeypatch, widths):
    def refuse(config):
        raise AssertionError("classified before the widths were checked")

    monkeypatch.setattr(verify, "check_hypotheses", refuse)
    cfg = InequalityConfig("kms_sym", curl, catalog_partmap("sym", 3), 2.0, grid8)
    with pytest.raises(ArgumentError) as err:
        estimate_constant(cfg, FieldFamily(bump_widths=widths))
    assert err.value.argument == "bump_widths"


@pytest.mark.parametrize(
    "argument,call",
    [
        ("p", lambda: InequalityConfig(
            "korn_const_p1", catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3),
            True, TorusGrid(3, 8))),
        ("sweep", lambda: FieldFamily(sweep="no")),
        ("witness", lambda: FieldFamily(witness="no")),
        ("count", lambda: SphereSampling.standard(3, count=2.5)),
        ("count", lambda: SphereSampling.standard(3, count=True)),
        ("eval_points", lambda: curl_riesz_crosscheck("quadrature", eval_points=2.5)),
    ],
    ids=["p-bool", "sweep-str", "witness-str", "count-float", "count-bool", "eval_points-float"],
)
def test_a_public_argument_of_the_wrong_type_is_refused_by_name(argument, call):
    with pytest.raises(ArgumentError) as err:
        call()
    assert err.value.argument == argument


def test_integers_stay_accepted_where_they_were():
    curl, tr = catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3)
    assert InequalityConfig("korn_const_p1", curl, tr, 1, TorusGrid(3, 8)).p == 1
    assert InequalityConfig("korn_const", curl, tr, 2, TorusGrid(3, 8)).p == 2
    assert FieldFamily(sweep=0, witness=np.True_).to_dict()["sweep"] == 0
    assert SphereSampling.standard(3, count=np.int64(4)).points.shape == (10, 3)


def test_no_widths_and_the_default_widths_are_accepted():
    assert FieldFamily(bump_widths=()).bump_widths == ()
    assert FieldFamily().bump_widths == (0.4, 0.8)


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


def canonical_orbit_reference(grid):
    """(first, sizes): the first canonical frequency of each sorted |xi|, in row order, and its count."""
    canonical = grid.canonical_frequencies
    keys = np.sort(np.abs(canonical), axis=1)
    _, first, size = np.unique(keys, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return canonical[first[order]], size[order]


def sweep_case(n, ident, op, part_name, p, m, orbits):
    """One case of the batched-sweep reference; n = 3 keeps the ids it had without n and op."""
    name = f"{ident}-{part_name}-{p}-{m}-{orbits}"
    name = name if n == 3 else f"n{n}-{op}-{name}"
    return pytest.param(n, ident, op, part_name, p, m, orbits, id=name)


CURL3 = "curl_matrix_rowwise"
# every inequality id at M = 8; at M = 40 the 1,539 orbits span two chunks; at
# n = 2 and n = 4 the row-wise divergence with A = tr and the symmetric
# gradient at M = 4, 6, 8, 16, with C(M/2 + n - 1, n) - 1 orbits
SWEEP_CASES = [
    sweep_case(3, "korn_ell", "sym_gradient", None, 2.0, 8, 19),
    sweep_case(3, "kms_sym", CURL3, "sym", 2.0, 8, 19),
    sweep_case(3, "asplit", CURL3, "dev", 2.0, 8, 19),
    sweep_case(3, "korn_ellip", CURL3, "sym", 2.0, 8, 19),
    sweep_case(3, "korn_const", CURL3, "tr", 2.0, 8, 19),
    sweep_case(3, "korn_const2_p2", CURL3, "tr", 2.0, 8, 19),
    sweep_case(3, "korn_const_p1", CURL3, "tr", 1.0, 8, 19),
    sweep_case(3, "kms_sym", CURL3, "sym", 2.0, 40, 1539),
] + [
    sweep_case(n, ident, op, part_name, p, m, math.comb(m // 2 + n - 1, n) - 1)
    for n, p in ((2, 1.5), (4, 2.0))
    for ident, op, part_name in (
        ("korn_const", "div_matrix_rowwise", "tr"), ("korn_ell", "sym_gradient", None)
    )
    for m in (4, 6, 8, 16)
]


class TestBatchedSweep:
    @pytest.mark.parametrize("n,ident,op,part_name,p,m,orbits", SWEEP_CASES)
    def test_ratios_match_single_frequency_reference(
        self, sweep_calls, n, ident, op, part_name, p, m, orbits
    ):
        grid = TorusGrid(n, m)
        part = None if part_name is None else catalog_partmap(part_name, n)
        cfg = InequalityConfig(ident, catalog_operator(op, n), part, p, grid)
        freqs, vs, ratios, counts = _sweep(cfg)[:4]
        # every orbit is trusted, so the representatives are all that is swept
        assert sum(sweep_calls) == orbits
        assert (len(sweep_calls) > 1) == (m == 40)
        # one representative per orbit, the first canonical frequency of its sorted |xi|
        first, sizes = canonical_orbit_reference(grid)
        assert freqs.shape[0] == orbits
        assert np.array_equal(freqs, first)
        assert np.array_equal(counts, sizes)
        for xi, v, ratio in zip(freqs, vs, ratios):
            ref = single_frequency_trial(cfg, xi, v).ratio
            if math.isinf(ref) or math.isinf(ratio):
                assert ratio == ref, xi
            else:
                assert abs(ratio - ref) <= 1e-12 * max(abs(ref), abs(ratio)), xi

    @pytest.mark.parametrize("m", [4, 6, 8, 16])
    def test_one_dimensional_orbits_are_the_positive_frequencies(self, m):
        # no inequality takes n = 1 (each needs p < n), so the representatives alone:
        # every +-xi pair is one orbit, swept at xi > 0
        grid, gradient = TorusGrid(1, m), catalog_operator("gradient", 1)
        assert verify.orbit_certificate(gradient, None) == 0
        freqs, counts = verify._orbit_representatives(gradient, None, grid)
        first, sizes = canonical_orbit_reference(grid)
        assert np.array_equal(freqs, first)
        assert np.array_equal(counts, sizes)
        assert np.array_equal(freqs[:, 0], np.arange(1, m // 2)) and np.all(counts == 1)

    # every inequality id, korn_const without its correction, and asplit
    # with A = tr, whose curl is not elliptic on ker A; at k = 2 the Hessian
    # and the row-wise curl curl, which is not elliptic on ker tr either
    @pytest.mark.parametrize(
        "ident,spec,part_name,p,correction",
        [
            ("korn_ell", "sym_gradient", None, 2.0, None),
            ("kms_sym", "curl", "sym", 2.0, None),
            ("asplit", "curl", "dev", 1.5, None),
            ("asplit", "curl", "tr", 2.0, None),
            ("korn_ellip", "curl", "sym", 1.5, None),
            ("korn_const", "curl", "tr", 1.5, None),
            ("korn_const", "curl", "tr", 2.0, False),
            ("korn_const2_p2", "curl", "tr", 2.0, None),
            ("korn_const_p1", "curl", "tr", 1.0, None),
            ("korn_ell", "hessian", None, 1.5, None),
            ("korn_ellip", "curl_curl", "tr", 1.5, None),
            ("korn_const", "curl_curl", "tr", 1.5, None),
            ("korn_const2_p2", "curl_curl", "tr", 2.0, None),
            ("korn_const_p1", "curl_curl", "tr", 1.0, None),
        ],
    )
    def test_ratios_match_the_fft_path(self, grid8, curl, ident, spec, part_name, p, correction):
        # the closed form against kms_sides on the sampled plane wave, which
        # shares no arithmetic with it
        specs = {
            "sym_gradient": lambda: catalog_operator("sym_gradient", 3),
            "curl": lambda: curl,
            "hessian": hessian,
            "curl_curl": curl_curl_rowwise,
        }
        part = None if part_name is None else catalog_partmap(part_name, 3)
        cfg = InequalityConfig(ident, specs[spec](), part, p, grid8, correction_enabled=correction)
        freqs, vs, ratios, _ = _sweep(cfg)[:4]
        assert freqs.shape[0] == 19
        for xi, v, ratio in zip(freqs, vs, ratios):
            ref = trial_ratio(*kms_sides(cfg, plane_wave_field(grid8, xi, v)))
            if math.isinf(ref) or math.isinf(ratio):
                assert ratio == ref, xi
            else:
                assert abs(ratio - ref) <= 1e-12 * max(abs(ref), abs(ratio)), xi
        infinite = part_name == "tr" and not cfg.correction_enabled
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

    @pytest.fixture()
    def korn_const8(self, grid8, curl):
        return InequalityConfig("korn_const", curl, catalog_partmap("tr", 3), 2.0, grid8)

    def test_single_frequency_trial_refuses_a_fractional_frequency(self, korn_const8):
        # (1.5, 0, 0) was evaluated as a wave of its own but reported as (2, 0, 0)
        with pytest.raises(ArgumentError) as err:
            single_frequency_trial(korn_const8, (1.5, 0, 0), np.linspace(-1.0, 1.0, 9))
        assert err.value.argument == "xi"
        wave = single_frequency_trial(korn_const8, (2, 0, 0), np.linspace(-1.0, 1.0, 9))
        assert wave.field["xi"] == [2, 0, 0]
        assert (wave.lhs, wave.rhs) == pytest.approx((4.1404, 34.774), rel=1e-4)

    def test_single_frequency_trial_refuses_a_nyquist_frequency(self, korn_const8):
        # (4, 0, 0) lies on a Nyquist row at M = 8, outside the trial space
        with pytest.raises(ArgumentError) as err:
            single_frequency_trial(korn_const8, (4, 0, 0), np.linspace(-1.0, 1.0, 9))
        assert err.value.argument == "xi"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_single_frequency_trial_refuses_a_non_finite_frequency(self, korn_const8, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError) as err:
                single_frequency_trial(korn_const8, (1, bad, 0), np.linspace(-1.0, 1.0, 9))
        assert err.value.argument == "xi"

    def test_single_frequency_trial_refuses_a_vector_of_another_length(self, korn_const8):
        with pytest.raises(ArgumentError) as err:
            single_frequency_trial(korn_const8, (1, 0, 0), np.linspace(-1.0, 1.0, 3))
        assert err.value.argument == "v"

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
        vs, ratios = _sweep_vectors(cfg, np.asarray(xi, dtype=float)[None])[:2]
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
        freqs, vs, ratios, _ = _sweep(cfg)[:4]
        first = int(np.argmax(np.isinf(ratios)))
        assert est.argmax == {
            "generator": "plane_wave",
            "xi": [int(x) for x in freqs[first]],
            "v": [float(x) for x in vs[first]],
        }


# a few shared values, so that ties are common, any non-negative float, or inf
RATIOS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf]),
    st.floats(0.0, 1e300, allow_nan=False).map(abs),
)
# rows of (ratio, count) pairs, as the families hand them to the reduction
ROWS = st.lists(
    st.lists(st.tuples(RATIOS, st.integers(1, 4)), min_size=1, max_size=5), min_size=1, max_size=4
)


class TestReduce:
    @given(ROWS)
    @example([[(1.5, 1)]])
    @example([[(1.0, 2), (3.0, 1)], [(math.inf, 5)], [(0.5, 1)]])
    @example([[(2.0, 2), (2.0, 1), (1.0, 3)], [(2.0, 2)]])
    @example([[(math.inf, 3)], [(math.inf, 1)]])
    def test_median_and_maximum_are_those_of_the_repeated_ratios(self, rows):
        arrays = [(np.array([r for r, _ in row]), np.array([c for _, c in row])) for row in rows]
        reduced = verify._reduce([("family", r, c, lambda i: {}) for r, c in arrays])
        ratios, counts = (np.concatenate(a) for a in zip(*arrays))
        finite = np.isfinite(ratios)
        repeated = np.repeat(ratios[finite], counts[finite])
        want_median = np.median(repeated) if repeated.size else 0.0
        want_max = np.max(repeated) if repeated.size else 0.0
        # bit for bit, and 0.0 on both sides when no ratio is finite
        assert np.float64(reduced["median_ratio"]).tobytes() == np.float64(want_median).tobytes()
        assert np.float64(reduced["max_finite_ratio"]).tobytes() == np.float64(want_max).tobytes()
        assert reduced["n_trials"] == int(counts.sum())
        assert reduced["infinite_count"] == int(counts[~finite].sum())


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

    def test_classifies_once_per_probe(self, monkeypatch, curl):
        # the hypotheses do not depend on M: the first estimate checks them for every size
        checked = []
        check = verify.check_hypotheses

        def counting(config):
            checked.append(config.grid.points_per_axis)
            return check(config)

        monkeypatch.setattr(verify, "check_hypotheses", counting)
        probe = p1_probe(catalog_partmap("tr", 3), curl, [8, 16], family=small_family(1))
        assert checked == [8]
        assert all(e.hypotheses_met for e in probe.estimates)
        assert probe.estimates[1].hypotheses_note == probe.estimates[0].hypotheses_note

    def test_no_constant_rank_on_the_kernel_is_refused_whatever_enforce_says(self):
        # A = 0 and B = diag(d_1, d_2) at n = 2: B[xi] has rank 1 on the axes and
        # 2 elsewhere, so the correction Pi_B cannot be built
        spec = parse_operator_text("n 2\nd 2\nl 2\nk 1\ncoeff 1 0 : 1 0 0 0\ncoeff 0 1 : 0 0 0 1\n")
        zero = catalog_partmap("zero", 2, dim=2)
        with pytest.raises(PreconditionError, match="constant rank on ker\\(A\\)"):
            p1_probe(zero, spec, [8, 16], family=small_family(1))
        cfg = InequalityConfig("korn_const", spec, zero, 1.5, TorusGrid(2, 8))
        for enforce in (True, False):
            with pytest.raises(PreconditionError, match="constant rank on ker\\(A\\)"):
                estimate_constant(cfg, family=small_family(1), enforce=enforce)
        # without the correction nothing needs the constant rank: the trial is flagged
        uncorrected = InequalityConfig("korn_const", spec, zero, 1.5, TorusGrid(2, 8), False)
        est = estimate_constant(uncorrected, family=small_family(1), enforce=False)
        assert not est.hypotheses_met and "constant rank" in est.hypotheses_note

    def test_exponent_is_n_over_n_minus_one(self, grid8, curl):
        tr = catalog_partmap("tr", 3)
        cfg = InequalityConfig("korn_const_p1", curl, tr, 1.0, grid8)
        assert cfg.p_star == pytest.approx(1.5)
