"""The sweep and the witness search against unpruned references, and the work they do.

The reference implementations below factorise every matrix the way the
sweep did before it skipped work; the pruned paths must return the same
bits.  The sweep and the witness scan, which take one frequency per orbit,
are held against the full sweep and the full scan over every canonical
frequency.  The work-count guards pin how many frequencies are swept, how
many matrices are factorised (with singular vectors, or at all) and where
the correction is evaluated, so a redundant sweep, factorisation or
evaluation fails here.
"""

import json
import math

import numpy as np
import pytest

from kmslab import multipliers, operators, torus, verify
from kmslab.multipliers import MultiplierDescriptor
from kmslab.operators import (
    MultiIndex,
    OperatorSpec,
    catalog_operator,
    catalog_partmap,
    orbit_tensor_power,
    symbol_on_frequencies,
)
from kmslab.torus import TorusGrid
from kmslab.verify import (
    INEQUALITY_IDS,
    SWEEP_CHUNK,
    FieldFamily,
    InequalityConfig,
    estimate_constant,
    refinement_study,
    search_kernel_witness,
)
from kmslab.verify import _frequency_scales, _sweep, _sweep_vectors

CURL = catalog_operator("curl_matrix_rowwise", 3)


def anisotropic_curl():
    coeffs = {a: (2.0 if a.exponents[0] else 1.0) * mat for a, mat in CURL.coeffs.items()}
    return OperatorSpec("anisotropic_curl", n=3, d=9, l=9, k=1, coeffs=coeffs)


# every inequality id with a part map, and korn_const without its correction,
# whose kernel witnesses are flagged
PART_CASES = [
    ("kms_sym", "sym", 2.0, None),
    ("asplit", "dev", 2.0, None),
    ("korn_ellip", "sym", 2.0, None),
    ("korn_const", "tr", 2.0, None),
    ("korn_const2_p2", "tr", 2.0, None),
    ("korn_const_p1", "tr", 1.0, None),
    ("korn_const", "tr", 2.0, False),
]
CASE_IDS = ["kms_sym", "asplit", "korn_ellip", "korn_const", "korn_const2_p2",
            "korn_const_p1", "korn_const-uncorrected"]


def make_config(ident, part_name, p, correction, m):
    return InequalityConfig(
        ident, CURL, catalog_partmap(part_name, 3), p, TorusGrid(3, m),
        correction_enabled=correction,
    )


def reference_flags_and_vectors(cfg, freqs, cmats, null_tol=1e-12):
    """Worst vectors with the null gain L N factorised at every frequency."""
    d, count = cfg.operator.d, freqs.shape[0]
    a, b, c = _frequency_scales(cfg, freqs)
    eye = np.eye(d)
    if cmats is None:
        lmat = a[:, None, None] * np.broadcast_to(eye, (count, d, d))
    else:
        lmat = a[:, None, None] * (eye - cmats)
    amat = np.broadcast_to(cfg.part.matrix, (count,) + cfg.part.matrix.shape)
    bsym = symbol_on_frequencies(cfg.operator, freqs).real
    smat = np.concatenate([b[:, None, None] * amat, c[:, None, None] * bsym], axis=1)
    u, s, vh = np.linalg.svd(smat, full_matrices=False)
    smax = np.maximum(s[..., 0], 1.0)
    inv = np.where(s > null_tol * smax[..., None], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    pinv = np.einsum("fji,fj,fkj->fik", vh, inv, u)
    _, gain_s, gain_vh = np.linalg.svd(lmat @ (eye - pinv @ smat))
    flags = gain_s[:, 0] > 1e-8 * np.maximum(a, 1e-300)
    _, _, t_vh = np.linalg.svd(lmat @ pinv)
    v = np.einsum("fik,fk->fi", pinv, t_vh[:, 0])
    norms = np.linalg.norm(v, axis=1)
    v = np.where(norms[:, None] > 1e-13, v / np.maximum(norms, 1e-300)[:, None], eye[0])
    return flags, np.where(flags[:, None], gain_vh[:, 0], v)


def reference_witness(part, spec, grid, tol=1e-10):
    """Lowest witness with every frequency factorised with singular vectors."""
    freqs = grid.canonical_frequencies
    norm2 = np.sum(freqs.astype(float) ** 2, axis=1)
    keys = [freqs[:, j] for j in reversed(range(freqs.shape[1]))] + [norm2]
    freqs = freqs[np.lexsort(tuple(keys))]
    amat = np.broadcast_to(part.matrix, (freqs.shape[0],) + part.matrix.shape)
    stacked = np.concatenate([amat, symbol_on_frequencies(spec, freqs.astype(float)).real], axis=1)
    _, s, vh = np.linalg.svd(stacked)
    # a wide stack (fewer rows than d) has d - rows more singular values, all 0
    s = np.concatenate([s, np.zeros((s.shape[0], spec.d - s.shape[1]))], axis=1)
    hits = np.flatnonzero(s[:, -1] <= tol * np.maximum(s[:, 0], 1.0))
    if not hits.size:
        return None
    return freqs[hits[0]], vh[hits[0], -1]


def correction_on_frequencies(cfg, freqs):
    if not cfg.correction_enabled:
        return None
    return np.real(cfg.correction_descriptor.on_frequencies(freqs))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("ident,part_name,p,correction", PART_CASES, ids=CASE_IDS)
def test_pruned_null_gain_matches_unpruned_reference(ident, part_name, p, correction, m):
    cfg = make_config(ident, part_name, p, correction, m)
    freqs = cfg.grid.canonical_frequencies.astype(float)
    cmats = correction_on_frequencies(cfg, freqs)
    vs, ratios = _sweep_vectors(cfg, freqs)[:2]
    want_flags, want_vs = reference_flags_and_vectors(cfg, freqs, cmats)
    assert np.array_equal(vs, want_vs)
    # a null-gain direction has a vanishing right side and reads inf; no other does
    assert np.array_equal(np.isinf(ratios), want_flags)
    assert want_flags.any() == (correction is False)


WITNESS_PARTS = ("sym", "dev", "tr", "skew", "zero")
# every n = 3 catalog operator, the n = 2 and n = 4 matrix divergences and
# the anisotropic curl, which fails the orbit check, with every part map
WITNESS_CASES = [
    (spec, part)
    for spec in (
        CURL,
        catalog_operator("div_matrix_rowwise", 3),
        catalog_operator("sym_curl_matrix", 3),
        catalog_operator("div_matrix_rowwise", 2),
        catalog_operator("div_matrix_rowwise", 4),
        anisotropic_curl(),
    )
    for part in WITNESS_PARTS
]


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize(
    "spec,part_name", WITNESS_CASES, ids=[f"{s.name}-n{s.n}-{p}" for s, p in WITNESS_CASES]
)
def test_witness_scan_matches_full_svd_scan(spec, part_name, m):
    part, grid = catalog_partmap(part_name, spec.n), TorusGrid(spec.n, m)
    assert (orbit_tensor_power(spec, part) is None) == (spec.name == "anisotropic_curl")
    got = search_kernel_witness(part, spec, grid)
    want = reference_witness(part, spec, grid)
    assert (got is None) == (want is None)
    if spec is CURL:
        # sym(a (x) xi) = 0 and dev(a (x) xi) = 0 force a = 0
        assert (got is None) == (part_name in ("sym", "dev"))
    if got is not None:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def quartic(name, fourth, mixed):
    """The scalar symbol fourth sum_j xi_j^4 + mixed sum_{i<j} xi_i^2 xi_j^2 (n = 3, d = l = 1, k = 4)."""
    coeffs = {}
    for alpha in operators.multiindex_enumerate(3, 4):
        e = alpha.exponents
        if 4 in e or sorted(e) == [0, 2, 2]:
            coeffs[alpha] = np.full((1, 1), fourth if 4 in e else mixed)
    return OperatorSpec(name, n=3, d=1, l=1, k=4, coeffs=coeffs)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize(
    "spec,lowest",
    [
        # vanishes on the orbit of (1, 1, 1) and nowhere closer to 0
        (quartic("diagonal_quartic", 1.0, -1.0), [1, -1, -1]),
        # 17 |xi|^4 - 25 sum_j xi_j^4 vanishes on the orbit of (0, 1, 2) first
        (quartic("off_axis_quartic", -8.0, 34.0), [0, 1, -2]),
    ],
    ids=["orbit-111", "orbit-012"],
)
def test_witness_scan_takes_an_off_axis_orbit_at_its_lowest_member(spec, lowest, m):
    # the lowest canonical member of the orbit of x is (0 ... 0, x_z, -x_{n-1}, ..., -x_{z+1}),
    # not x itself
    part, grid = catalog_partmap("zero", 3, dim=1), TorusGrid(3, m)
    assert orbit_tensor_power(spec, part) == 0
    got = search_kernel_witness(part, spec, grid)
    want = reference_witness(part, spec, grid)
    assert got[0].tolist() == want[0].tolist() == lowest
    assert np.array_equal(got[1], want[1])


def svd_counter(monkeypatch, vectors_only):
    """call(fn, *args) -> (fn(*args), matrices np.linalg.svd factorised).

    With vectors_only, singular-values-only calls are not counted.
    """
    svd = np.linalg.svd

    def call(fn, *args):
        counts = []

        def counting(a, *svd_args, **kwargs):
            if kwargs.get("compute_uv", True) or not vectors_only:
                counts.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *svd_args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counting)
            result = fn(*args)
        return result, sum(counts)

    return call


@pytest.fixture
def svd_with_vectors(monkeypatch):
    """call(fn, *args) -> (fn(*args), matrices np.linalg.svd factorised with singular vectors)."""
    return svd_counter(monkeypatch, vectors_only=True)


@pytest.fixture
def svd_factorised(monkeypatch):
    """call(fn, *args) -> (fn(*args), matrices np.linalg.svd factorised in any mode)."""
    return svd_counter(monkeypatch, vectors_only=False)


def test_kms_sym_sweep_factorises_two_matrices_per_frequency(svd_with_vectors, sweep_calls):
    cfg = make_config("kms_sym", "sym", 2.0, None, 16)
    (freqs, *_), factorised = svd_with_vectors(_sweep, cfg)
    # 1,687 canonical frequencies fall into 119 signed-permutation orbits
    assert freqs.shape[0] == 119
    assert sweep_calls == [119]
    assert factorised == 2 * 119


@pytest.mark.parametrize(
    "ident,part_name,p", [("kms_sym", "sym", 2.0), ("korn_const_p1", "tr", 1.0)]
)
def test_benchmark_configs_take_the_orbit_path(sweep_calls, ident, part_name, p):
    cfg = make_config(ident, part_name, p, None, 16)
    assert orbit_tensor_power(cfg.operator, cfg.part) == 2
    freqs, _, _, counts = _sweep(cfg)[:4]
    assert freqs.shape[0] == 119
    assert int(counts.sum()) == 1687
    assert sweep_calls == [119]


@pytest.mark.parametrize("ident", ["asplit", "korn_ellip"])
def test_non_elliptic_orbits_are_swept_once(sweep_calls, ident):
    # with A = tr the curl is not elliptic on ker A: every representative
    # reads inf, and it counts for its whole orbit like any other
    cfg = make_config(ident, "tr", 2.0, None, 16)
    assert orbit_tensor_power(cfg.operator, cfg.part) is not None
    freqs, _, ratios, counts = _sweep(cfg)[:4]
    assert sweep_calls == [119]
    assert freqs.shape[0] == 119 and int(counts.sum()) == 1687
    assert np.isinf(ratios).all()
    assert np.isinf(full_sweep(cfg)[2]).all()
    assert_matches_full_sweep(cfg)


def test_non_elliptic_sweep_at_m32_takes_one_evaluation_per_orbit(sweep_calls):
    # 14,895 canonical frequencies in 815 signed-permutation orbits, all inf
    cfg = make_config("korn_ellip", "tr", 2.0, None, 32)
    est = estimate_constant(cfg, SWEEP_ONLY, enforce=False)
    assert sum(sweep_calls) == 815
    assert est.n_trials == est.infinite_count == 14895


@pytest.mark.parametrize("part_name", ["sym", "tr"])
def test_witness_scan_factorises_with_vectors_at_most_once(svd_with_vectors, part_name):
    part, grid = catalog_partmap(part_name, 3), TorusGrid(3, 16)
    found, factorised = svd_with_vectors(search_kernel_witness, part, CURL, grid)
    assert (found is None) == (part_name == "sym")
    assert factorised == (0 if found is None else 1)


def test_witness_scan_factorises_once_per_orbit(svd_factorised):
    # kms_sym has no witness: the 1,687 canonical frequencies fall into 119
    # signed-permutation orbits, and each is decided at one member
    part, grid = catalog_partmap("sym", 3), TorusGrid(3, 16)
    found, factorised = svd_factorised(search_kernel_witness, part, CURL, grid)
    assert found is None
    assert factorised == 119


def test_korn_const_p1_evaluates_each_correction_frequency_once():
    cfg = make_config("korn_const_p1", "tr", 1.0, None, 16)
    desc, grid = cfg.correction_descriptor, cfg.grid
    evaluated = []
    batch = desc.batch

    def counting(freqs):
        evaluated.append(int(np.prod(np.shape(freqs)[:-1])))
        return batch(freqs)

    desc.batch = counting
    estimate_constant(cfg, FieldFamily(random_trials=2, bump_widths=(0.5,)), seed=0)
    # the sweep's 119 representatives in one batch; the half-grid table of the
    # field trials takes its 88 sorted |xi| / gcd(xi) off the Nyquist planes
    # (the primitive 0 <= a <= b <= c <= 7; 2,304 bins) from the sweep and
    # evaluates none; then the kernel witness
    assert evaluated == [119, 1]
    assert desc.grid_table(grid).keys.shape[0] == 88
    assert int(np.prod(grid.half_shape)) == 2304


@pytest.mark.parametrize("ident,p", [("korn_const", 2.0), ("korn_const_p1", 1.0)])
def test_sweep_only_family_builds_no_correction_table(monkeypatch, ident, p):
    built = []
    grid_table = MultiplierDescriptor.grid_table

    def counting(self, grid):
        built.append(grid.points_per_axis)
        return grid_table(self, grid)

    monkeypatch.setattr(MultiplierDescriptor, "grid_table", counting)
    family = FieldFamily(random_trials=0, bump_widths=(), witness=False)
    est = estimate_constant(make_config(ident, "tr", p, None, 16), family)
    assert est.n_trials == 1687
    assert built == []


# --------------------------------------------------------------------------
# the orbit sweep against the full sweep
# --------------------------------------------------------------------------

SWEEP_ONLY = FieldFamily(sweep=True, random_trials=0, bump_widths=(), witness=False)
FORCED_P = {"korn_const_p1": 1.0, "korn_const2_p2": 2.0}


def full_sweep(cfg):
    """(freqs, vectors, ratios) at every canonical frequency, chunk by chunk in canonical order."""
    freqs = cfg.grid.canonical_frequencies
    out = []
    for lo in range(0, freqs.shape[0], SWEEP_CHUNK):
        chunk = freqs[lo : lo + SWEEP_CHUNK]
        vs, ratios = _sweep_vectors(cfg, chunk.astype(float))[:2]
        out.append((chunk, vs, ratios))
    return tuple(np.concatenate(part) for part in zip(*out))


def sweep_statistics(freqs, ratios):
    """The sweep-only ConstantEstimate fields, from one ratio per canonical frequency."""
    infinite = np.isinf(ratios)
    finite = ratios[~infinite] if (~infinite).any() else np.array([0.0])
    first = int(np.argmax(infinite)) if infinite.any() else int(np.argmax(ratios))
    return {
        "n_trials": ratios.size,
        "infinite_count": int(infinite.sum()),
        "max_ratio": math.inf if infinite.any() else float(ratios.max()),
        "max_finite_ratio": float(finite.max()),
        "median_ratio": float(np.median(finite)),
        "argmax_xi": [int(x) for x in freqs[first]],
    }


def close(got, want, rtol=1e-12):
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want))


def catalog_cases():
    cases = [("korn_ell", "sym_gradient", None)]
    for ident in INEQUALITY_IDS[1:]:
        for op in ("curl_matrix_rowwise", "div_matrix_rowwise", "sym_curl_matrix"):
            for part in ("sym", "dev", "tr", "skew", "zero"):
                if ident != "kms_sym" or (op, part) == ("curl_matrix_rowwise", "sym"):
                    cases.append((ident, op, part))
    return cases


def assert_matches_full_sweep(cfg):
    assert orbit_tensor_power(cfg.operator, cfg.part) is not None
    freqs, _, ratios = full_sweep(cfg)
    want = sweep_statistics(freqs, ratios)
    got = estimate_constant(cfg, SWEEP_ONLY, enforce=False)
    assert got.n_trials == want["n_trials"]
    assert got.infinite_count == want["infinite_count"]
    for key in ("max_ratio", "max_finite_ratio", "median_ratio"):
        assert close(getattr(got, key), want[key]), key
    if got.argmax["xi"] != want["argmax_xi"]:
        # a roundoff tie: the reference ratio there is the maximum to 1e-12
        assert not math.isinf(want["max_ratio"])
        moved = np.flatnonzero(np.all(freqs == got.argmax["xi"], axis=1))
        assert moved.size == 1 and close(float(ratios[moved[0]]), want["max_ratio"])


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("ident,op,part_name", catalog_cases())
def test_orbit_sweep_matches_the_full_sweep(ident, op, part_name, m):
    part = None if part_name is None else catalog_partmap(part_name, 3)
    assert_matches_full_sweep(
        InequalityConfig(
            ident, catalog_operator(op, 3), part, FORCED_P.get(ident, 2.0), TorusGrid(3, m)
        )
    )


def pair_products():
    # B[xi] = (xi_1 xi_2, xi_2 xi_3, xi_1 xi_3) vanishes on the axes only
    coeffs = {}
    for row, e in enumerate(((1, 1, 0), (0, 1, 1), (1, 0, 1))):
        coeffs[MultiIndex(e)] = np.eye(3)[:, [row]]
    return OperatorSpec("pair_products", n=3, d=1, l=3, k=2, coeffs=coeffs)


@pytest.mark.parametrize("m", [8, 40])
def test_infinite_orbits_count_for_every_member(sweep_calls, m):
    # the axis orbits (0, 0, a) read inf and count for their 3 canonical
    # members; at M = 40 the 1,539 representatives span two chunks
    cfg = InequalityConfig("korn_ell", pair_products(), None, 2.0, TorusGrid(3, m))
    freqs, _, ratios, counts = _sweep(cfg)[:4]
    assert sweep_calls == ([1024, 1539 - 1024] if m == 40 else [19])
    assert freqs.shape[0] == sum(sweep_calls)
    axis = np.count_nonzero(freqs, axis=1) == 1
    assert np.array_equal(np.isinf(ratios), axis)
    assert np.all(counts[axis] == 3) and axis.sum() == m // 2 - 1
    assert_matches_full_sweep(cfg)


def test_large_finite_ratios_count_for_their_orbit(sweep_calls):
    # a sym_gradient scaled by 1e-9 has sweep ratios near 1.4e9, all finite
    eps = catalog_operator("sym_gradient", 3)
    scaled = OperatorSpec(
        "tiny_sym_gradient", n=3, d=3, l=9, k=1,
        coeffs={alpha: 1e-9 * mat for alpha, mat in eps.coeffs.items()},
    )
    cfg = InequalityConfig("korn_ell", scaled, None, 2.0, TorusGrid(3, 8))
    assert orbit_tensor_power(cfg.operator, cfg.part) is not None
    got_freqs, _, got_ratios, counts = _sweep(cfg)[:4]
    assert sweep_calls == [19] and int(counts.sum()) == 171
    freqs, _, ratios = full_sweep(cfg)
    assert np.isfinite(ratios).all()
    assert 1.3e9 < ratios.min() and ratios.max() < 1.5e9
    rows = [int(np.flatnonzero(np.all(freqs == xi, axis=1))[0]) for xi in got_freqs]
    assert np.array_equal(got_ratios, ratios[rows])
    assert_matches_full_sweep(cfg)


def pair_sum_symbol():
    # xi_1 xi_2 + xi_2 xi_3 + xi_1 xi_3: fixed by permutations, not by sign flips
    coeffs = {MultiIndex(e): np.ones((1, 1)) for e in ((1, 1, 0), (0, 1, 1), (1, 0, 1))}
    return OperatorSpec("pair_sum", n=3, d=1, l=1, k=2, coeffs=coeffs)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize(
    "ident,spec,part",
    [
        ("korn_const", anisotropic_curl(), catalog_partmap("tr", 3)),
        ("korn_ell", pair_sum_symbol(), None),
    ],
    ids=["anisotropic-curl", "pair-sum"],
)
def test_broken_symmetry_fails_the_check_and_sweeps_every_frequency(
    sweep_calls, ident, spec, part, m
):
    cfg = InequalityConfig(ident, spec, part, 2.0, TorusGrid(3, m))
    assert orbit_tensor_power(cfg.operator, cfg.part) is None
    got = _sweep(cfg)
    # every frequency is an orbit of its own, swept once
    assert sum(sweep_calls) == got[0].shape[0]
    freqs, vs, ratios = full_sweep(cfg)
    assert np.array_equal(got[0], freqs)
    assert np.array_equal(got[1], vs)
    assert np.array_equal(got[2], ratios)
    assert np.all(got[3] == 1)


def korn_const_tr(m):
    """korn_const with A = tr on a fresh operator and part map, whose orbit certificate is not yet known."""
    return InequalityConfig(
        "korn_const", catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3), 2.0,
        TorusGrid(3, m),
    )


def count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_a_refinement_study_computes_each_configuration_fact_once(monkeypatch):
    # the hypothesis check, the correction descriptor and the orbit
    # certificate do not depend on the grid: one each for three grids, and
    # the same report as three estimates on freshly built configs
    family = FieldFamily(random_trials=2)
    want = [estimate_constant(korn_const_tr(m), family, seed=3).to_dict() for m in (8, 16, 32)]
    counts = {}
    count_calls(monkeypatch, verify, "check_hypotheses", counts)
    count_calls(monkeypatch, verify, "composed_correction_symbol", counts)
    count_calls(monkeypatch, operators, "orbit_tensor_power", counts)
    study = refinement_study(korn_const_tr(8), [8, 16, 32], family, seed=3)
    assert counts == {"check_hypotheses": 1, "composed_correction_symbol": 1, "orbit_tensor_power": 1}
    got = [e.to_dict() for e in study.estimates]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_a_certified_estimate_walks_the_fundamental_domain_alone(monkeypatch):
    # the sweep, the witness scan and the certified correction table take
    # their orbits from operators.fundamental_domain: no frequency_orbits,
    # and the grid's canonical frequencies are never built
    counts = {}
    for module in (operators, torus, multipliers, verify):
        if hasattr(module, "frequency_orbits"):
            count_calls(monkeypatch, module, "frequency_orbits", counts)
    cfg = korn_const_tr(16)
    estimate = estimate_constant(cfg, FieldFamily(random_trials=1), seed=0)
    assert counts == {}
    assert "canonical_frequencies" not in cfg.grid.__dict__
    assert estimate.family_maxima.keys() == {"sweep", "random", "bump", "witness"}
    # the anisotropic curl fails the orbit check: it sweeps and scans every canonical frequency
    anisotropic = InequalityConfig(
        "korn_const", anisotropic_curl(), catalog_partmap("tr", 3), 2.0, TorusGrid(3, 16)
    )
    estimate_constant(anisotropic, FieldFamily(random_trials=1), seed=0)
    assert "canonical_frequencies" in anisotropic.grid.__dict__


# --------------------------------------------------------------------------
# the witness scan after the sweep
# --------------------------------------------------------------------------

def witness_test_flags(cfg, freqs):
    """The witness test of search_kernel_witness on W = [A; B[xi]] at each frequency."""
    amat = np.broadcast_to(cfg.part.matrix, (freqs.shape[0],) + cfg.part.matrix.shape)
    stacked = np.concatenate([amat, symbol_on_frequencies(cfg.operator, freqs).real], axis=1)
    s = np.linalg.svd(stacked, compute_uv=False)
    s = np.concatenate([s, np.zeros((s.shape[0], cfg.operator.d - s.shape[1]))], axis=1)
    return s[:, -1] <= verify.WITNESS_TOL * np.maximum(s[:, 0], 1.0)


def mask_cases():
    """(id, ident, spec, part, correction) per case.

    The catalog configs with a part map (all certified), the anisotropic curl,
    and two quartics whose witness is not the first orbit the scan takes.
    """
    cases = [
        (f"{ident}-{op}-{part}", ident, catalog_operator(op, 3), catalog_partmap(part, 3), None)
        for ident, op, part in catalog_cases() if part is not None
    ]
    cases.append(("anisotropic-curl-tr", "korn_const", anisotropic_curl(), catalog_partmap("tr", 3), None))
    zero = catalog_partmap("zero", 3, dim=1)
    for spec in (quartic("diagonal_quartic", 1.0, -1.0), quartic("off_axis_quartic", -8.0, 34.0)):
        cases.append((spec.name, "korn_const", spec, zero, False))
    return cases


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize(
    "ident,spec,part,correction", [c[1:] for c in mask_cases()], ids=[c[0] for c in mask_cases()]
)
def test_the_sweep_mask_keeps_the_witness_bit_for_bit(ident, spec, part, correction, m):
    # an orbit the sweep clears fails the witness test at its representative, and
    # the scan that skips the cleared orbits returns the full scan's (xi, v)
    cfg = InequalityConfig(ident, spec, part, FORCED_P.get(ident, 2.0), TorusGrid(3, m), correction)
    freqs, _, ratios, _, clear, _ = _sweep(cfg)
    assert clear.shape == ratios.shape
    assert not np.any(clear & witness_test_flags(cfg, freqs.astype(float)))
    got = search_kernel_witness(part, spec, cfg.grid, clear)
    want = search_kernel_witness(part, spec, cfg.grid)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype


def witness_work(monkeypatch):
    """The frequencies each search_kernel_witness call evaluates the symbol at, in call order."""
    scanned = []
    scan, symbol = verify.search_kernel_witness, verify.symbol_on_frequencies

    def counting_scan(*args):
        scanned.append(0)

        def counting_symbol(spec, freqs):
            scanned[-1] += int(np.prod(np.shape(freqs)[:-1]))
            return symbol(spec, freqs)

        with monkeypatch.context() as patch:
            patch.setattr(verify, "symbol_on_frequencies", counting_symbol)
            return scan(*args)

    monkeypatch.setattr(verify, "search_kernel_witness", counting_scan)
    return scanned


def test_after_the_sweep_kms_sym_factorises_no_witness_matrix(monkeypatch, svd_factorised):
    # the sweep clears all 119 orbits at M = 16, so the scan factorises nothing
    cfg = make_config("kms_sym", "sym", 2.0, None, 16)
    clear = _sweep(cfg)[4]
    assert clear.size == 119 and clear.all()
    found, factorised = svd_factorised(search_kernel_witness, cfg.part, CURL, cfg.grid, clear)
    assert found is None and factorised == 0
    scanned = witness_work(monkeypatch)
    estimate_constant(cfg, FieldFamily(random_trials=0, bump_widths=()))
    assert scanned == [0]


def test_after_the_sweep_korn_const_p1_scans_one_orbit_per_grid(monkeypatch):
    # its first orbit in scan order holds the witness; the scan stops there
    cfg = make_config("korn_const_p1", "tr", 1.0, None, 8)
    for m in (8, 16, 32):
        assert search_kernel_witness(cfg.part, CURL, TorusGrid(3, m))[0].tolist() == [0, 0, 1]
    scanned = witness_work(monkeypatch)
    refinement_study(cfg, [8, 16, 32], FieldFamily(random_trials=1, bump_widths=()))
    assert scanned == [1, 1, 1]
