"""kms_sides streams the half spectrum; its numbers are the whole-box composition's, bit for bit.

The block pass walks the bins in runs (torus._bin_runs) and the slab
reducer makes the samples x_0 slab by x_0 slab (torus._slabs,
torus._lq_norms).  sides_reference.sides composes the same sides on the
whole box with whole-grid sample arrays, as kms_sides did before it
streamed; every trial must agree with it exactly.  The boxes cover a single
run and several runs, partial band boxes of generated fields and the full
box of any other field.  A call must also hold less than one sample array
of the whole grid.
"""

import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sides_reference import operator_spectrum, sides
from test_reduced_field import curl_curl_rowwise
from kmslab import torus
from kmslab.operators import OperatorSpec, catalog_operator, catalog_partmap, multiindex_enumerate
from kmslab.torus import (
    BandBox,
    HalfSpectrum,
    TensorField,
    TorusGrid,
    bump_field,
    plane_wave_field,
    random_bandlimited,
)
from kmslab.verify import INEQUALITY_IDS, InequalityConfig, kms_sides

# (n, operator, part map) triples with a correction that builds; k = 2 for curl_curl_rowwise
OPERATORS = {
    3: [
        ("curl_matrix_rowwise", "tr"), ("div_matrix_rowwise", "dev"),
        ("sym_curl_matrix", "skew"), ("curl_curl_rowwise", "tr"),
    ],
    2: [("div_matrix_rowwise", "tr"), ("div_matrix_rowwise", "sym")],
}
EXPONENTS = (1.2, 1.5, 2.0, 2.5)


def operator(name, n):
    return curl_curl_rowwise() if name == "curl_curl_rowwise" else catalog_operator(name, n)


def generic_operator(n, d, l, seed=0):
    """A first-order operator with normal random coefficients.

    A catalog operator's coefficients are 0 and +-1, so each of its real
    products is exact however BLAS sums it; these are not.
    """
    rng = np.random.default_rng(seed)
    coeffs = {alpha: rng.standard_normal((l, d)) for alpha in multiindex_enumerate(n, 1)}
    return OperatorSpec("generic", n=n, d=d, l=l, k=1, coeffs=coeffs)


@functools.lru_cache(maxsize=None)
def make_config(ident, n, m, op, part, p, correction):
    grid = TorusGrid(n, m)
    if ident == "korn_ell":
        return InequalityConfig(ident, catalog_operator("sym_gradient", n), None, p, grid)
    if ident == "kms_sym":
        op, part = "curl_matrix_rowwise", "sym"
    return InequalityConfig(ident, operator(op, n), catalog_partmap(part, n), p, grid, correction)


def make_field(kind, grid, d, seed):
    rng = np.random.default_rng(seed)
    m = grid.points_per_axis
    if kind == "random":
        return random_bandlimited(grid, d, max(1, m // 4), seed=seed)
    if kind == "bump":
        v = rng.standard_normal(d)
        return bump_field(grid, rng.uniform(0.0, 2.0 * math.pi, grid.n), 0.4, v / np.linalg.norm(v))
    if kind == "transformed":
        # an ordinary field built from a generated one: the full box, Nyquist rows dropped
        return 2.0 * random_bandlimited(grid, d, max(1, m // 4), seed=seed)
    if kind == "noise":
        return TensorField(grid, rng.standard_normal(grid.shape + (d,))).with_zero_mean()
    xi = np.zeros(grid.n, np.int64)
    while not xi.any():
        xi = rng.integers(-(m // 2 - 1), m // 2, size=grid.n)
    return plane_wave_field(grid, xi, rng.standard_normal(d))


FIELDS = ("random", "bump", "transformed", "noise", "plane")


def check(cfg, fld):
    got = kms_sides(cfg, fld)
    want = sides(cfg, fld)
    assert got == want, (got, want)


@st.composite
def trials(draw):
    n = draw(st.sampled_from([2, 3]))
    ident = draw(st.sampled_from(INEQUALITY_IDS))
    if ident in ("kms_sym", "korn_const2_p2"):
        # p = 2 < n
        n = 3
    op, part = draw(st.sampled_from(OPERATORS[n]))
    if ident == "asplit" and op == "curl_curl_rowwise":
        op = "curl_matrix_rowwise"
    p = {"korn_const_p1": 1.0, "korn_const2_p2": 2.0}.get(ident)
    if p is None:
        p = draw(st.sampled_from([q for q in EXPONENTS if q < n]))
    correction = draw(st.booleans()) if ident.startswith("korn_const") else False
    m = 2 * draw(st.integers(2, 8 if n == 3 else 16))
    cfg = make_config(ident, n, m, op, part, p, correction)
    return cfg, draw(st.sampled_from(FIELDS)), draw(st.integers(0, 2**16))


@settings(max_examples=200)
@given(trial=trials())
def test_streamed_sides_are_the_whole_box_sides_bit_for_bit(trial):
    cfg, kind, seed = trial
    check(cfg, make_field(kind, cfg.grid, cfg.operator.d, seed))


CURL_CASES = [
    ("kms_sym", 1.5, False), ("asplit", 2.5, False), ("korn_ellip", 1.2, False),
    ("korn_const", 2.0, True), ("korn_const", 2.0, False), ("korn_const", 1.2, True),
    ("korn_const_p1", 1.0, True), ("korn_const_p1", 1.0, False),
    ("korn_const2_p2", 2.0, True), ("korn_const2_p2", 2.0, False), ("korn_ell", 2.5, False),
]


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("ident,p,correction", CURL_CASES)
def test_every_inequality_on_every_kind_of_field(ident, p, correction, kind):
    cfg = make_config(ident, 3, 16, "curl_matrix_rowwise", "tr", p, correction)
    check(cfg, make_field(kind, cfg.grid, cfg.operator.d, 5))


@pytest.mark.parametrize("ident,p,correction", CURL_CASES[:4] + CURL_CASES[6:9])
def test_a_box_of_several_runs(ident, p, correction):
    # M = 48 on the full box: 57,600 bins, more than one run for the curl
    cfg = make_config(ident, 3, 48, "curl_matrix_rowwise", "tr", p, correction)
    fld = make_field("transformed", cfg.grid, cfg.operator.d, 3)
    assert len(torus._bin_runs(HalfSpectrum.of(fld).box, cfg.operator)) > 1
    check(cfg, fld)


def test_a_box_of_several_runs_with_derivative_blocks():
    # korn_ell reads the L^p norm of grad P through its derivative blocks
    cfg = make_config("korn_ell", 3, 48, None, None, 1.5, False)
    fld = make_field("noise", cfg.grid, cfg.operator.d, 4)
    assert len(torus._bin_runs(HalfSpectrum.of(fld).box, cfg.operator)) > 1
    check(cfg, fld)


@pytest.mark.parametrize("ident,p", [("korn_ellip", 1.5), ("korn_const2_p2", 2.0)])
def test_a_generic_operator_in_several_runs(ident, p):
    # a box in runs keeps the whole box's bits only while each run's product
    # takes the kernel BLAS takes for the whole box
    grid = TorusGrid(3, 48)
    cfg = InequalityConfig(ident, generic_operator(3, 9, 9), catalog_partmap("tr", 3), p, grid, False)
    fld = make_field("transformed", grid, 9, 6)
    assert len(torus._bin_runs(HalfSpectrum.of(fld).box, cfg.operator)) > 1
    check(cfg, fld)


@pytest.mark.parametrize(
    "name,n,m",
    [
        ("curl_matrix_rowwise", 3, 48), ("sym_gradient", 3, 64), ("div_matrix_rowwise", 3, 48),
        ("generic 9 to 9", 3, 48), ("generic 3 to 1", 3, 96), ("generic 4 to 2", 2, 512),
    ],
)
def test_apply_operator_is_the_whole_box_product(name, n, m):
    if name.startswith("generic"):
        d, l = (int(x) for x in name.split()[1::2])
        spec = generic_operator(n, d, l)
    else:
        spec = catalog_operator(name, n)
    grid = TorusGrid(n, m)
    for fld in (make_field("noise", grid, spec.d, 1), make_field("bump", grid, spec.d, 1)):
        f_hat = HalfSpectrum.of(fld)
        if fld._spectrum is None:
            assert len(torus._bin_runs(f_hat.box, spec)) > 1
        got = f_hat.apply_operator(spec).coefficients
        want = operator_spectrum(spec, f_hat.box, f_hat.coefficients)
        assert np.array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("n,m", [(1, 16), (2, 24), (3, 16), (3, 48), (4, 8)])
def test_runs_are_whole_lines_that_cover_the_box_in_order(n, m):
    for spec in (catalog_operator("gradient", n), catalog_operator("divergence", n)):
        for cutoff in sorted({1, m // 4, m // 2 - 1, m // 2}):
            box = BandBox(TorusGrid(n, m), cutoff)
            runs = torus._bin_runs(box, spec)
            line = box.shape[-1]
            assert runs[0].start == 0 and runs[-1].stop == math.prod(box.shape)
            assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
            product = [(r.stop - r.start) * 4 * spec.d * spec.l for r in runs]
            assert all(r.start % line == 0 and r.stop % line == 0 for r in runs)
            # every run of a box split in runs holds BLOCK_PRODUCT multiply-adds or more
            assert len(runs) == 1 or min(product) >= torus.BLOCK_PRODUCT


def test_a_large_box_is_cut_into_even_runs():
    spec = catalog_operator("curl_matrix_rowwise", 3)
    runs = torus._bin_runs(BandBox(TorusGrid(3, 64), 32), spec)
    sizes = [r.stop - r.start for r in runs]
    assert len(runs) > 2 and max(sizes) - min(sizes) <= 33


@st.composite
def slabbed(draw):
    n = draw(st.integers(1, 3))
    m = 2 * draw(st.integers(2, 12))
    return n, m, draw(st.integers(1, m // 2)), draw(st.integers(1, m))


@settings(max_examples=40)
@given(case=slabbed(), seed=st.integers(0, 2**16))
def test_slabs_are_the_inverse_plane_by_plane(case, seed):
    n, m, cutoff, planes = case
    box = BandBox(TorusGrid(n, m), cutoff)
    coef = np.random.default_rng(seed).standard_normal(box.shape + (3, 2)).view(complex)[..., 0]
    want = torus._irfftn(box, coef)
    got = np.empty_like(want)
    for where, values in torus._slabs(box, torus._lines(box, coef), planes):
        got[where] = values
    assert np.array_equal(got, want)
    # a line buffer written run by run is inverted in place to the same samples
    lines = torus._line_buffer(box, 3)
    flat = coef.reshape(-1, 3)
    for lo in range(0, flat.shape[0], 7):
        run = slice(lo, min(lo + 7, flat.shape[0]))
        torus._write_run(box, lines, run, flat[run])
    assert np.array_equal(lines, torus._lines(box, coef))
    for where, values in torus._slabs(box, lines, planes):
        assert np.array_equal(values, want[where])


def test_the_slab_reducer_is_the_lq_norm_of_the_samples():
    grid = TorusGrid(3, 24)
    part = catalog_partmap("dev", 3)
    for fld in (make_field("bump", grid, 9, 2), make_field("noise", grid, 9, 2)):
        f_hat = HalfSpectrum.of(fld)
        values = torus._inverse(f_hat.box, f_hat.coefficients)
        for q in (1.0, 1.5, 3.0, 6.0):
            want = [torus._lp(grid, values, q), torus._lp(grid, part.apply(values), q)]
            lines = torus._lines(f_hat.box, f_hat.coefficients)
            assert torus._lq_norms(f_hat.box, lines, q, part) == want


MEMORY_CASES = [
    ("kms_sym", 1.5), ("korn_const", 2.0), ("korn_const", 1.5), ("korn_const_p1", 1.0),
    ("korn_const2_p2", 2.0), ("asplit", 1.5), ("korn_ellip", 1.5),
]


def memory_config(ident, p):
    return make_config(ident, 3, 64, "curl_matrix_rowwise", "tr", p, ident.startswith("korn_const"))


@pytest.mark.parametrize("ident,p", MEMORY_CASES)
def test_a_trial_holds_less_than_one_sample_array(ident, p):
    # one grid.shape + (d,) float64 array at M = 64 is 18.9 MB; the whole-box
    # composition peaked at 42.0, 31.6, 31.6 and 6.2 MB on kms_sym, korn_const
    # (p = 2), korn_const_p1 and korn_const2_p2
    grid = TorusGrid(3, 64)
    cfg = memory_config(ident, p)
    # the grid's cached arrays and the correction table are made on a first call
    kms_sides(cfg, random_bandlimited(grid, 9, 16, seed=0))
    fld = random_bandlimited(grid, 9, 16, seed=1)
    tracemalloc.start()
    try:
        kms_sides(cfg, fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < math.prod(grid.shape) * 9 * 8


@pytest.mark.parametrize("ident,p", [("korn_const_p1", 1.0), ("korn_const", 1.5)])
def test_a_trial_holds_one_line_buffer_at_a_time(ident, p, monkeypatch):
    # both sides are L^q norms here: B's buffer must be gone before R's is made
    cfg = memory_config(ident, p)
    make, made = torus._line_buffer, []

    def line_buffer(box, comps):
        assert all(ref() is None for ref in made), "an earlier line buffer is still alive"
        lines = make(box, comps)
        made.append(weakref.ref(lines))
        return lines

    monkeypatch.setattr(torus, "_line_buffer", line_buffer)
    kms_sides(cfg, random_bandlimited(cfg.grid, 9, 16, seed=1))
    assert len(made) == 2
