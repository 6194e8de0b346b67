"""Band boxes: pruned transforms, generated fields drawn on their box, and kms_sides on the box.

The inverse over the lines of a box must equal numpy's full irfftn of the
coefficients zero-padded from it, bit for bit, and hold no more memory
than on the full box; the forward transform is numpy's rfftn.
random_bandlimited draws its spectrum on its box and bump_field writes its
closed form there; each field keeps that spectrum, so neither it nor
kms_sides takes a forward transform; every field built from one takes the
full path again.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgrid_reference import half_frequency_grid, half_parseval_weights
from generator_reference import copying_irfftn, periodised_gaussian
from kmslab import torus
from kmslab.operators import ArgumentError, catalog_operator, catalog_partmap
from kmslab.torus import (
    BandBox,
    HalfSpectrum,
    TensorField,
    TorusGrid,
    bump_cutoff,
    bump_field,
    lp_norm,
    plane_wave_field,
    random_bandlimited,
)
from kmslab.verify import INEQUALITY_IDS, FieldFamily, InequalityConfig, estimate_constant, kms_sides


def box_index(m, n, cutoff):
    """Index of the box's bins in the half grid, built from |xi_j| <= cutoff alone."""
    full_axis = [i for i in range(m) if min(i, m - i) <= cutoff]
    return np.ix_(*[full_axis] * (n - 1), list(range(min(cutoff, m // 2) + 1)))


def check_transforms(n, m, cutoff, d=2, seed=0):
    grid = TorusGrid(n, m)
    box = BandBox(grid, cutoff)
    axes = tuple(range(n))
    values = np.random.default_rng(seed).standard_normal(grid.shape + (d,))
    index = box_index(m, n, cutoff)
    full = np.fft.rfftn(values, axes=axes)

    assert np.array_equal(torus._forward(grid, values), full * grid.spectrum_scale)

    coef = full[index]
    assert coef.shape == box.shape + (d,)
    padded = np.zeros_like(full)
    padded[index] = coef
    want = np.fft.irfftn(padded, s=grid.shape, axes=axes)
    assert np.array_equal(torus._irfftn(box, coef), want)
    assert np.array_equal(torus._inverse(box, coef), want / grid.spectrum_scale)


@st.composite
def boxes(draw):
    n = draw(st.integers(1, 3))
    m = 2 * draw(st.integers(2, 24))
    cutoff = draw(st.integers(1, m // 2))  # m // 2 is the full box
    return n, m, cutoff


@settings(max_examples=60)
@given(box=boxes(), seed=st.integers(0, 2**32 - 1))
def test_box_transforms_match_full_numpy_transforms(box, seed):
    check_transforms(*box, seed=seed)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 12, 24, 48])
def test_box_transforms_at_the_benchmark_grids(n, m):
    cutoffs = sorted({1, max(1, m // 4), m // 2 - 1, m // 2})
    for cutoff in cutoffs:
        check_transforms(n, m, cutoff, d=1 if n == 3 else 3)


@pytest.mark.parametrize("n,m", [(1, 12), (2, 12), (3, 12), (3, 48)])
def test_inverse_is_the_copying_inverse_bit_for_bit(n, m):
    # every box from the narrowest to the full one; the coefficients are read-only
    rng = np.random.default_rng(n * m)
    for cutoff in range(1, m // 2 + 1):
        box = BandBox(TorusGrid(n, m), cutoff)
        coef = rng.standard_normal(box.shape + (2, 2)).view(complex)[..., 0]
        coef.setflags(write=False)
        assert np.array_equal(torus._irfftn(box, coef), copying_irfftn(box, coef))


def inverse_peak(box, d):
    """Bytes that torus._inverse allocates at its peak, its input aside."""
    coef = np.random.default_rng(0).standard_normal(box.shape + (d, 2)).view(complex)[..., 0]
    tracemalloc.start()
    try:
        torus._inverse(box, coef)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pruned_inverse_holds_no_more_than_the_full_inverse():
    # the width-0.4 bump's box at M = 48 is nearly the full box
    grid = TorusGrid(3, 48)
    assert inverse_peak(BandBox(grid, 22), 9) <= inverse_peak(BandBox(grid, 24), 9)


BOX_GRIDS = [(n, m) for n in (1, 2, 3, 4) for m in (4, 6, 8, 12, 16)]


@pytest.mark.parametrize("n,m", BOX_GRIDS)
def test_box_arrays_are_the_half_grid_references_on_the_box(n, m):
    # each array is built from the box's axes; the reference cuts it from the full grid
    grid = TorusGrid(n, m)
    freqs = half_frequency_grid(grid)
    norm2 = np.sum(freqs.astype(float) ** 2, axis=-1)
    weights = half_parseval_weights(grid)
    for cutoff in range(1, m // 2 + 1):
        box, index = BandBox(grid, cutoff), box_index(m, n, cutoff)
        want = {
            "frequencies": freqs[index],
            "frequency_norm2": norm2[index],
            "zero_mask": ~np.any(freqs[index] != 0, axis=-1),
            "parseval_weights": weights[index],
        }
        for name, array in want.items():
            got = getattr(box, name)
            assert got.dtype == array.dtype and got.shape == array.shape, (name, cutoff)
            assert np.array_equal(got, array), (name, cutoff)
        assert box.frequencies.shape == box.shape + (n,) and box.is_full == (cutoff == m // 2)


def test_a_cutoff_outside_one_to_half_m_is_refused():
    grid = TorusGrid(3, 16)
    for cutoff in (0, 9):
        with pytest.raises(ArgumentError):
            BandBox(grid, cutoff)


RANDOM_BOXES = [(1, 8, 3), (2, 12, 2), (2, 24, 6), (3, 8, 2), (3, 16, 4), (3, 48, 12)]
RANDOM_DRAWS = [(1, 0), (3, 7), (9, np.random.SeedSequence((5, 101, 2)))]


def random_fields(n, m, cutoff):
    grid = TorusGrid(n, m)
    for d, seed in RANDOM_DRAWS:
        if n < 3 and d == 9:
            continue
        yield random_bandlimited(grid, d, cutoff, seed=seed)


def mirror(array, n):
    """array[-xi] on the box's n - 1 full axes, each cyclic in the bins 0 ... c, -c ... -1."""
    for axis in range(n - 1):
        array = np.roll(np.flip(array, axis=axis), 1, axis=axis)
    return array


@pytest.mark.parametrize("n,m,cutoff", RANDOM_BOXES)
def test_random_spectrum_is_hermitian_on_the_bin_0_plane_and_0_at_the_origin(n, m, cutoff):
    for fld in random_fields(n, m, cutoff):
        coef = fld._spectrum.coefficients
        assert coef.shape == BandBox(fld.grid, cutoff).shape + (fld.fiber_dim,)
        plane = coef[..., 0, :]
        assert np.array_equal(plane, mirror(plane, n).conj())
        assert not np.any(coef[(0,) * n])
        # every other bin holds a draw
        assert np.count_nonzero(np.all(coef != 0, axis=-1)) == coef[..., 0].size - 1


@pytest.mark.parametrize("n,m,cutoff", RANDOM_BOXES)
def test_random_spectrum_is_the_transform_of_its_samples(n, m, cutoff):
    for fld in random_fields(n, m, cutoff):
        coef = fld._spectrum.coefficients
        full = HalfSpectrum.of(TensorField(fld.grid, fld.values.copy())).coefficients
        box = fld._spectrum.box
        scale = np.max(np.abs(coef))
        assert np.max(np.abs(box.take(full) - coef)) <= 1e-14 * scale
        off_box = full.copy()
        off_box[box_index(m, n, cutoff)] = 0.0
        assert np.max(np.abs(off_box)) <= 1e-14 * scale


@pytest.mark.parametrize("n,m,cutoff", RANDOM_BOXES)
def test_random_field_has_unit_norm(n, m, cutoff):
    for fld in random_fields(n, m, cutoff):
        spectrum = fld._spectrum
        assert abs(torus._parseval_norm(spectrum.box, spectrum.coefficients) - 1.0) <= 1e-15
        assert abs(lp_norm(fld, 2.0) - 1.0) <= 1e-14


def test_random_field_is_deterministic_given_the_seed():
    grid = TorusGrid(3, 16)
    for seed in (4, np.random.SeedSequence((3, 101, 1))):
        a, b = (random_bandlimited(grid, 9, 4, seed=seed) for _ in range(2))
        assert np.array_equal(a._spectrum.coefficients, b._spectrum.coefficients)
        assert np.array_equal(a.values, b.values)
    other = random_bandlimited(grid, 9, 4, seed=5)
    # they share only the zero mode, 0 in both
    assert np.sum(other._spectrum.coefficients == a._spectrum.coefficients) == 9


def test_random_field_keeps_a_read_only_box_spectrum():
    grid = TorusGrid(3, 16)
    fld = random_bandlimited(grid, 3, 4, seed=2)
    spectrum = HalfSpectrum.of(fld)
    assert spectrum is fld._spectrum and spectrum.box.cutoff == 4
    assert spectrum.coefficients.shape == (9, 9, 5, 3)
    with pytest.raises(ValueError):
        fld.values[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        spectrum.coefficients[0, 0, 0, 0] = 1.0
    # the kept spectrum is the field's spectrum, to roundoff
    full = HalfSpectrum.of(TensorField(grid, fld.values)).coefficients
    assert np.max(np.abs(spectrum.box.take(full) - spectrum.coefficients)) <= 1e-15
    # new values drop it
    fld.values = np.zeros(grid.shape + (3,))
    assert fld._spectrum is None


def test_fields_built_from_a_random_field_take_the_full_path():
    grid = TorusGrid(3, 8)
    fld = random_bandlimited(grid, 2, 2, seed=3)
    other = random_bandlimited(grid, 2, 2, seed=4)
    built = [
        fld * 2.0, 2.0 * fld, fld + other, fld - other, fld.with_zero_mean(),
        TensorField(grid, fld.values.copy()), TensorField(grid, fld.values),
    ]
    for new in built:
        assert new._spectrum is None
        assert HalfSpectrum.of(new).box.is_full


def _counted(monkeypatch):
    """Record (kind, box is full) for every transform; a forward transform is on the full box.

    Every inverse transform goes through torus._slabs: the samples of a field
    made at once (_irfftn) and each slab reduction of an L^q norm.
    """
    calls = []
    forward, inverse = torus._forward, torus._slabs

    def counting_forward(grid, values):
        calls.append(("_forward", True))
        return forward(grid, values)

    def counting_inverse(box, coef, *args, **kwargs):
        calls.append(("_slabs", box.is_full))
        return inverse(box, coef, *args, **kwargs)

    monkeypatch.setattr(torus, "_forward", counting_forward)
    monkeypatch.setattr(torus, "_slabs", counting_inverse)
    return calls


@functools.lru_cache(maxsize=None)
def make_config(ident, m):
    grid = TorusGrid(3, m)
    if ident == "korn_ell":
        return InequalityConfig(ident, catalog_operator("sym_gradient", 3), None, 2.0, grid)
    p = {"korn_const_p1": 1.0, "korn_ellip": 1.5}.get(ident, 2.0)
    part = catalog_partmap("tr" if ident.startswith("korn_const") else "sym", 3)
    return InequalityConfig(ident, catalog_operator("curl_matrix_rowwise", 3), part, p, grid)


@pytest.mark.parametrize("m", [8, 16, 32])
@pytest.mark.parametrize("ident", INEQUALITY_IDS)
def test_band_path_agrees_with_the_full_path(ident, m):
    cfg = make_config(ident, m)
    for seed in range(2):
        fld = random_bandlimited(cfg.grid, cfg.operator.d, m // 4, seed=seed)
        band = kms_sides(cfg, fld)
        full = kms_sides(cfg, TensorField(cfg.grid, fld.values))
        for b, f in zip(band, full):
            assert abs(b - f) <= 1e-12 * abs(f), (band, full)


@pytest.mark.parametrize(
    "ident,want",
    [
        # at p = 2, |B P|_2 is a Parseval sum, and the L^6 norms of
        # R = P - corr P and of A R = A P read one slab reduction of R, one
        # inverse transform from the box: P's samples are never made
        ("korn_const", [("_slabs", False)]),
        # every norm is a Parseval sum, so the samples are never read
        ("korn_const2_p2", []),
    ],
)
def test_random_trial_transform_counts(monkeypatch, ident, want):
    cfg = make_config(ident, 16)
    calls = _counted(monkeypatch)
    fld = random_bandlimited(cfg.grid, cfg.operator.d, 4, seed=1)
    kms_sides(cfg, fld)
    assert calls == want


@pytest.mark.parametrize(
    "ident,want",
    [
        # one slab reduction of R = P - corr P for both L^6 norms, from the
        # bump's box (cutoff M/2 - 1 = 7 at width 0.4); P's samples are never made
        ("korn_const", [("_slabs", False)]),
        ("korn_const2_p2", []),
    ],
)
def test_bump_trial_takes_no_forward_transform(monkeypatch, ident, want):
    cfg = make_config(ident, 16)
    d = cfg.operator.d
    fld = bump_field(cfg.grid, np.full(3, math.pi), 0.4, np.ones(d) / math.sqrt(d))
    calls = _counted(monkeypatch)
    kms_sides(cfg, fld)
    assert calls == want


def test_benchmark_field_family_on_korn_const2_p2_takes_no_inverse_transform(monkeypatch):
    cfg = make_config("korn_const2_p2", 16)
    family = FieldFamily(sweep=False, witness=False, random_trials=4, bump_widths=(0.4, 0.8))
    calls = _counted(monkeypatch)
    estimate = estimate_constant(cfg, family, seed=1)
    assert estimate.n_trials == 6
    # no trial takes a transform of either kind
    assert calls == []


# inverse transforms to generate a (random, bump) trial and run kms_sides on
# it, when every generated field made its samples as it was built: each
# field took one inverse transform of its box spectrum for them
INVERSES_WITH_EAGER_SAMPLES = {
    "korn_ell": (1, 1),
    "kms_sym": (1, 1),
    "asplit": (1, 1),
    "korn_ellip": (2, 2),
    "korn_const": (2, 2),
    "korn_const2_p2": (1, 1),
    "korn_const_p1": (3, 3),
}


@pytest.mark.parametrize("ident", INEQUALITY_IDS)
def test_no_trial_takes_more_inverse_transforms_than_with_eager_samples(monkeypatch, ident):
    cfg = make_config(ident, 16)
    d = cfg.operator.d
    calls = _counted(monkeypatch)
    counts = []
    for make in (
        lambda: random_bandlimited(cfg.grid, d, 4, seed=1),
        lambda: bump_field(cfg.grid, np.full(3, math.pi), 0.4, np.ones(d) / math.sqrt(d)),
    ):
        calls.clear()
        kms_sides(cfg, make())
        counts.append(sum(name == "_slabs" for name, _ in calls))
    assert all(c <= e for c, e in zip(counts, INVERSES_WITH_EAGER_SAMPLES[ident])), counts


def test_bump_cutoff_keeps_every_coefficient_above_roundoff_of_the_peak():
    fine, coarse = TorusGrid(3, 48), TorusGrid(3, 16)
    assert bump_cutoff(fine, 0.4) == 22 and bump_cutoff(fine, 0.8) == 11
    # capped at M/2 - 1, so the box never holds a Nyquist bin
    assert bump_cutoff(coarse, 0.4) == 7 and bump_cutoff(coarse, 0.8) == 7
    assert bump_cutoff(fine, 0.05) == 23 and bump_cutoff(fine, 100.0) == 1
    # the smallest cutoff whose own coefficient is at most 2^-53 of the peak
    for width in (0.4, 0.8):
        c = bump_cutoff(fine, width)
        peak_share = [math.exp(-0.5 * (width * k) ** 2) for k in (c - 1, c)]
        assert peak_share[0] > 2.0**-53 >= peak_share[1]


@pytest.mark.parametrize("zero_mean", [True, False])
@pytest.mark.parametrize("m", [8, 32, 48])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bump_spectrum_is_the_closed_form(n, m, zero_mean):
    grid = TorusGrid(n, m)
    v = np.array([0.6, -0.8])
    # on a grid point and off the grid
    for center in (np.full(n, math.pi), 0.37 + 1.9 * np.arange(n)):
        for width in (0.05, 0.4, 0.8):
            fld = bump_field(grid, center, width, v, zero_mean=zero_mean)
            kept = HalfSpectrum.of(fld)
            assert kept is fld._spectrum and kept.box.cutoff == bump_cutoff(grid, width)
            xi = kept.box.frequencies.astype(float)
            gauss = width**n * np.exp(-0.5 * width**2 * np.sum(xi**2, axis=-1))
            want = (gauss * np.exp(-1j * (xi @ center)))[..., None] * v
            if zero_mean:
                want[(0,) * n] = 0.0
            # the phase e^{-i xi . c} to roundoff in xi . c, up to 23 * 3 * 6
            assert np.all(np.abs(kept.coefficients - want) <= 1e-13 * np.abs(want))
            # the zero-mean check reads the zero mode
            assert fld.is_zero_mean == zero_mean
            assert not fld.values.flags.writeable and not kept.coefficients.flags.writeable


@pytest.mark.parametrize("m,widths", [(32, (0.8,)), (48, (0.4, 0.8))])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bump_samples_are_the_periodised_gaussian(n, m, widths):
    # below the cap, the box drops only coefficients under 2^-53 of the peak
    grid = TorusGrid(n, m)
    v = np.array([0.6, -0.8])
    for center in (np.full(n, math.pi), 0.37 + 1.9 * np.arange(n)):
        for width in widths:
            assert bump_cutoff(grid, width) < m // 2 - 1 or (m, width) == (48, 0.4)
            want = periodised_gaussian(grid, center, width)[..., None] * v
            kept = bump_field(grid, center, width, v, zero_mean=False).values
            assert np.max(np.abs(kept - want)) <= 1e-13
            # the zero-mean bump is the same Gaussian less its mean, (w / sqrt(2 pi))^n v
            mean = (width / math.sqrt(2.0 * math.pi)) ** n * v
            assert np.max(np.abs(kept.mean(axis=tuple(range(n))) - mean)) <= 1e-13
            centred = bump_field(grid, center, width, v).values
            assert np.max(np.abs(centred - (want - mean))) <= 1e-13


@pytest.mark.parametrize("m,width,cutoff", [(16, 0.4, 7), (32, 0.8, 11)])
def test_bump_row_records_its_box_and_the_tail_it_drops(m, width, cutoff):
    cfg = make_config("korn_const", m)
    family = FieldFamily(sweep=False, witness=False, random_trials=0, bump_widths=(width,))
    estimate = estimate_constant(cfg, family, seed=1)
    assert estimate.argmax == {
        "generator": "bump", "width": width, "seed_root": 1, "index": 0,
        "cutoff": cutoff, "dropped_tail": math.exp(-0.5 * (width * (cutoff + 1)) ** 2),
    }


def test_every_transform_goes_through_the_names_the_tracer_wraps(monkeypatch):
    # perfbench's tracer counts np.fft.{rfftn,fftn,ifftn,irfftn}; a 1-D
    # np.fft call would escape it
    def refuse(*args, **kwargs):
        raise AssertionError("1-D numpy.fft call")

    for name in ("rfft", "fft", "ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    axes = []
    for name in ("rfftn", "fftn", "ifftn", "irfftn"):
        original = getattr(np.fft, name)

        def recording(a, *args, original=original, **kwargs):
            axes.append(kwargs["axes"])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    for ident in INEQUALITY_IDS:
        cfg = make_config(ident, 8)
        grid, d = cfg.grid, cfg.operator.d
        kms_sides(cfg, random_bandlimited(grid, d, 2, seed=0))
        kms_sides(cfg, bump_field(grid, np.full(3, math.pi), 0.5, np.ones(d) / math.sqrt(d)))
    assert axes and all(len(a) == 1 for a in axes)


GRID8 = TorusGrid(3, 8)
XI = np.array([1, 0, 0])


@pytest.mark.parametrize(
    "argument,make",
    [
        ("center", lambda: bump_field(GRID8, [math.nan, 0.0, 0.0], 0.4, np.ones(9))),
        ("center", lambda: bump_field(GRID8, [math.inf, 0.0, 0.0], 0.4, np.ones(9))),
        ("v", lambda: bump_field(GRID8, np.zeros(3), 0.4, np.array([1.0, math.inf]))),
        ("v", lambda: bump_field(GRID8, np.zeros(3), 0.4, np.array([math.nan]))),
        ("v", lambda: bump_field(GRID8, np.zeros(3), 0.4, np.ones((3, 3)))),
        ("v", lambda: bump_field(GRID8, np.zeros(3), 0.4, 1.0)),
        ("v", lambda: plane_wave_field(GRID8, XI, np.ones((3, 3)))),
        ("v", lambda: plane_wave_field(GRID8, XI, np.array([1.0, math.nan]))),
    ],
    ids=["center-nan", "center-inf", "v-inf", "v-nan", "v-2d", "v-0d", "wave-v-2d", "wave-v-nan"],
)
def test_generators_refuse_a_non_finite_or_misshapen_argument(argument, make):
    with pytest.raises(ArgumentError) as err:
        make()
    assert err.value.argument == argument


@pytest.mark.parametrize("values", [(1 + 2j) * np.ones((4, 4, 1)), np.ones((4, 4, 1), dtype=complex)])
def test_complex_values_are_refused(values):
    with pytest.raises(ValueError, match="real"):
        TensorField(TorusGrid(2, 4), values)


@pytest.mark.parametrize("d", [0, -1, 2.5, True, False, None, "3"])
def test_fibre_dimension_is_checked(d):
    with pytest.raises(ArgumentError) as err:
        random_bandlimited(TorusGrid(2, 8), d, 2, seed=0)
    assert err.value.argument == "d"


@pytest.mark.parametrize("cutoff", [0, 4, 2.5, 2.0, True, None])
def test_cutoff_is_an_integer_in_range(cutoff):
    with pytest.raises(ArgumentError) as err:
        random_bandlimited(TorusGrid(2, 8), 2, cutoff, seed=0)
    assert err.value.argument == "cutoff"


def test_fibre_dimension_accepts_numpy_integers():
    fld = random_bandlimited(TorusGrid(2, 8), np.int64(2), 2, seed=0)
    assert fld.fiber_dim == 2
