"""Band boxes: pruned transforms, random fields that keep their spectrum, and kms_sides on the box.

The transforms over the lines of a box must equal numpy's full rfftn and
irfftn bit for bit, restricted to the box or zero-padded from it.  A
random_bandlimited field keeps the box spectrum it was synthesized from,
so kms_sides takes no forward transform of it; every field built from it
takes the full path again.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlimited_reference import full_grid_bandlimited
from kmslab import torus
from kmslab.operators import ArgumentError, catalog_operator, catalog_partmap
from kmslab.torus import BandBox, HalfSpectrum, TensorField, TorusGrid, bump_field, random_bandlimited
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

    got = torus._rfftn(box, values)
    assert got.shape == box.shape + (d,)
    assert np.array_equal(got, full[index])
    assert np.array_equal(torus._forward(box, values), (full * grid.spectrum_scale)[index])

    coef = full[index]
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


def test_box_reads_grid_arrays_and_the_full_box_reads_them_as_they_are():
    grid = TorusGrid(3, 16)
    full, box = BandBox(grid, 8), BandBox(grid, 3)
    assert full.is_full and full.shape == grid.half_shape
    assert full.frequencies is grid.half_frequency_grid
    assert full.parseval_weights is grid.parseval_weights
    index = box_index(16, 3, 3)
    assert np.array_equal(box.frequencies, grid.half_frequency_grid[index])
    assert not np.any(box.frequencies == -8)
    assert np.array_equal(box.frequency_norm2, grid.half_frequency_norm2[index])
    assert box.zero_mask.sum() == 1 and box.zero_mask[0, 0, 0]
    for cutoff in (0, 9):
        with pytest.raises(ArgumentError):
            BandBox(grid, cutoff)


@pytest.mark.parametrize("n,m,cutoff", [(1, 8, 3), (2, 12, 2), (2, 24, 6), (3, 8, 2), (3, 16, 4), (3, 48, 12)])
def test_random_bandlimited_matches_the_full_grid_generator(n, m, cutoff):
    grid = TorusGrid(n, m)
    box, index = BandBox(grid, cutoff), box_index(m, n, cutoff)
    for d, seed in ((1, 0), (3, 7), (9, np.random.SeedSequence((5, 101, 2)))):
        if n < 3 and d == 9:
            continue
        fld = random_bandlimited(grid, d, cutoff, seed=seed)
        hat, norm = full_grid_bandlimited(grid, d, cutoff, seed)
        coef = fld._spectrum.coefficients
        # the normaliser: a Parseval sum over the box and one over the whole
        # half grid add the same terms in another order
        box_norm = torus._parseval_norm(box, hat[index])
        assert abs(box_norm - norm) <= 1e-15 * norm
        # the spectrum: the masked full rfftn, bit for bit, over the box's sum
        assert np.array_equal(coef, hat[index] * (1.0 / box_norm))
        # the samples: the full irfftn of the kept spectrum, bit for bit
        padded = np.zeros_like(hat)
        padded[index] = coef
        want = np.fft.irfftn(padded, s=grid.shape, axes=tuple(range(n))) / grid.spectrum_scale
        assert np.array_equal(fld.values, want)


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
    """Record (kind, box is full) for every box transform."""
    calls = []
    for name in ("_rfftn", "_irfftn"):
        original = getattr(torus, name)

        def counting(box, array, name=name, original=original):
            calls.append((name, box.is_full))
            return original(box, array)

        monkeypatch.setattr(torus, name, counting)
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
        # the generator's forward transform; at p = 2, |B P|_2 is a Parseval
        # sum, and the L^6 norms of R = P - corr P and of A R = A P read the
        # samples of R, one inverse transform from the box: P's are never made
        ("korn_const", [("_rfftn", False), ("_irfftn", False)]),
        # the generator's forward transform only: every norm is a Parseval
        # sum, so the samples are never read
        ("korn_const2_p2", [("_rfftn", False)]),
    ],
)
def test_random_trial_transform_counts(monkeypatch, ident, want):
    cfg = make_config(ident, 16)
    calls = _counted(monkeypatch)
    kms_sides(cfg, random_bandlimited(cfg.grid, cfg.operator.d, 4, seed=1))
    assert calls == want


@pytest.mark.parametrize(
    "ident,want",
    [
        # the samples of R = P - corr P for both L^6 norms, from the full
        # half grid; those of P, the product of the bump's profiles, are
        # never made
        ("korn_const", [("_irfftn", True)]),
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
    # one forward transform per random trial, none for a bump
    assert calls == [("_rfftn", False)] * 4


# inverse transforms to generate a (random, bump) trial and run kms_sides on
# it, when every generated field made its samples as it was built: a random
# field took one inverse transform for them
INVERSES_WITH_EAGER_SAMPLES = {
    "korn_ell": (1, 0),
    "kms_sym": (1, 0),
    "asplit": (1, 0),
    "korn_ellip": (2, 1),
    "korn_const": (2, 1),
    "korn_const2_p2": (1, 0),
    "korn_const_p1": (3, 2),
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
        counts.append(sum(name == "_irfftn" for name, _ in calls))
    assert all(c <= e for c, e in zip(counts, INVERSES_WITH_EAGER_SAMPLES[ident])), counts


@pytest.mark.parametrize("zero_mean", [True, False])
@pytest.mark.parametrize("m", [8, 32, 48])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bump_spectrum_is_the_transform_of_its_values(n, m, zero_mean):
    grid = TorusGrid(n, m)
    full = BandBox(grid, m // 2)
    # on a grid point and off the grid
    for center in (np.full(n, math.pi), 0.37 + 1.9 * np.arange(n)):
        for width in (0.05, 0.4, 0.8):
            fld = bump_field(grid, center, width, np.array([0.6, -0.8]), zero_mean=zero_mean)
            kept = HalfSpectrum.of(fld)
            assert kept is fld._spectrum and kept.box.is_full
            want = torus._forward(full, fld.values)
            assert np.max(np.abs(kept.coefficients - want)) <= 1e-12 * np.max(np.abs(want))
            # the zero-mean check reads the zero mode
            assert fld.is_zero_mean == zero_mean
            assert not fld.values.flags.writeable and not kept.coefficients.flags.writeable


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
