"""Generated fields make their samples on the first read of values, never before.

random_bandlimited and bump_field hand on the spectrum they were
synthesized from.  Everything that reads only that spectrum (the fibre
dimension, the zero-mean check, HalfSpectrum.of, the p = 2 norms and
kms_sides, whose L^q norms reduce the spectrum slab by slab) leaves the
samples unmade; the first read makes them once, read-only: the inverse
transform of the box spectrum.
"""

import math

import numpy as np
import pytest

from kmslab import torus
from kmslab.operators import catalog_operator, catalog_partmap
from kmslab.torus import (
    HalfSpectrum,
    TorusGrid,
    bump_field,
    homog_sobolev_norm,
    lp_norm,
    negative_sobolev_norm_l2,
    random_bandlimited,
)
from kmslab.verify import InequalityConfig, kms_sides

GRID = TorusGrid(3, 16)
CENTER = np.array([1.3, math.pi, 4.0])
V = np.linspace(-1.0, 1.0, 9)


def made(fld):
    return "values" in vars(fld)


def generated():
    """(field, whether it has zero mean) for each generator."""
    return [
        (random_bandlimited(GRID, 9, 4, seed=2), True),
        (bump_field(GRID, CENTER, 0.4, V), True),
        (bump_field(GRID, CENTER, 0.8, V, zero_mean=False), False),
    ]


def p2_config(ident):
    curl = catalog_operator("curl_matrix_rowwise", 3)
    if ident == "korn_ell":
        return InequalityConfig(ident, catalog_operator("sym_gradient", 3), None, 2.0, GRID)
    return InequalityConfig(ident, curl, catalog_partmap("tr", 3), 2.0, GRID)


def test_spectrum_readers_make_no_samples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("inverse transform")

    monkeypatch.setattr(torus, "_slabs", refuse)
    for fld, zero_mean in generated():
        assert fld.fiber_dim == 9
        assert fld.is_zero_mean == zero_mean
        assert HalfSpectrum.of(fld) is fld._spectrum
        if zero_mean:
            homog_sobolev_norm(fld, 1, 2.0)
            negative_sobolev_norm_l2(fld, 1.0)
            kms_sides(p2_config("korn_const2_p2"), fld)
        assert not made(fld)


def test_korn_ell_at_p2_makes_no_samples():
    fld = random_bandlimited(GRID, 3, 4, seed=5)
    kms_sides(p2_config("korn_ell"), fld)
    assert not made(fld)


def test_a_real_space_norm_makes_no_samples_of_the_field():
    # korn_const at p = 2 takes L^6 norms.  With its correction they read a
    # slab reduction of R = P - corr P; without it R is P, whose spectrum is
    # reduced slab by slab too.  Either way P's samples are never made
    corrected = p2_config("korn_const")
    uncorrected = InequalityConfig(
        "korn_const", corrected.operator, corrected.part, 2.0, GRID, correction_enabled=False
    )
    for fld, _ in generated()[:2]:
        kms_sides(corrected, fld)
        kms_sides(uncorrected, fld)
        assert not made(fld)


@pytest.mark.parametrize("zero_mean", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_samples_are_the_inverse_of_the_kept_spectrum(n, zero_mean):
    grid = TorusGrid(n, 8 * n)
    fields = [random_bandlimited(grid, 2, 2 * n, seed=2)] if zero_mean else []
    for center in (np.full(n, math.pi), 0.37 + 1.9 * np.arange(n)):
        for width in (0.05, 0.4, 0.8):
            fields.append(bump_field(grid, center, width, np.array([0.6, -0.8]), zero_mean))
    for fld in fields:
        spectrum = fld._spectrum
        assert not made(fld)
        vals = fld.values
        assert not vals.flags.writeable
        assert np.array_equal(vals, torus._inverse(spectrum.box, spectrum.coefficients))


def test_random_samples_have_unit_norm():
    # normalized by the Parseval sum of the spectrum
    assert abs(lp_norm(random_bandlimited(GRID, 9, 4, seed=2), 2.0) - 1.0) <= 1e-15


def test_the_bump_keeps_its_own_copy_of_v():
    v = V.copy()
    fld = bump_field(GRID, CENTER, 0.4, v)
    v[:] = 0.0
    assert np.array_equal(fld.values, bump_field(GRID, CENTER, 0.4, V).values)


@pytest.mark.parametrize("read_first", [True, False])
def test_assigning_values_drops_the_kept_spectrum(read_first):
    for fld, _ in generated():
        if read_first:
            fld.values
        zeros = np.zeros(GRID.shape + (9,))
        fld.values = zeros
        # an ordinary field: nothing of the generator is left
        assert vars(fld).keys() == {"grid", "values"}
        assert fld._spectrum is None and fld.values is zeros
        assert HalfSpectrum.of(fld).box.is_full
        assert not np.any(HalfSpectrum.of(fld).coefficients)


def test_a_missing_attribute_is_still_an_attribute_error():
    fld = random_bandlimited(GRID, 9, 4, seed=2)
    with pytest.raises(AttributeError):
        fld.samples
    assert not made(fld)
