"""Trial ratios are invariant under scaling and translating the field.

Every side of an inequality is 1-homogeneous in the field, and so is the
reference each side is compared with before it counts as vanishing (|P|_2
in kms_sides, a |v| for a plane wave), so a ratio may not depend on the
field's scale: an inf or a 0.0 stays exactly that, and a finite ratio stays
the same to roundoff.  Bit identity is not asked for: for non-integer q,
x**(q/2) rounds differently once x is scaled.
"""

import math

import numpy as np
import pytest

from kmslab.operators import catalog_operator, catalog_partmap
from kmslab.torus import TensorField, TorusGrid, bump_field, plane_wave_field, random_bandlimited
from kmslab.verify import (
    INEQUALITY_IDS,
    InequalityConfig,
    kms_sides,
    search_kernel_witness,
    single_frequency_trial,
    trial_ratio,
)

SCALES = [10.0**e for e in range(-20, 21, 4)]
GRID = TorusGrid(3, 8)
FORCED_P = {"korn_const_p1": 1.0, "korn_const2_p2": 2.0}
# a frequency with no Nyquist component and every entry distinct
GENERIC_XI = np.array([1, 2, 3])


def config(ident):
    if ident == "korn_ell":
        return InequalityConfig(ident, catalog_operator("sym_gradient", 3), None, 1.5, GRID)
    part = "sym" if ident == "kms_sym" else "tr"
    return InequalityConfig(
        ident, catalog_operator("curl_matrix_rowwise", 3), catalog_partmap(part, 3),
        FORCED_P.get(ident, 1.5), GRID,
    )


def same_ratio(got, want):
    if math.isinf(want) or want == 0.0:
        return got == want
    return abs(got - want) <= 1e-12 * want


def plane_waves(cfg):
    """(label, xi, v): a generic plane wave, and the kernel witness where one exists."""
    v = np.random.default_rng(5).standard_normal(cfg.operator.d)
    waves = [("generic", GENERIC_XI, v / np.linalg.norm(v))]
    if cfg.part is not None:
        found = search_kernel_witness(cfg.part, cfg.operator, GRID)
        if found is not None:
            waves.append(("witness", *found))
    return waves


@pytest.mark.parametrize("ident", INEQUALITY_IDS)
def test_ratios_are_scale_free(ident):
    cfg = config(ident)
    d = cfg.operator.d
    random = random_bandlimited(GRID, d, 2, seed=3)
    v_bump = np.random.default_rng(4).standard_normal(d)
    fields = {
        # an ordinary field, transformed once, and a bump that keeps its spectrum
        "random": lambda c: random * c,
        "bump": lambda c: bump_field(GRID, np.full(3, math.pi), 0.6, c * v_bump),
    }
    waves = plane_waves(cfg)
    for label, xi, v in waves:
        fields[label] = lambda c, xi=xi, v=v: plane_wave_field(GRID, xi, c * v)
    want = {label: trial_ratio(*kms_sides(cfg, make(1.0))) for label, make in fields.items()}
    exact = {label: single_frequency_trial(cfg, xi, v).ratio for label, xi, v in waves}
    # with A = tr the curl has a kernel witness: it reads inf without a
    # correction and 0 with one
    assert ("witness" in exact) == (ident not in ("korn_ell", "kms_sym"))
    if "witness" in exact:
        assert exact["witness"] == want["witness"] == (0.0 if cfg.correction_enabled else math.inf)
    for c in SCALES:
        for label, make in fields.items():
            got = trial_ratio(*kms_sides(cfg, make(c)))
            assert same_ratio(got, want[label]), (label, c, got, want[label])
        for label, xi, v in waves:
            got = single_frequency_trial(cfg, xi, c * v).ratio
            assert same_ratio(got, exact[label]), (label, c, got, exact[label])


@pytest.mark.parametrize("ident", ["asplit", "korn_const", "korn_const_p1"])
def test_witness_verdict_is_translation_invariant(ident):
    cfg = config(ident)
    xi, v = search_kernel_witness(cfg.part, cfg.operator, GRID)
    wave = plane_wave_field(GRID, xi, v)
    want = trial_ratio(*kms_sides(cfg, wave))
    assert want == (0.0 if cfg.correction_enabled else math.inf)
    for shift in [(1, 0, 0), (0, 3, 5), (7, 2, 1)]:
        moved = TensorField(GRID, np.roll(wave.values, shift, axis=(0, 1, 2)))
        assert trial_ratio(*kms_sides(cfg, moved)) == want
