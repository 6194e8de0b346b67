"""The half-grid correction table against the per-bin oracle, its exact moves and its work.

grid_table evaluates a correction once per representative, sorted |xi| /
gcd(xi) where operators.orbit_tensor_power certifies the operator and part
map and xi / gcd(xi) otherwise, and keeps for every bin the representative
and the signed index permutation that moves its matrix there.  One build
unfolds every table: a certified one from its fundamental domain, any
other from every live bin under the identity.  These tests hold the
table's matrices and its chunked apply against tests/table_reference.py
(the per-bin oracle, and the certified build from the orbits of every
bin), check that the moves are exact, count the evaluations, and compare
field-trial ratios with those read off the oracle.
"""

import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kmslab.multipliers import (
    RAYS,
    MultiplierDescriptor,
    composed_correction_symbol,
    infer_constant_rank,
    kernel_projection_symbol,
    mihlin_korn_multiplier,
)
from kmslab import multipliers, operators
from kmslab.operators import (
    CATALOG_OPERATORS,
    CATALOG_PARTMAPS,
    MultiIndex,
    catalog_operator,
    catalog_partmap,
    signed_permutations,
)
from kmslab.torus import HalfSpectrum, TensorField, TorusGrid, bump_field, random_bandlimited
from kmslab.verify import FieldFamily, InequalityConfig, _sweep, estimate_constant
from fullgrid_reference import identity_multiplier
from table_reference import PerBinTable, mirror_check, orbit_reference_table, per_bin_table
from test_streamed_sides import live_arrays
from test_sweep_work import anisotropic_curl

OPERATORS = ("curl_matrix_rowwise", "div_matrix_rowwise", "sym_curl_matrix")
PARTS = ("sym", "dev", "tr", "skew", "zero")
PROJECTORS = ("restricted", "full")


def correction(op, part, projector="restricted"):
    spec = op if not isinstance(op, str) else catalog_operator(op, 3)
    return composed_correction_symbol(spec, catalog_partmap(part, 3), projector)


def assert_matches_oracle(desc, grid):
    got, want = desc.grid_table(grid).matrices(), per_bin_table(desc, grid)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("projector", PROJECTORS)
@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("op", OPERATORS)
def test_certified_correction_matches_the_per_bin_table(op, part, projector, m):
    desc = correction(op, part, projector)
    assert desc._symmetry == 2
    assert_matches_oracle(desc, TorusGrid(3, m))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("projector", PROJECTORS)
@pytest.mark.parametrize("part", ["dev", "tr", "skew"])
def test_uncertified_correction_matches_the_per_bin_table(part, projector, m):
    # the anisotropic curl fails the orbit check: bins share a matrix only
    # along rays, and xi and -xi are evaluated apart
    desc = correction(anisotropic_curl(), part, projector)
    assert desc._symmetry == RAYS
    assert_matches_oracle(desc, TorusGrid(3, m))


@settings(max_examples=60)
@given(
    case=st.sampled_from(list(itertools.product(OPERATORS, PARTS, PROJECTORS))),
    m=st.sampled_from([4, 6, 8, 12]),
    data=st.data(),
)
def test_table_follows_signed_permutations_bit_for_bit(case, m, data):
    # table[g xi] = rho(g) table[xi] rho(g)^T, rho(g) = g (x) g, for xi and
    # g xi in the half grid and off the Nyquist planes
    grid = TorusGrid(3, m)
    table = correction(*case).grid_table(grid)
    h = m // 2
    xi = np.array(
        [data.draw(st.integers(-h + 1, h - 1)) for _ in range(2)]
        + [data.draw(st.integers(0, h - 1))]
    )
    perm = np.array(data.draw(st.permutations(range(3))))
    signs = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3)))
    g = np.zeros((3, 3), dtype=int)
    g[perm, np.arange(3)] = signs
    gxi = g @ xi
    assume(gxi[-1] >= 0)

    def entry(freq):
        return table.matrices(tuple(int(c) % m for c in freq[:-1]) + (int(freq[-1]),))

    rho = np.kron(g, g).astype(float)
    assert np.array_equal(entry(gxi), rho @ entry(xi) @ rho.T)


def assert_apply_matches_oracle(desc, grid):
    # white noise has content on every bin but the Nyquist planes, which its
    # spectrum holds at 0; a band-limited field's spectrum lives on its box
    rng = np.random.default_rng(grid.points_per_axis)
    values = rng.standard_normal(grid.shape + desc.shape[1:])
    band = random_bandlimited(grid, desc.shape[1], grid.points_per_axis // 4, seed=1)
    oracle = PerBinTable(desc, grid)
    for spectrum in (HalfSpectrum.of(TensorField(grid, values)), HalfSpectrum.of(band)):
        got = spectrum.apply_multiplier(desc).coefficients
        want = oracle.apply(spectrum.box, spectrum.coefficients)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("projector", PROJECTORS)
@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("op", OPERATORS)
def test_compact_apply_matches_the_per_bin_table(op, part, projector, m):
    assert_apply_matches_oracle(correction(op, part, projector), TorusGrid(3, m))


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("part", ["dev", "tr", "skew"])
def test_compact_apply_matches_the_per_bin_table_off_the_orbit_check(part, m):
    desc = correction(anisotropic_curl(), part)
    assert desc._symmetry == RAYS
    assert_apply_matches_oracle(desc, TorusGrid(3, m))


@pytest.mark.parametrize("m", [8, 16])
def test_compact_apply_matches_the_per_bin_table_for_a_complex_multiplier(m):
    # no symmetry: one key per bin, every code the identity, a complex matmul
    desc = mihlin_korn_multiplier(
        catalog_operator("sym_gradient", 3), MultiIndex((1, 0, 0)), operator_input=True
    )
    grid = TorusGrid(3, m)
    assert desc._symmetry is None and np.iscomplexobj(desc.grid_table(grid).values)
    assert_apply_matches_oracle(desc, grid)


@pytest.mark.parametrize("m", [8, 16, 32])
def test_uncertified_table_applies_its_representatives_without_a_code(m):
    # a kernel projector has no certified symmetry: no fibre action and no
    # per-bin element code, and each bin reads its representative's matrix,
    # one real product with the (re, im) pairs of the coefficients
    curl = catalog_operator("curl_matrix_rowwise", 3)
    grid = TorusGrid(3, m)
    table = kernel_projection_symbol(curl, infer_constant_rank(curl)).grid_table(grid)
    assert table.action is None and table.code is None
    assert table.nbytes == table.keys.nbytes + table.values.nbytes + table.rep.nbytes
    v = np.linspace(-1.0, 1.0, 9)
    for fld in (random_bandlimited(grid, 9, m // 4, seed=1), bump_field(grid, np.full(3, 2.0), 0.4, v)):
        box, coef = HalfSpectrum.of(fld).box, HalfSpectrum.of(fld).coefficients
        mats = np.take(table.values, box.take(table.rep).reshape(-1), axis=0)
        pairs = np.ascontiguousarray(coef).reshape(-1, 9).view(float).reshape(-1, 9, 2)
        want = (mats @ pairs).view(complex)[..., 0].reshape(coef.shape)
        assert np.array_equal(table.apply(box, coef), want)


def counting(desc):
    """The frequency count of every batch call of desc, in call order."""
    evaluated = []
    batch = desc.batch

    def count(freqs):
        evaluated.append(int(np.prod(np.shape(freqs)[:-1])))
        return batch(freqs)

    desc.batch = count
    return evaluated


def test_korn_const_table_evaluates_one_frequency_per_orbit():
    desc = correction("curl_matrix_rowwise", "tr")
    evaluated = counting(desc)
    grid = TorusGrid(3, 32)
    desc.grid_table(grid)
    # the 31 * 31 * 16 - 1 = 15,375 nonzero bins off the Nyquist planes share
    # 625 sorted |xi| / gcd(xi): the primitive 0 <= a <= b <= c <= 15
    assert int(np.prod(grid.half_shape)) == 17408
    assert evaluated == [625]


def test_uncertified_table_evaluates_one_frequency_per_ray():
    desc = correction(anisotropic_curl(), "tr")
    evaluated = counting(desc)
    grid = TorusGrid(3, 16)
    desc.grid_table(grid)
    # the 15 * 15 * 8 - 1 = 1,799 nonzero bins off the Nyquist planes lie on
    # 1,513 rays from 0: the primitive vectors of [-7, 7]^2 x [0, 7]
    assert sum(evaluated) == 1513 < 1799
    assert max(evaluated) <= 1024


def per_bin_grid_table(desc, grid):
    return PerBinTable(desc, grid)


def close(got, want, rtol=1e-12):
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want))


@pytest.mark.parametrize("m", [8, 16, 32])
@pytest.mark.parametrize(
    "ident,p", [("korn_const", 2.0), ("korn_const_p1", 1.0), ("korn_const2_p2", 2.0)]
)
def test_field_ratios_match_the_per_bin_table(monkeypatch, ident, p, m):
    cfg = InequalityConfig(
        ident, catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3), p,
        TorusGrid(3, m),
    )
    family = FieldFamily(sweep=False, random_trials=2, witness=False)
    got = estimate_constant(cfg, family, seed=3, enforce=False)
    monkeypatch.setattr(MultiplierDescriptor, "grid_table", per_bin_grid_table)
    want = estimate_constant(cfg.with_grid(cfg.grid), family, seed=3, enforce=False)
    for key in ("max_ratio", "max_finite_ratio", "median_ratio"):
        assert close(getattr(got, key), getattr(want, key)), key
    assert got.family_maxima.keys() == want.family_maxima.keys()
    for name, value in want.family_maxima.items():
        assert close(got.family_maxima[name], value), name


def certified_catalog_corrections(n):
    """Every catalog correction at n that operators.orbit_tensor_power certifies, by name."""
    out = {}
    for op in CATALOG_OPERATORS:
        try:
            spec = catalog_operator(op, n)
        except ValueError:
            continue
        for part in CATALOG_PARTMAPS:
            if part in ("sym", "dev", "tr", "skew") and spec.d != n * n:
                continue
            pm = catalog_partmap(part, n, dim=None if part in ("sym", "dev", "tr", "skew") else spec.d)
            for projector in PROJECTORS:
                desc = composed_correction_symbol(spec, pm, projector)
                if isinstance(desc._symmetry, int):
                    out[f"{op}/{part}/{projector}"] = desc
    return out


def renumbered(reference):
    """The reference table's code, numbered among the elements its live bins use, and those elements."""
    live = reference.rep < reference.values.shape[0] - 1
    used = np.unique(reference.code[live])
    return np.searchsorted(used, reference.code), used


@pytest.mark.parametrize("m", [4, 6, 8, 16, 32])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_unfolded_table_matches_the_orbit_reference(n, m):
    # rep, code and values are those of the build from frequency_orbits
    # over every live bin, bit for bit; code after renumbering
    grid = TorusGrid(n, m)
    corrections = certified_catalog_corrections(n)
    assert len(corrections) == {2: 24, 3: 52, 4: 24}[n]
    for name, desc in corrections.items():
        got, want = desc.grid_table(grid), orbit_reference_table(desc, grid)
        code, used = renumbered(want)
        assert np.array_equal(got.keys, want.keys), name
        assert np.array_equal(got.rep, want.rep), name
        assert np.array_equal(got.code, code), name
        assert got.values.dtype == want.values.dtype and np.array_equal(got.values, want.values), name
        assert all(np.array_equal(a, b[used]) for a, b in zip(got.action, want.action)), name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unfolded_table_keeps_only_the_action_rows_its_bins_use(n):
    # a live bin's last entry is >= 0, so the elements that flip the sign of
    # the entry they move last, half of the 2^n n!, take no key there:
    # 24 rows at n = 3, not 48
    desc = composed_correction_symbol(
        catalog_operator("div_matrix_rowwise", n), catalog_partmap("tr", n)
    )
    table = desc.grid_table(TorusGrid(n, 16))
    rows = 2**n * math.factorial(n) // 2
    assert all(a.shape[0] == rows for a in table.action)
    assert np.array_equal(np.unique(table.code), np.arange(rows))


def test_certified_table_builds_without_the_whole_group(monkeypatch):
    # the unfolding and the stabilizers take their elements from each key's
    # zero/tie pattern: signed_permutations, 3,840 rows at n = 5, is never built
    def refuse(n, r):
        raise AssertionError("signed_permutations built")

    monkeypatch.setattr(operators, "signed_permutations", refuse)
    signed_permutations.cache_clear()
    desc = composed_correction_symbol(catalog_operator("div_matrix_rowwise", 5), catalog_partmap("tr", 5))
    assert desc._symmetry == 2
    grid = TorusGrid(5, 4)
    assert signed_permutations.cache_info().currsize == 0
    assert_apply_matches_oracle(desc, grid)
    assert signed_permutations.cache_info().currsize == 0


def imaginary_on(where, symmetry=2):
    """A d = 9 multiplier, (1 + i) Id at the frequencies where(|xi|) flags, Id elsewhere.

    Certified by default; where reads only which entries vanish, so the
    multiplier has degree 0 and may be keyed by rays (RAYS) or per bin (None).
    """

    def batch(freqs):
        out = np.zeros(freqs.shape[:-1] + (9, 9), complex)
        out[...] = np.eye(9)
        out[where(np.abs(freqs))] *= 1 + 1j
        return out

    return MultiplierDescriptor(shape=(9, 9), provenance="imaginary", batch=batch, _symmetry=symmetry)


def reference_for(desc, grid):
    """The table the realness check of the reference reads: the orbit build if certified, else per bin."""
    return orbit_reference_table(desc, grid) if isinstance(desc._symmetry, int) else PerBinTable(desc, grid)


@pytest.mark.parametrize("m", [4, 8])
def test_unfolded_table_is_refused_where_the_reference_is(m):
    # an imaginary part on the bin-0 plane (a zero entry) breaks m(-xi) = conj m(xi)
    # there; off the plane the check, which reads only the plane, does not see it.
    # The build reads the check off the keys in each key mode, the reference
    # bin by bin: both refuse with one message
    grid = TorusGrid(3, m)
    for symmetry in (2, RAYS, None):
        on_plane = imaginary_on(lambda a: np.any(a == 0, axis=-1), symmetry)
        with pytest.raises(ValueError, match="m\\(-xi\\) != conj m\\(xi\\)") as want:
            mirror_check(on_plane, grid, reference_for(on_plane, grid))
        with pytest.raises(ValueError, match="m\\(-xi\\) != conj m\\(xi\\)") as refused:
            on_plane.grid_table(grid)
        assert "deviation 2" in str(refused.value)
        assert str(refused.value) == str(want.value), symmetry
        off_plane = imaginary_on(lambda a: np.all(a != 0, axis=-1), symmetry)
        mirror_check(off_plane, grid, reference_for(off_plane, grid))
        assert np.iscomplexobj(off_plane.grid_table(grid).values), symmetry


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("symmetry", [RAYS, None])
def test_an_uncertified_key_is_checked_against_its_negative(symmetry, m):
    # (1 + i) Id where xi_0 > 0 and (1 - i) Id where xi_0 < 0 on the bin-0
    # plane is real to real; flipping one side of it is not, and the build
    # refuses it with the deviation of the per-bin reference
    def desc(sign):
        def batch(freqs):
            out = np.zeros(freqs.shape[:-1] + (9, 9), complex)
            out[...] = np.eye(9)
            on = freqs[..., -1] == 0
            out[on & (freqs[..., 0] > 0)] *= 1 + 1j
            out[on & (freqs[..., 0] < 0)] *= 1 + sign * 1j
            return out

        return MultiplierDescriptor(shape=(9, 9), provenance="odd", batch=batch, _symmetry=symmetry)

    grid = TorusGrid(3, m)
    real = desc(-1)
    mirror_check(real, grid, PerBinTable(real, grid))
    assert np.iscomplexobj(real.grid_table(grid).values)
    broken = desc(1)
    with pytest.raises(ValueError) as want:
        mirror_check(broken, grid, PerBinTable(broken, grid))
    with pytest.raises(ValueError) as refused:
        broken.grid_table(grid)
    assert str(refused.value) == str(want.value) and "deviation 2" in str(want.value)


def test_no_table_build_reads_frequency_orbits(monkeypatch):
    # a certified, a ray-keyed and a per-bin table are unfolded by one build;
    # operators.frequency_orbits stays the tests' reference
    calls = []
    orbits = operators.frequency_orbits

    def counted(*args, **kwargs):
        calls.append(args)
        return orbits(*args, **kwargs)

    monkeypatch.setattr(operators, "frequency_orbits", counted)
    monkeypatch.setattr(multipliers, "frequency_orbits", counted, raising=False)
    descs = [chain_descriptor(kind) for kind in ("certified", "rays", "per-bin")]
    assert [desc._symmetry for desc in descs] == [2, RAYS, None]
    for desc in descs:
        for m in (8, 16):
            table = desc.grid_table(TorusGrid(3, m))
            assert (table.code is None) == (desc._symmetry != 2)
    assert calls == []


def test_a_new_grid_drops_the_stale_table_before_its_build(monkeypatch):
    desc = correction("curl_matrix_rowwise", "tr")
    stale = weakref.ref(desc.grid_table(TorusGrid(3, 8)))
    build = MultiplierDescriptor._unfolded_table
    alive = []

    def observed(self, grid, known):
        alive.append(stale() is not None)
        return build(self, grid, known)

    monkeypatch.setattr(MultiplierDescriptor, "_unfolded_table", observed)
    table = desc.grid_table(TorusGrid(3, 16))
    assert alive == [False]
    assert desc.grid_table(TorusGrid(3, 16)) is table


def assert_same_table(got, want):
    for name in ("keys", "values", "rep", "code"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        assert a is None or (a.dtype == b.dtype and np.array_equal(a, b)), name
    assert (got.action is None) == (want.action is None)
    assert got.action is None or all(np.array_equal(a, b) for a, b in zip(got.action, want.action))


def chain_descriptor(kind):
    if kind == "per-bin":
        spec = catalog_operator("sym_gradient", 3)
        return mihlin_korn_multiplier(spec, MultiIndex((1, 0, 0)), operator_input=True)
    return correction(anisotropic_curl() if kind == "rays" else "curl_matrix_rowwise", "tr")


@pytest.mark.parametrize(
    "kind,sizes",
    [("certified", (8, 16, 32)), ("certified", (48, 32, 48)), ("rays", (8, 16)), ("per-bin", (8, 16, 8))],
)
def test_a_chain_of_grids_builds_the_tables_of_fresh_descriptors(kind, sizes):
    # each build takes the matrices of the keys it shares with the table
    # before it: keys, values, rep, code and action are a fresh build's, bit for bit
    desc = chain_descriptor(kind)
    for m in sizes:
        grid = TorusGrid(3, m)
        assert_same_table(desc.grid_table(grid), chain_descriptor(kind).grid_table(grid))


def test_a_table_on_another_dimension_takes_no_key():
    desc = identity_multiplier(2)
    desc.grid_table(TorusGrid(2, 8))
    grid = TorusGrid(3, 4)
    assert_same_table(desc.grid_table(grid), identity_multiplier(2).grid_table(grid))


def counting_keys(monkeypatch):
    """The key count of every _key_values call, in call order."""
    counted = []
    key_values = MultiplierDescriptor._key_values

    def count(self, keys):
        counted.append(keys.shape[0])
        return key_values(self, keys)

    monkeypatch.setattr(MultiplierDescriptor, "_key_values", count)
    return counted


@pytest.mark.parametrize(
    "sizes,new",
    [((8, 16, 32), [13, 75, 537]), ((48, 32, 48), [2083, 0, 1458]), ((32, 48, 32), [625, 1458, 0])],
)
def test_a_build_evaluates_only_the_keys_the_stale_table_lacks(sizes, new, monkeypatch):
    # korn_const (A = tr): the grid M holds the primitive 0 <= a <= b <= c <= M/2 - 1,
    # 13, 88, 625 and 2,083 keys at M = 8, 16, 32 and 48
    desc = correction("curl_matrix_rowwise", "tr")
    counted = counting_keys(monkeypatch)
    evaluated = counting(desc)
    for m, count in zip(sizes, new):
        before = len(counted)
        desc.grid_table(TorusGrid(3, m))
        assert sum(counted[before:]) == count, m
    assert sum(evaluated) == sum(new)


def test_a_ray_keyed_build_evaluates_only_the_new_rays():
    # the rays of the grid M = 8 are rays of the grid M = 16, whose 1,513 the
    # chain evaluates once each, as one fresh build does
    desc = correction(anisotropic_curl(), "tr")
    evaluated = counting(desc)
    desc.grid_table(TorusGrid(3, 8))
    first = sum(evaluated)
    desc.grid_table(TorusGrid(3, 16))
    assert 0 < first < sum(evaluated) == 1513


def korn_const_p1(m):
    return InequalityConfig(
        "korn_const_p1", catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3), 1.0,
        TorusGrid(3, m),
    )


@pytest.mark.parametrize("sizes", [(8,), (16,), (32,), (8, 16, 32), (48,)])
def test_a_table_fed_by_the_sweep_is_a_fresh_build(sizes):
    # the sweep evaluates the correction at every fundamental-domain point, and the
    # primitive ones are the certified table's keys: a build fed with the sweep's
    # matrices there evaluates no key, along a chain too, and keys, values, rep,
    # code and action are a fresh descriptor's, bit for bit (M = 48 sweeps in
    # three chunks)
    cfg = korn_const_p1(sizes[0])
    desc = cfg.correction_descriptor
    batch = desc.batch
    for m in sizes:
        config = cfg.with_grid(TorusGrid(3, m))
        keys, matrices = _sweep(config, keep_correction=True)[5]
        evaluated = counting(desc)
        table = desc.grid_table(config.grid, (keys, matrices))
        desc.batch = batch
        assert evaluated == []
        assert keys.shape[0] == table.keys.shape[0]
        assert_same_table(table, correction("curl_matrix_rowwise", "tr").grid_table(config.grid))


def test_a_sweep_keeps_its_correction_only_when_asked():
    # without field trials no table is built, so the sweep keeps no matrix for one;
    # the uncertified curl's table is keyed by rays, not by the sweep's representatives
    assert _sweep(korn_const_p1(16))[5] is None
    keys, matrices = _sweep(korn_const_p1(16), keep_correction=True)[5]
    assert keys.shape == (88, 3) and matrices.shape == (88, 9, 9)
    anisotropic = InequalityConfig(
        "korn_const", anisotropic_curl(), catalog_partmap("tr", 3), 2.0, TorusGrid(3, 8)
    )
    assert _sweep(anisotropic, keep_correction=True)[5] is None


def test_no_sweep_matrix_outlives_an_estimate():
    # the sweep's correction matrices go once the table is built from them: no
    # live array but this test's own copy holds them
    cfg = korn_const_p1(16)
    _, matrices = _sweep(cfg.with_grid(cfg.grid), keep_correction=True)[5]
    estimate_constant(cfg, FieldFamily(random_trials=1, bump_widths=()), seed=0)
    assert cfg.correction_descriptor.grid_table(cfg.grid).keys.shape == (88, 3)
    kept = [
        a.shape for a in live_arrays()
        if a is not matrices and a.shape == matrices.shape and np.array_equal(a, matrices)
    ]
    assert kept == []
