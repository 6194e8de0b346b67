import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from kmslab.operators import (
    MultiIndex,
    OperatorSpec,
    PartMap,
    Report,
    catalog_operator,
    catalog_partmap,
    eval_symbol,
    frequency_orbits,
    multiindex_enumerate,
    pattern_elements,
    restrict_symbol,
    signed_permutations,
    symbol_on_frequencies,
)


def brute_multiindices(n, k):
    """Enumeration oracle: filter the full exponent box, sort descending-lex."""
    out = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
    return sorted(out, reverse=True)


class TestMultiIndex:
    def test_single_variable(self):
        assert [m.exponents for m in multiindex_enumerate(1, 3)] == [(3,)]

    def test_first_order_basis(self):
        assert [m.exponents for m in multiindex_enumerate(2, 1)] == [(1, 0), (0, 1)]

    @pytest.mark.parametrize("n,k", [(3, 2), (2, 4), (4, 3), (1, 0), (5, 2)])
    def test_matches_brute_force(self, n, k):
        got = [m.exponents for m in multiindex_enumerate(n, k)]
        assert got == brute_multiindices(n, k)
        assert len(got) == math.comb(n + k - 1, k)
        assert len(set(got)) == len(got)

    def test_order_and_dimension(self):
        m = MultiIndex((2, 0, 1))
        assert m.order == 3
        assert m.dimension == 3
        assert m.multiplicity() == math.factorial(3) // 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_power(self):
        m = MultiIndex((2, 1))
        xi = np.array([3.0, 5.0])
        assert m.power(xi) == pytest.approx(45.0)


class TestEvalSymbol:
    def test_gradient_picks_component(self):
        grad = catalog_operator("gradient", 3)
        sym = eval_symbol(grad, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(sym, np.array([[1.0], [0.0], [0.0]]))

    def test_zero_frequency_first_order(self):
        for name in ("gradient", "curl_vector", "sym_gradient"):
            spec = catalog_operator(name, 3)
            assert np.all(eval_symbol(spec, np.zeros(3)) == 0)

    def test_curl_matches_cross_product(self):
        curl = catalog_operator("curl_vector", 3)
        rng = np.random.default_rng(42)
        for _ in range(20):
            xi = rng.standard_normal(3)
            v = rng.standard_normal(3)
            assert np.allclose(eval_symbol(curl, xi) @ v, np.cross(xi, v), atol=1e-13)

    def test_dimension_mismatch(self):
        grad = catalog_operator("gradient", 3)
        with pytest.raises(ValueError):
            eval_symbol(grad, np.array([1.0, 2.0]))

    def test_real_frequency_gives_real_entries(self):
        eps = catalog_operator("sym_gradient", 3)
        sym = eval_symbol(eps, np.array([1.0, 2.0, -1.0]))
        assert not np.iscomplexobj(sym)

    def test_complex_frequency_supported(self):
        grad = catalog_operator("gradient", 2)
        sym = eval_symbol(grad, np.array([1.0 + 1j, 2.0]))
        assert np.iscomplexobj(sym)
        assert sym[0, 0] == pytest.approx(1.0 + 1j)


def test_homogeneity_random():
    rng = np.random.default_rng(7)
    specs = [catalog_operator(n, 3) for n in ("gradient", "sym_gradient", "curl_matrix_rowwise")]
    for i in range(100):
        spec = specs[i % len(specs)]
        xi = rng.standard_normal(3)
        c = float(rng.uniform(0.2, 3.0)) * (1 if i % 2 else -1)
        base = eval_symbol(spec, xi)
        scaled = eval_symbol(spec, c * xi)
        assert np.linalg.norm(scaled - c**spec.k * base) <= 1e-12 * np.linalg.norm(base) * abs(c) ** spec.k


class TestOperatorSpec:
    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            OperatorSpec("bad", n=2, d=1, l=1, k=2, coeffs={MultiIndex((1, 0)): np.ones((1, 1))})

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            OperatorSpec("bad", n=2, d=2, l=1, k=1, coeffs={MultiIndex((1, 0)): np.ones((2, 2))})

    def test_coefficient_default_zero(self):
        grad = catalog_operator("gradient", 2)
        probe = MultiIndex((0, 1))
        assert grad.coefficient(probe).shape == (2, 1)

    def test_batch_matches_single(self):
        spec = catalog_operator("sym_curl_matrix", 3)
        rng = np.random.default_rng(3)
        freqs = rng.standard_normal((17, 3))
        batch = symbol_on_frequencies(spec, freqs)
        for i, xi in enumerate(freqs):
            assert np.allclose(batch[i], eval_symbol(spec, xi), atol=1e-14)


class TestPartMap:
    @pytest.mark.parametrize("seed", range(6))
    def test_projector_algebra_random(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(1, 7)
        d = rng.integers(1, 9)
        mat = rng.standard_normal((rows, d))
        if seed % 3 == 0 and rows > 1:
            mat[-1] = mat[0]  # force rank deficiency sometimes
        part = PartMap.from_matrix(mat, name="random")
        assert np.allclose(part.proj_ker @ part.proj_ker, part.proj_ker, atol=1e-12)
        assert np.allclose(part.proj_ker + part.proj_perp, np.eye(d), atol=1e-13)
        assert np.allclose(part.proj_ker, part.proj_ker.T, atol=1e-13)
        norm = np.linalg.norm(mat)
        assert np.linalg.norm(mat @ part.proj_ker) <= 1e-12 * max(norm, 1.0)
        assert part.kernel_dim + part.rank == d

    def test_sym_kills_skew(self):
        sym = catalog_partmap("sym", 3)
        skew = np.array([[0, 1, -2], [-1, 0, 3], [2, -3, 0]], dtype=float)
        assert np.allclose(sym.apply(skew.reshape(9)), 0.0, atol=1e-14)

    def test_dev_kernel_projection_is_trace_part(self):
        dev = catalog_partmap("dev", 3)
        rng = np.random.default_rng(1)
        P = rng.standard_normal((3, 3))
        projected = (dev.proj_ker @ P.reshape(9)).reshape(3, 3)
        assert np.allclose(projected, np.trace(P) / 3.0 * np.eye(3), atol=1e-13)

    def test_tr_kernel_is_tracefree(self):
        tr = catalog_partmap("tr", 3)
        assert tr.kernel_dim == 8
        rng = np.random.default_rng(2)
        P = rng.standard_normal(9)
        assert abs(np.trace((tr.proj_ker @ P).reshape(3, 3))) <= 1e-13

    def test_identity_and_zero(self):
        ident = catalog_partmap("identity", 3, dim=5)
        assert ident.kernel_dim == 0
        zero = catalog_partmap("zero", 3, dim=5)
        assert zero.kernel_dim == 5

    def test_pointwise_injectivity_constant(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mat = rng.standard_normal((4, 6))
            part = PartMap.from_matrix(mat)
            v = rng.standard_normal(6)
            lhs = np.linalg.norm(part.proj_perp @ v)
            rhs = part.injectivity_constant * np.linalg.norm(mat @ v)
            assert lhs <= rhs + 1e-12

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog_partmap("nope", 3)


class TestCatalog:
    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            catalog_operator("nope", 3)

    def test_curl_requires_three_dimensions(self):
        with pytest.raises(ValueError):
            catalog_operator("curl_vector", 2)

    def test_aliases(self):
        assert catalog_operator("curl3", 3).name == "curl_matrix_rowwise"
        assert catalog_operator("eps", 3).name == "sym_gradient"

    def test_rowwise_curl_annihilates_aligned_rank_one(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            xi = rng.standard_normal(3)
            a = rng.standard_normal(3)
            P = np.outer(a, xi).reshape(9)
            assert np.linalg.norm(eval_symbol(curl, xi) @ P) <= 1e-12

    def test_rowwise_curl_matches_row_cross_oracle(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        rng = np.random.default_rng(6)
        xi = rng.standard_normal(3)
        P = rng.standard_normal((3, 3))
        got = (eval_symbol(curl, xi) @ P.reshape(9)).reshape(3, 3)
        want = np.stack([np.cross(xi, P[i]) for i in range(3)])
        assert np.allclose(got, want, atol=1e-13)

    def test_sym_curl_is_symmetrized_curl(self):
        symcurl = catalog_operator("sym_curl_matrix", 3)
        curl = catalog_operator("curl_matrix_rowwise", 3)
        rng = np.random.default_rng(8)
        xi = rng.standard_normal(3)
        P = rng.standard_normal(9)
        raw = (eval_symbol(curl, xi) @ P).reshape(3, 3)
        got = (eval_symbol(symcurl, xi) @ P).reshape(3, 3)
        assert np.allclose(got, (raw + raw.T) / 2.0, atol=1e-13)

    def test_divergence_rowwise(self):
        div = catalog_operator("div_matrix_rowwise", 3)
        rng = np.random.default_rng(10)
        xi = rng.standard_normal(3)
        P = rng.standard_normal((3, 3))
        got = eval_symbol(div, xi) @ P.reshape(9)
        assert np.allclose(got, P @ xi, atol=1e-13)


class TestRestrictSymbol:
    def test_consistency_with_kernel_basis(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        part = catalog_partmap("sym", 3)
        restricted = restrict_symbol(curl, part)
        rng = np.random.default_rng(11)
        for _ in range(5):
            xi = rng.standard_normal(3)
            eta = rng.standard_normal(restricted.d)
            lhs = eval_symbol(restricted, xi) @ eta
            rhs = eval_symbol(curl, xi) @ (part.kernel_basis @ eta)
            assert np.allclose(lhs, rhs, atol=1e-13)

    def test_identity_part_gives_vacuous(self):
        curl = catalog_operator("curl_matrix_rowwise", 3)
        ident = catalog_partmap("identity", 3)
        restricted = restrict_symbol(curl, ident)
        assert restricted.is_vacuous
        assert restricted.d == 0

    def test_zero_part_preserves_singular_values(self):
        eps = catalog_operator("sym_gradient", 3)
        zero = catalog_partmap("zero", 3, dim=3)
        restricted = restrict_symbol(eps, zero)
        assert restricted.d == 3
        rng = np.random.default_rng(12)
        xi = rng.standard_normal(3)
        s_orig = np.linalg.svd(eval_symbol(eps, xi), compute_uv=False)
        s_new = np.linalg.svd(eval_symbol(restricted, xi), compute_uv=False)
        assert np.allclose(np.sort(s_orig), np.sort(s_new), atol=1e-12)

    def test_sym_curl_on_dev_kernel_is_zero(self):
        symcurl = catalog_operator("sym_curl_matrix", 3)
        dev = catalog_partmap("dev", 3)
        restricted = restrict_symbol(symcurl, dev)
        assert restricted.d == 1
        assert restricted.is_zero
        rng = np.random.default_rng(13)
        for _ in range(5):
            xi = rng.standard_normal(3)
            assert np.linalg.norm(eval_symbol(restricted, xi)) <= 1e-14

    def test_dimension_mismatch(self):
        grad = catalog_operator("gradient", 3)
        with pytest.raises(ValueError):
            restrict_symbol(grad, catalog_partmap("sym", 3))


def group_element(table, e):
    """The n x n matrix of row e of a signed_permutations table."""
    n = table.perm.shape[1]
    g = np.zeros((n, n), dtype=int)
    g[table.perm[e], np.arange(n)] = table.signs[e]
    return g


class TestSignedPermutations:
    """One element index, read the same way by frequency_orbits and the table."""

    @pytest.mark.parametrize("rays", [False, True])
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_frequency_is_a_positive_multiple_of_its_moved_key(self, n, signed, rays):
        freqs = np.random.default_rng(n).integers(-6, 7, size=(300, n))
        freqs = freqs[np.any(freqs != 0, axis=1)]
        keys, rep, elem = frequency_orbits(freqs, signed=signed, rays=rays)
        if not signed:
            assert not np.any(elem)
        table = signed_permutations(n, 0)
        for xi, key, e in zip(freqs, keys[rep], elem):
            moved = group_element(table, e) @ key
            # xi = c moved with c > 0, in integers
            assert xi @ moved > 0
            assert np.array_equal(xi * (moved @ moved), (xi @ moved) * moved)
            if not rays:
                assert np.array_equal(xi, moved)

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_act_on_the_fibre_as_the_tensor_power(self, n, r):
        table = signed_permutations(n, r)
        d = n**r
        for e in range(table.perm.shape[0]):
            g = group_element(table, e)
            rho = functools.reduce(np.kron, [g] * r, np.eye(1, dtype=int))
            got, back = np.zeros((d, d)), np.zeros((d, d))
            got[np.arange(d), table.src[e]] = table.sgn[e]
            back[np.arange(d), table.inv[e]] = table.inv_sgn[e]
            assert np.array_equal(got, rho)
            assert np.array_equal(back, rho.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pattern_elements_are_the_orbit_walk_and_the_stabilizer(self, n):
        # for every zero/tie pattern, canonical holds the element
        # frequency_orbits gives each member g key of the key's orbit, once,
        # and stabilizer the g with g key = key, read off the whole table
        table = signed_permutations(n, 0)
        keys = np.array(sorted({tuple(sorted(k)) for k in itertools.product(range(n + 1), repeat=n)}))
        for key in keys[1:]:
            canonical, stabilizer = pattern_elements(key)
            # members[e] = g key: entry perm[e, j] is signs[e, j] key[j]
            members = np.zeros(table.perm.shape, int)
            np.put_along_axis(members, table.perm, (table.signs * key).astype(int), axis=1)
            orbit = np.unique(members, axis=0)
            got_keys, rep, elem = frequency_orbits(orbit, signed=True, rays=False)
            assert np.array_equal(got_keys, key[None]) and not np.any(rep)
            assert np.array_equal(canonical, np.sort(elem))
            assert np.array_equal(stabilizer, np.flatnonzero(np.all(members == key, axis=1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_element_once_and_the_identity_first(self, n):
        table = signed_permutations(n, 1)
        rows = np.concatenate([table.perm, table.signs], axis=1)
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0] == 2**n * math.factorial(n)
        assert np.array_equal(group_element(table, 0), np.eye(n))


@dataclass
class _Inner(Report):
    ratio: float


@dataclass
class _Outer(Report):
    big: float
    undefined: float
    count: int
    index: np.int64
    flag: np.bool_
    scale: np.float32
    witness: np.ndarray
    pair: tuple
    inner: _Inner
    table: dict
    note: str | None


def test_report_serializer():
    outer = _Outer(
        big=math.inf,
        undefined=math.nan,
        count=4,
        index=np.int64(3),
        flag=np.bool_(True),
        scale=np.float32(0.5),
        witness=np.array([1.0 + 2.0j, -0.5j]),
        pair=(1, 2.5),
        inner=_Inner(np.float64(math.inf)),
        table={"a": np.nan, "b": [np.int32(1), 0.25]},
        note=None,
    )
    out = outer.to_dict()
    assert out == {
        "big": "inf",
        "undefined": None,
        "count": 4,
        "index": 3,
        "flag": True,
        "scale": 0.5,
        "witness": [[1.0, 2.0], [0.0, -0.5]],
        "pair": [1, 2.5],
        "inner": {"ratio": "inf"},
        "table": {"a": None, "b": [1, 0.25]},
        "note": None,
    }
    assert [type(out[k]) for k in ("count", "index", "flag", "scale")] == [int, int, bool, float]
    assert json.loads(json.dumps(out, allow_nan=False)) == out
