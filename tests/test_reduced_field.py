"""A corrected trial reads the samples of one field, R = P - corr P, for both real-space sides.

The correction maps into ker A (A Pi_B = 0: it is K pi K^T with K a basis
of ker A), so A grad^m P = A grad^m R, and kms_sides takes one inverse
transform of R's spectrum for the left side and for the A side.  These
tests check that identity on every catalog correction, hold kms_sides
against kernel_reference.corrected_sides, which subtracts the samples of P
and of corr P and applies A to P's samples, and count the transforms of a
corrected trial at k = 2.
"""

import math

import numpy as np
import pytest

from kernel_reference import corrected_sides
from kmslab import torus
from kmslab.multipliers import composed_correction_symbol
from kmslab.operators import CATALOG_OPERATORS, catalog_operator, catalog_partmap, multiindex_enumerate
from kmslab.specfile import parse_operator_text
from kmslab.torus import TensorField, TorusGrid, bump_field, random_bandlimited
from kmslab.verify import NEGLIGIBLE, InequalityConfig, kms_sides


def catalog_corrections():
    """(n, operator, part map) for every catalog pair whose fibres match, n = 2 and 3."""
    cases = []
    for n in (2, 3):
        for op in CATALOG_OPERATORS:
            if "curl" in op and n != 3:
                continue
            d = catalog_operator(op, n).d
            for part in ("sym", "dev", "tr", "skew", "zero", "identity"):
                if part in ("zero", "identity") or d == n * n:
                    cases.append((n, op, part))
    return cases


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("n,op,part", catalog_corrections())
def test_every_correction_maps_into_ker_a(n, op, part, m):
    spec = catalog_operator(op, n)
    pm = catalog_partmap(part, n, dim=spec.d if part in ("zero", "identity") else None)
    table = composed_correction_symbol(spec, pm).grid_table(TorusGrid(n, m))
    assert table.values.shape[0] > 1
    assert np.max(np.abs(pm.matrix @ table.values)) <= 1e-14


def curl_curl_rowwise():
    """The spec file of curl curl on each row of a 3 x 3 matrix field, k = 2.

    (curl curl u)_i = sum_j d_i d_j u_j - laplace u_i: the coefficient of
    d_k^2 is E_kk - I and that of d_k d_l (k < l) is E_kl + E_lk, on each
    row.  On ker tr its symbol has constant rank 7: the kernel is
    a (x) xi with a orthogonal to xi, as for the first-order curl.
    """
    lines = ["operator curl_curl_rowwise", "n 3", "d 9", "l 9", "k 2"]
    for alpha in multiindex_enumerate(3, 2):
        e = alpha.exponents
        k, l = [j for j in range(3) for _ in range(e[j])]
        row = np.zeros((3, 3))
        if k == l:
            row -= np.eye(3)
            row[k, k] += 1.0
        else:
            row[k, l] = row[l, k] = 1.0
        entries = " ".join(f"{x:g}" for x in np.kron(np.eye(3), row).ravel())
        lines.append(f"coeff {' '.join(map(str, e))} : {entries}")
    return parse_operator_text("\n".join(lines))


def fields(grid, d):
    """A random field on its band box, a bump, and white noise with Nyquist content."""
    m = grid.points_per_axis
    rng = np.random.default_rng(m)
    v = rng.standard_normal(d)
    noise = TensorField(grid, rng.standard_normal(grid.shape + (d,))).with_zero_mean()
    return {
        "random": random_bandlimited(grid, d, m // 4, seed=m),
        "bump": bump_field(grid, np.full(grid.n, 2.0), 0.4, v / np.linalg.norm(v)),
        "noise": noise,
    }


def assert_agrees(cfg, fld):
    got = kms_sides(cfg, fld)
    want = corrected_sides(cfg, fld)
    reference = torus.HalfSpectrum.of(fld).sobolev_norm(0, 2.0)
    for g, w in zip(got, want):
        if g == 0.0:
            assert w <= NEGLIGIBLE * reference * (1.0 + 1e-9)
        else:
            assert abs(g - w) <= 1e-12 * w, (got, want)


# every correction id, with p = 1.5 (q = 3, real space) and p = 6/5 (q = 2,
# Parseval) for korn_const
CORRECTED = [("korn_const", 1.5), ("korn_const", 1.2), ("korn_const2_p2", 2.0), ("korn_const_p1", 1.0)]
PAIRS = [("curl_matrix_rowwise", "tr"), ("div_matrix_rowwise", "dev"), ("sym_curl_matrix", "skew")]


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("op,part", PAIRS)
@pytest.mark.parametrize("ident,p", CORRECTED)
def test_kms_sides_agrees_with_subtracting_samples(ident, p, op, part, m):
    grid = TorusGrid(3, m)
    cfg = InequalityConfig(ident, catalog_operator(op, 3), catalog_partmap(part, 3), p, grid)
    for fld in fields(grid, cfg.operator.d).values():
        assert_agrees(cfg, fld)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("ident,p", CORRECTED)
def test_a_second_order_spec_file_operator_agrees(ident, p, m):
    grid = TorusGrid(3, m)
    cfg = InequalityConfig(ident, curl_curl_rowwise(), catalog_partmap("tr", 3), p, grid)
    assert cfg.k == 2 and np.any(cfg.correction_descriptor.grid_table(grid).values)
    for fld in fields(grid, 9).values():
        assert_agrees(cfg, fld)


def counted(monkeypatch):
    # every inverse transform goes through torus._slabs
    calls = []
    for name in ("_forward", "_slabs"):
        original = getattr(torus, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(torus, name, counting)
    return calls


@pytest.mark.parametrize("ident", ["korn_const", "korn_ellip"])
def test_a_second_order_trial_takes_one_inverse_for_its_real_space_sides(monkeypatch, ident):
    # p = 1.5, k = 2: |B P|_1.5 takes one inverse transform, and the L^3
    # norms of grad R and of A grad R read one slab reduction of grad R, one
    # more (R = P for korn_ellip); A grad P^ is never transformed
    grid = TorusGrid(3, 16)
    cfg = InequalityConfig(ident, curl_curl_rowwise(), catalog_partmap("tr", 3), 1.5, grid)
    fld = random_bandlimited(grid, 9, 4, seed=1)
    calls = counted(monkeypatch)
    lhs, rhs = kms_sides(cfg, fld)
    assert calls == ["_slabs", "_slabs"]
    assert math.isfinite(lhs) and math.isfinite(rhs)
