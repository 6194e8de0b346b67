"""The sweep and the witness search against unpruned references, and the work they do.

The reference implementations below factorise every matrix the way the
sweep did before it skipped work; the pruned paths must return the same
bits.  The work-count guards pin how many matrices are factorised with
singular vectors and where the correction is evaluated, so a redundant
factorisation or evaluation fails here.
"""

import numpy as np
import pytest

from kmslab.operators import catalog_operator, catalog_partmap, symbol_on_frequencies
from kmslab.torus import TorusGrid
from kmslab.verify import (
    FieldFamily,
    InequalityConfig,
    estimate_constant,
    search_kernel_witness,
)
from kmslab.verify import (
    _frequency_scales,
    _profile_norm,
    _reduced_order,
    _sweep_chunks,
    _sweep_vectors,
    _table_correction,
)

CURL = catalog_operator("curl_matrix_rowwise", 3)

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
    d, grid, count = cfg.operator.d, cfg.grid, freqs.shape[0]
    orders = _reduced_order(grid, freqs)
    a, b, c = _frequency_scales(
        cfg,
        np.linalg.norm(freqs, axis=1),
        lambda q, odd: np.array([_profile_norm(grid, int(m), q, odd) for m in orders]),
    )
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
    freqs = grid.frequency_list(canonical=True)
    norm2 = np.sum(freqs.astype(float) ** 2, axis=1)
    keys = [freqs[:, j] for j in reversed(range(freqs.shape[1]))] + [norm2]
    freqs = freqs[np.lexsort(tuple(keys))]
    amat = np.broadcast_to(part.matrix, (freqs.shape[0],) + part.matrix.shape)
    stacked = np.concatenate([amat, symbol_on_frequencies(spec, freqs.astype(float)).real], axis=1)
    _, s, vh = np.linalg.svd(stacked)
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
    freqs = cfg.grid.frequency_list(canonical=True).astype(float)
    cmats = correction_on_frequencies(cfg, freqs)
    vs, flags, _ = _sweep_vectors(cfg, freqs, cmats)
    want_flags, want_vs = reference_flags_and_vectors(cfg, freqs, cmats)
    assert np.array_equal(flags, want_flags)
    assert np.array_equal(vs, want_vs)
    assert flags.any() == (correction is False)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize(
    "ident,part_name,p",
    [
        ("korn_const", "tr", 2.0),
        ("korn_const2_p2", "tr", 2.0),
        ("korn_const_p1", "tr", 1.0),
        ("korn_const", "zero", 2.0),
    ],
)
def test_sweep_correction_read_from_the_grid_table(ident, part_name, p, m):
    cfg = make_config(ident, part_name, p, None, m)
    freqs = cfg.grid.frequency_list(canonical=True)
    table = cfg.correction_descriptor.grid_table(cfg.grid)
    got = _table_correction(cfg.grid, table, freqs)
    want = correction_on_frequencies(cfg, freqs.astype(float))
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("part_name", ["sym", "tr", "dev", "skew"])
def test_witness_scan_matches_full_svd_scan(part_name, m):
    part, grid = catalog_partmap(part_name, 3), TorusGrid(3, m)
    got = search_kernel_witness(part, CURL, grid)
    want = reference_witness(part, CURL, grid)
    # sym(a (x) xi) = 0 and dev(a (x) xi) = 0 force a = 0
    assert (got is None) == (want is None) == (part_name in ("sym", "dev"))
    if got is not None:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.fixture
def svd_with_vectors(monkeypatch):
    """call(fn, *args) -> (fn(*args), matrices np.linalg.svd factorised with singular vectors)."""
    svd = np.linalg.svd

    def call(fn, *args):
        counts = []

        def counting(a, *svd_args, **kwargs):
            if kwargs.get("compute_uv", True):
                counts.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *svd_args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counting)
            result = fn(*args)
        return result, sum(counts)

    return call


def test_kms_sym_sweep_factorises_two_matrices_per_frequency(svd_with_vectors):
    cfg = make_config("kms_sym", "sym", 2.0, None, 16)
    chunks, factorised = svd_with_vectors(lambda: list(_sweep_chunks(cfg)))
    swept = sum(chunk.shape[0] for chunk, _, _ in chunks)
    assert swept == cfg.grid.frequency_list(canonical=True).shape[0]
    assert factorised == 2 * swept


@pytest.mark.parametrize("part_name", ["sym", "tr"])
def test_witness_scan_factorises_with_vectors_at_most_once(svd_with_vectors, part_name):
    part, grid = catalog_partmap(part_name, 3), TorusGrid(3, 16)
    found, factorised = svd_with_vectors(search_kernel_witness, part, CURL, grid)
    assert (found is None) == (part_name == "sym")
    assert factorised == (0 if found is None else 1)


def test_korn_const_p1_evaluates_the_correction_on_the_half_grid_only():
    cfg = make_config("korn_const_p1", "tr", 1.0, None, 16)
    desc, grid = cfg.correction_descriptor, cfg.grid
    evaluated = []
    batch = desc.batch

    def counting(freqs):
        evaluated.append(int(np.prod(np.shape(freqs)[:-1])))
        return batch(freqs)

    desc.batch = counting
    estimate_constant(cfg, FieldFamily(random_trials=2, bump_widths=(0.5,)), seed=0)
    nyquist_mirror = int(np.count_nonzero(np.any(grid.half_nyquist_mask, axis=-1)))
    assert sum(evaluated) == int(np.prod(grid.half_shape)) + nyquist_mirror
