"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
Every expected value is either computed by an independent oracle inside the
test or is a hard algebraic fact; tolerances are pinned in the assertions.
"""

import json
import math
import time

import numpy as np
import pytest

from kmslab.classify import SphereSampling, classify
from kmslab.cli import main as cli_main
from kmslab.multipliers import (
    composed_correction_symbol,
    kernel_projection_symbol,
    mihlin_korn_multiplier,
    pseudoinverse_symbol,
)
from fullgrid_reference import SpectrumField, inverse_transform, transform
from kmslab.operators import (
    MultiIndex,
    catalog_operator,
    catalog_partmap,
    eval_symbol,
)
from kmslab.torus import (
    TorusGrid,
    apply_multiplier,
    apply_operator,
    dual_exponent_chain,
    lp_norm,
    random_bandlimited,
    sobolev_conjugate,
)
from kmslab.verify import (
    FieldFamily,
    InequalityConfig,
    curl_riesz_crosscheck,
    necessity_demo,
    p1_probe,
    refinement_study,
)


def verdict(num, message):
    print(f"[criterion {num:2d}] PASS: {message}")


def oracle_classify(spec, count=2048, seed=90210, tol=1e-8):
    """Brute-force loop oracle: independent sampling, per-sample SVD,
    stacked-complement nullspace for the cancelling decision."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((count, spec.n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    mins, maxes, ranks, complements = [], [], [], []
    for xi in points:
        mat = eval_symbol(spec, xi)
        u, s, _ = np.linalg.svd(mat)
        maxes.append(s[0])
        mins.append(s[-1] if spec.l >= spec.d else 0.0)
        r = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
        ranks.append(r)
        complements.append(np.eye(spec.l) - u[:, :r] @ u[:, :r].T)
    s = np.linalg.svd(np.vstack(complements), compute_uv=False)
    residual = int(np.sum(s <= 1e-8 * max(s[0], 1e-300)))
    return {
        "is_elliptic": min(mins) > tol * max(maxes),
        "is_constant_rank": len(set(ranks)) == 1,
        "rank": ranks[0] if len(set(ranks)) == 1 else None,
        "is_cancelling": residual == 0,
    }


def test_criterion_01_classification_suite():
    names = [
        "gradient",
        "sym_gradient",
        "curl_vector",
        "curl_matrix_rowwise",
        "divergence",
        "sym_curl_matrix",
    ]
    start = time.time()
    lines = []
    for name in names:
        spec = catalog_operator(name, 3)
        report = classify(spec, SphereSampling.standard(3, count=2048, seed=1729))
        oracle = oracle_classify(spec)
        assert report.is_elliptic == oracle["is_elliptic"], name
        assert report.is_constant_rank == oracle["is_constant_rank"], name
        assert report.common_rank == oracle["rank"], name
        assert report.is_cancelling == oracle["is_cancelling"], name
        lines.append(f"{name}:r={report.common_rank}")
    curl_report = classify(catalog_operator("curl_matrix_rowwise", 3))
    assert curl_report.is_constant_rank and curl_report.is_cancelling
    elapsed = time.time() - start
    assert elapsed < 10.0
    verdict(1, f"6 operators match the brute-force oracle ({', '.join(lines)}) in {elapsed:.1f}s")


def test_criterion_02_mihlin_korn_reconstruction():
    eps = catalog_operator("sym_gradient", 3)
    alpha = MultiIndex((0, 0, 1))
    m = mihlin_korn_multiplier(eps, alpha)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        xi = rng.standard_normal(3)
        lhs = m.evaluate(xi) @ eval_symbol(eps, xi)
        target = alpha.power(1j * xi) * np.eye(3)
        worst = max(worst, float(np.max(np.abs(lhs - target))))
    assert worst <= 1e-10

    grid = TorusGrid(3, 16)
    u = random_bandlimited(grid, 3, 5, seed=42)
    epsu = apply_operator(eps, u)
    m_rec = mihlin_korn_multiplier(eps, alpha, operator_input=True)
    recon = apply_multiplier(m_rec, epsu)
    f_hat = transform(u).coefficients
    exact = inverse_transform(SpectrumField(grid, 1j * grid.frequency_grid[..., 2:3] * f_hat))
    rel = lp_norm(recon - exact, 2) / lp_norm(exact, 2)
    assert rel <= 1e-8
    verdict(2, f"identity residual {worst:.2e} over 1000 frequencies; grid reconstruction error {rel:.2e}")


def test_criterion_03_fonseca_mueller_per_frequency():
    curl = catalog_operator("curl_matrix_rowwise", 3)
    pi = kernel_projection_symbol(curl, 6)
    dag = pseudoinverse_symbol(curl, 6)
    sample = SphereSampling.standard(3, count=512, seed=5).points
    constant = max(np.linalg.norm(dag.evaluate(xi), 2) for xi in sample)
    rng = np.random.default_rng(31)
    worst_slack = -math.inf
    for _ in range(10_000):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        lhs = np.linalg.norm(v - pi.evaluate(xi) @ v)
        rhs = constant * np.linalg.norm(eval_symbol(curl, xi) @ v)
        worst_slack = max(worst_slack, lhs - rhs)
        assert lhs <= rhs + 1e-10
    verdict(3, f"10^4 frequency/vector pairs satisfy the kernel-distance bound, C={constant:.3f}, worst slack {worst_slack:.2e}")


def test_criterion_04_kms_sym_boundedness():
    curl = catalog_operator("curl_matrix_rowwise", 3)
    sym = catalog_partmap("sym", 3)
    cfg = InequalityConfig("kms_sym", curl, sym, 2.0, TorusGrid(3, 8))
    study = refinement_study(
        cfg, [8, 16, 32], family=FieldFamily(random_trials=50), seed=7
    )
    assert study.all_finite
    for est in study.estimates:
        assert est.infinite_count == 0
    assert study.max_growth < 0.25
    ratios = ", ".join(f"{r:.4f}" for r in study.max_ratios)
    verdict(4, f"max ratios [{ratios}] over M=8,16,32; worst growth {study.max_growth:.2%}")


def test_criterion_05_necessity_of_correction():
    curl = catalog_operator("curl_matrix_rowwise", 3)
    tr = catalog_partmap("tr", 3)
    demo = necessity_demo(tr, curl, TorusGrid(3, 16))
    assert demo.found
    assert demo.uncorrected.rhs <= 1e-12
    assert demo.uncorrected.lhs >= 0.1
    assert math.isinf(demo.uncorrected.ratio)
    assert demo.corrected.lhs <= 1e-10
    assert demo.corrected.ratio == 0.0
    verdict(
        5,
        f"witness xi={demo.xi}: uncorrected (lhs={demo.uncorrected.lhs:.3f}, rhs={demo.uncorrected.rhs:.1e}, ratio inf), "
        f"corrected lhs={demo.corrected.lhs:.1e}",
    )


def test_criterion_06_elliptic_degeneration():
    curl = catalog_operator("curl_matrix_rowwise", 3)
    sym = catalog_partmap("sym", 3)
    grid = TorusGrid(3, 16)
    corr = composed_correction_symbol(curl, sym)
    table = corr.grid_table(grid).matrices()
    peak = float(np.max(np.abs(table)))
    assert peak <= 1e-12

    from kmslab.verify import kms_sides

    const_cfg = InequalityConfig("korn_const", curl, sym, 2.0, grid)
    ellip_cfg = InequalityConfig("korn_ellip", curl, sym, 2.0, grid)
    for seed in range(5):
        f = random_bandlimited(grid, 9, 4, seed=seed)
        assert kms_sides(const_cfg, f) == kms_sides(ellip_cfg, f)
    verdict(6, f"correction symbol peak {peak:.1e} on the 16^3 grid; korn_const == korn_ellip bit-for-bit on 5 fields")


def test_criterion_07_curl_riesz_crosscheck():
    sym_res = curl_riesz_crosscheck(mode="symbol", grid=TorusGrid(3, 16))
    assert sym_res.max_relative_deviation <= 1e-12
    quad_res = curl_riesz_crosscheck(mode="quadrature", grid=TorusGrid(3, 32), eval_points=10, width=0.5)
    assert quad_res.max_relative_deviation <= 0.10
    verdict(
        7,
        f"symbol identity {sym_res.max_relative_deviation:.1e} over {sym_res.details['frequencies_checked']} frequencies; "
        f"quadrature deviation {quad_res.max_relative_deviation:.2%} at 10 points",
    )


def test_criterion_08_exponent_arithmetic():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        p = float(rng.uniform(1.0 + 1e-9, n - 1e-9))
        q, q_dual = dual_exponent_chain(p, n)
        p_star = sobolev_conjugate(p, n)
        worst = max(worst, abs(q_dual - p_star) / p_star)
        assert abs(q_dual - p_star) <= 1e-12 * p_star
    assert sobolev_conjugate(1, 3) == pytest.approx(1.5, abs=1e-15)
    verdict(8, f"duality chain closes to {worst:.1e} over 50 random (p, n); p*(1, 3) = 3/2")


def test_criterion_09_p1_probe():
    curl = catalog_operator("curl_matrix_rowwise", 3)
    tr = catalog_partmap("tr", 3)
    probe = p1_probe(tr, curl, [8, 16, 32], family=FieldFamily(random_trials=20), seed=11)
    assert probe.estimates[0].hypotheses_met
    assert all(not math.isinf(r) for r in probe.max_ratios)
    growths = [g for g in probe.growth_fractions if not math.isnan(g)]
    assert all(g < 0.25 for g in growths)
    ratios = ", ".join(f"{r:.4f}" for r in probe.max_ratios)
    verdict(9, f"p=1 ratios [{ratios}] over M=8,16,32, growth < 25%, hypotheses confirmed")


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "kms.cfg"
    cfg.write_text(
        json.dumps(
            {
                "inequality": "korn_const",
                "n": 3,
                "grid_size": 8,
                "p": 2.0,
                "operator": "curl_matrix_rowwise",
                "partmap": "tr",
                "trials": 6,
                "seed": 13,
            }
        )
    )
    out = tmp_path / "rep.json"
    args = ["verify", "--config", str(cfg), "--out", str(out)]
    assert cli_main(list(args)) == 0
    first = out.read_bytes()
    assert cli_main(list(args)) == 0
    second = out.read_bytes()
    assert first == second
    verdict(10, "verify replay is byte-identical")
