"""Workload definitions: configs, set-up, verdict operations and their output checks.

Every workload is a closed loop with one client: the next verdict request
starts only after the previous one has returned.  One operation is one
verdict request, a CLI run (`sweep`) or one `estimate_constant` (field
workloads).  kmslab functions are always reached through their module
attribute at call time, so a traced run sees the same calls through its
wrappers.

Why these workloads:

* sweep: `kmslab verify --refine 8,16,32` on kms_sym (A = sym, no kernel
  witness, so the witness search scans every frequency) and korn_const_p1
  (A = tr, p = 1, whose correction is re-evaluated at every frequency).  The
  exhaustive frequency sweep plus witness search dominates; it also covers
  specfile, cli and the doubled hypothesis check.
* fields: korn_const (A = tr, p = 2, p* = 6) at M = 32 and 48 with the sweep
  and witness off.  Time goes to kms_sides (FFTs, real-space L^p norms) and
  to the 72 MB correction grid table at M = 48, which also sets peak memory.
* fields-p2: the same family on korn_const2_p2, where every norm is an L^2
  Fourier weight.  Kept apart from `fields` so that a change helping one
  and hurting the other cannot net out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

SWEEP_REFINE = "8,16,32"
SWEEP_TRIALS = 2
FIELD_SIZES = (32, 48)
FIELD_TRIALS = 4
BUMP_WIDTHS = (0.4, 0.8)
PLANE_WAVES = 3
PLANE_WAVE_GRID = 16
PLANE_WAVE_RTOL = 1e-9

_CURL = {"n": 3, "operator": "curl_matrix_rowwise"}
CONFIGS = {
    "kms_sym": dict(_CURL, inequality="kms_sym", partmap="sym", p=2.0, grid_size=8),
    "korn_const_p1": dict(_CURL, inequality="korn_const_p1", partmap="tr", p=1.0, grid_size=8),
    "korn_const": dict(_CURL, inequality="korn_const", partmap="tr", p=2.0, grid_size=32),
    "korn_const2_p2": dict(_CURL, inequality="korn_const2_p2", partmap="tr", p=2.0, grid_size=32),
}
WORKLOADS = {
    "sweep": ("kms_sym", "korn_const_p1"),
    "fields": ("korn_const",),
    "fields-p2": ("korn_const2_p2",),
}


class CheckFailed(Exception):
    """A verdict came back but failed the benchmark's output checks."""


def write_configs(cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in CONFIGS.items():
        (cfg_dir / f"{name}.cfg").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def setup(workload: str, cfg_dir: Path) -> dict:
    """Parse the workload's configs and build their correction descriptors."""
    from kmslab import specfile

    configs = {}
    for name in WORKLOADS[workload]:
        config, _ = specfile.load_verify_config(cfg_dir / f"{name}.cfg")
        config.correction_descriptor  # built on first access; None without correction
        configs[name] = config
    return configs


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, indent=2).encode()).hexdigest()


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _ratio_ok(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


def operations(workload, configs, seed, cfg_dir: Path, out_dir: Path, schema):
    """The verdict requests of one pass, as (label, run, check) triples.

    run() performs the request and returns its output; check(output) raises
    CheckFailed or returns a digest of the output, which must not change
    between passes.
    """
    if workload == "sweep":
        return [_sweep_op(name, seed, cfg_dir, out_dir, schema) for name in configs]
    (name,) = configs
    return [_field_op(configs[name], size, seed) for size in FIELD_SIZES]


def _sweep_op(name, seed, cfg_dir, out_dir, schema):
    from kmslab import cli

    out = out_dir / f"report-{name}.json"
    argv = [
        "verify", "--config", str(cfg_dir / f"{name}.cfg"), "--refine", SWEEP_REFINE,
        "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--out", str(out),
    ]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        import jsonschema

        _require(code == 0, f"kmslab verify exited with {code}")
        report = json.loads(out.read_text())
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            raise CheckFailed(f"report does not match the schema: {exc.message}") from None
        results = report["results"]
        _require(results.get("kind") == "refinement_study", "not a refinement study")
        study = results["study"]
        _require(study["sizes"] == [int(m) for m in SWEEP_REFINE.split(",")], "wrong sizes")
        estimates = study["estimates"]
        if name == "kms_sym":
            _require(study["all_finite"], "kms_sym verdict is not finite")
            _require(all(_ratio_ok(r) for r in study["max_ratios"]), "kms_sym ratio not finite")
            _require(all(e["infinite_count"] == 0 for e in estimates), "kms_sym infinite trials")
        if name == "korn_const_p1":
            _require(all(e["hypotheses_met"] for e in estimates), "korn_const_p1 hypotheses not met")
        return _digest(results)

    return f"verify-{name}", run, check


def _field_op(base, size, seed):
    from kmslab import torus, verify

    family = verify.FieldFamily(
        sweep=False, witness=False, random_trials=FIELD_TRIALS, bump_widths=BUMP_WIDTHS
    )

    def run():
        # a fresh config per request: the correction grid table is rebuilt,
        # as in every refinement study
        config = base.with_grid(torus.TorusGrid(base.n, size))
        return verify.estimate_constant(config, family, seed=seed)

    def check(estimate):
        _require(estimate.infinite_count == 0, "infinite ratio in a field family")
        ratios = [estimate.max_ratio, estimate.max_finite_ratio, estimate.median_ratio]
        ratios += list(estimate.family_maxima.values())
        _require(all(_ratio_ok(r) for r in ratios), f"ratio not finite and >= 0: {ratios}")
        _require(estimate.n_trials == FIELD_TRIALS + len(BUMP_WIDTHS), "wrong trial count")
        return _digest(estimate.to_dict())

    return f"estimate-M{size}", run, check


def plane_wave_check(configs, seed):
    """FFT kms_sides and the closed-form single-frequency trial must agree.

    Returns one (label, error message or None) per config.
    """
    import numpy as np

    from kmslab import torus, verify

    rng = np.random.default_rng(seed)
    half = PLANE_WAVE_GRID // 2
    out = []
    for name, base in configs.items():
        config = base.with_grid(torus.TorusGrid(base.n, PLANE_WAVE_GRID))
        error = None
        for _ in range(PLANE_WAVES):
            xi = np.zeros(config.n, dtype=np.int64)
            while not xi.any():
                xi = rng.integers(-(half - 1), half, size=config.n)
            v = rng.standard_normal(config.operator.d)
            lhs, rhs = verify.kms_sides(config, torus.plane_wave_field(config.grid, xi, v))
            spectral = verify.trial_ratio(lhs, rhs)
            exact = verify.single_frequency_trial(config, xi, v).ratio
            scale = max(abs(spectral), abs(exact))
            if not (math.isfinite(scale) and abs(spectral - exact) <= PLANE_WAVE_RTOL * scale):
                error = f"xi={xi.tolist()}: kms_sides ratio {spectral} != closed form {exact}"
                break
        out.append((f"plane-waves-{name}", error))
    return out
