"""Command-line interface: classify, verify, demo, crosscheck.

Every run emits a single JSON report with the inputs echoed (command line,
seeds, parsed config, tool version) so that replaying the manifest
reproduces the report byte for byte.  Timestamps are therefore omitted
unless explicitly requested with --stamp-time.  Exit codes: 0 success,
1 precondition failure (PreconditionError), 2 parse/usage error, including
out-of-range flag values (ConfigError naming the flag).  Any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .classify import SphereSampling, classify, classify_on_kernel, is_c_elliptic
from .operators import CONVENTIONS, catalog_operator
from .specfile import (
    ConfigError,
    SpecFileError,
    _resolve_partmap,
    _user_value,
    load_verify_config,
    parse_operator_file,
)
from .torus import TorusGrid
from .verify import (
    FieldFamily,
    PreconditionError,
    curl_riesz_crosscheck,
    estimate_constant,
    necessity_demo,
    refinement_study,
)

REPORT_SCHEMA_VERSION = 2


def _manifest(args, seed, config_echo):
    return {
        "command": list(args.argv),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat() if args.stamp_time else None,
        "config": config_echo,
        "conventions": dict(CONVENTIONS),
    }


def _report(args, seed, config_echo, results):
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "kmslab", "version": __version__},
        "manifest": _manifest(args, seed, config_echo),
        "results": results,
    }


def _emit(report, out):
    # a non-finite float is a bug: strict JSON has no NaN or Infinity
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
        print(f"report written to {out}")
    else:
        sys.stdout.write(text)


def _csv_ints(text, what):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigError(what, f"expected comma-separated integers, got {text!r}") from None


def _grid(n, points):
    return _user_value({"n": "n", "points_per_axis": "grid"}, TorusGrid, n, points)


def _load_operator(args):
    if args.spec:
        return parse_operator_file(args.spec)
    if args.catalog:
        if args.n is None or args.n < 1:
            raise ConfigError("n", f"--catalog needs a dimension --n >= 1, got {args.n}")
        try:
            return catalog_operator(args.catalog, args.n)
        except (KeyError, ValueError) as exc:
            raise ConfigError("catalog", str(exc)) from None
    raise ConfigError("spec", "one of --spec or --catalog is required")


def cmd_classify(args):
    spec = _load_operator(args)
    sampling = _user_value(
        {"count": "samples", "seed": "seed"},
        SphereSampling.standard,
        spec.n,
        args.samples,
        args.seed,
    )
    if args.on_kernel_of:
        part = _resolve_partmap("on-kernel-of", args.on_kernel_of, spec)
        report = _user_value(
            {"tol": "tol"}, classify_on_kernel, spec, part, sampling, tol=args.tol
        )
        config_echo = {
            "operator": spec.name,
            "on_kernel_of": part.name,
            "samples": args.samples,
            "tol": args.tol,
        }
    else:
        report = _user_value({"tol": "tol"}, classify, spec, sampling, tol=args.tol)
        config_echo = {"operator": spec.name, "samples": args.samples, "tol": args.tol}
    results = report.to_dict()
    if args.complex:
        complex_sampling = SphereSampling.standard(
            spec.n, count=args.samples, seed=args.seed, complex_mode=True
        )
        verdict = _user_value(
            {"refine_steps": "refine"},
            is_c_elliptic,
            spec,
            complex_sampling,
            tol=args.tol,
            refine_steps=args.refine,
        )
        results["is_c_elliptic"] = verdict.to_dict()
    _emit(_report(args, args.seed, config_echo, results), args.out)
    return 0


def cmd_verify(args):
    config, extras = load_verify_config(args.config)
    if args.grid is not None:
        config = config.with_grid(_grid(config.n, args.grid))
    trials = args.trials if args.trials is not None else extras["trials"]
    seed = args.seed if args.seed is not None else extras["seed"]
    sizes = _csv_ints(args.refine, "refine") if args.refine is not None else extras.get("sizes")
    family = _user_value({"random_trials": "trials"}, FieldFamily, random_trials=trials)
    flags = {"sizes": "refine" if args.refine is not None else "sizes", "seed": "seed"}
    if sizes is not None:
        study = _user_value(flags, refinement_study, config, sizes, family, seed=seed)
        results = {"kind": "refinement_study", "study": study.to_dict()}
    else:
        estimate = _user_value(flags, estimate_constant, config, family, seed=seed)
        results = {"kind": "estimate_constant", "estimate": estimate.to_dict()}
    _emit(_report(args, seed, config.describe(), results), args.out)
    return 0


def cmd_demo_necessity(args):
    # the grid first, so a bad dimension is blamed on n and not on B
    grid = _grid(args.n, args.grid)
    try:
        spec = catalog_operator(args.B, args.n)
    except (KeyError, ValueError) as exc:
        raise ConfigError("B", str(exc)) from None
    part = _resolve_partmap("A", args.A, spec)
    # necessity_demo's default, echoed as used
    p = (1 + args.n) / 2 if args.p is None else args.p
    demo = _user_value({"p": "p"}, necessity_demo, part, spec, grid, p=p)
    config_echo = {
        "A": part.name,
        "B": spec.name,
        "n": args.n,
        "grid": args.grid,
        "p": p,
    }
    _emit(_report(args, None, config_echo, demo.to_dict()), args.out)
    return 0


def cmd_crosscheck(args):
    grid = _grid(3, args.grid) if args.grid is not None else None
    result = _user_value(
        {"eval_points": "points", "width": "width", "grid": "grid"},
        curl_riesz_crosscheck,
        mode=args.mode,
        grid=grid,
        eval_points=args.points,
        width=args.width,
    )
    config_echo = {"check": "curl-riesz", "mode": args.mode}
    _emit(_report(args, None, config_echo, result.to_dict()), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmslab",
        description="Symbol classification and Korn-Maxwell-Sobolev inequality trials on the discrete torus",
    )
    parser.add_argument("--version", action="version", version=f"kmslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify an operator symbol")
    p_cls.add_argument("--spec", help="operator spec file (.op)")
    p_cls.add_argument("--catalog", help="catalog operator name")
    p_cls.add_argument("--n", type=int, help="ambient dimension (with --catalog)")
    p_cls.add_argument("--on-kernel-of", help="restrict to the kernel of this part map")
    p_cls.add_argument("--samples", type=int, default=2048)
    p_cls.add_argument("--seed", type=int, default=1729)
    p_cls.add_argument("--tol", type=float, default=1e-8)
    p_cls.add_argument("--complex", action="store_true", help="add a sampled C-ellipticity verdict")
    p_cls.add_argument("--refine", type=int, default=0, help="Nelder-Mead steps for the C-ellipticity witness")
    p_cls.add_argument("--out", help="report path (stdout when omitted)")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="estimate an inequality constant")
    p_ver.add_argument("--config", required=True, help="JSON config file (.cfg)")
    p_ver.add_argument("--trials", type=int, help="random-field trial count override")
    p_ver.add_argument("--seed", type=int, help="root seed override")
    p_ver.add_argument("--grid", type=int, help="points-per-axis override")
    p_ver.add_argument("--refine", help="comma-separated grid sizes for a refinement study")
    p_ver.add_argument("--out", help="report path (stdout when omitted)")
    p_ver.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_nec = demo_sub.add_parser("necessity", help="necessity of the correction term")
    p_nec.add_argument("--A", required=True, help="part map name (e.g. tr)")
    p_nec.add_argument("--B", required=True, help="catalog operator name (e.g. curl3)")
    p_nec.add_argument("--n", type=int, default=3)
    p_nec.add_argument("--grid", type=int, default=16)
    p_nec.add_argument("--p", type=float, help="exponent (default (1 + n) / 2)")
    p_nec.add_argument("--out", help="report path (stdout when omitted)")
    p_nec.set_defaults(func=cmd_demo_necessity)

    p_cc = sub.add_parser("crosscheck", help="cross-checks against closed forms")
    cc_sub = p_cc.add_subparsers(dest="crosscheck_command", required=True)
    p_cr = cc_sub.add_parser("curl-riesz", help="explicit Riesz kernel for the Curl correction")
    p_cr.add_argument("--mode", choices=("symbol", "quadrature"), default="symbol")
    p_cr.add_argument("--grid", type=int, help="points per axis (defaults: 16 symbol, 32 quadrature)")
    p_cr.add_argument("--points", type=int, default=10, help="evaluation points (quadrature)")
    p_cr.add_argument("--width", type=float, default=0.5, help="bump width (quadrature)")
    p_cr.add_argument("--out", help="report path (stdout when omitted)")
    p_cr.set_defaults(func=cmd_crosscheck)

    for sp in (p_cls, p_ver, p_nec, p_cr):
        sp.add_argument(
            "--stamp-time",
            action="store_true",
            help="include a wall-clock timestamp (reports stop being byte-reproducible)",
        )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (SpecFileError, ConfigError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
