"""The traced benchmark wraps kmslab functions by name; every name must exist.

perfbench/tracer.py swaps layer functions for wrappers and fails with
AttributeError on a name kmslab no longer has, which otherwise shows only
when someone runs the benchmark with tracing on.  It also weak-refs each
correction table grid_table returns and reads its nbytes.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

WRAPPED = {
    "operators": ("eval_symbol", "symbol_on_frequencies"),
    "classify": ("classify", "classify_on_kernel", "is_c_elliptic"),
    "multipliers": ("composed_correction_symbol",),
    "torus": (
        "apply_multiplier", "apply_operator", "apply_partmap", "lp_norm",
        "homog_sobolev_norm", "negative_sobolev_norm_l2",
        "random_bandlimited", "plane_wave_field", "bump_field",
    ),
    "verify": (
        "estimate_constant", "refinement_study", "check_hypotheses",
        "search_kernel_witness", "kms_sides",
    ),
    "specfile": ("load_verify_config", "parse_operator_file"),
    "cli": ("main",),
}
DESCRIPTOR_METHODS = ("grid_table", "on_frequencies", "__init__")


def _current():
    mods = {name: importlib.import_module(f"kmslab.{name}") for name in WRAPPED}
    functions = {
        (name, attr): getattr(mods[name], attr) for name, attrs in WRAPPED.items() for attr in attrs
    }
    descriptor = mods["multipliers"].MultiplierDescriptor
    methods = {attr: vars(descriptor)[attr] for attr in DESCRIPTOR_METHODS}
    return functions, methods


def _descriptor():
    from kmslab.multipliers import kernel_projection_symbol
    from kmslab.operators import catalog_operator

    return kernel_projection_symbol(catalog_operator("gradient", 2), 1)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_every_name_and_undo_restores_them():
    tracer = _tracer()

    functions, methods = _current()
    undo = tracer.instrument(tracer.Tracer())
    try:
        wrapped_functions, wrapped_methods = _current()
        assert all(wrapped_functions[key] is not fn for key, fn in functions.items())
        assert all(wrapped_methods[key] is not fn for key, fn in methods.items())
        # evaluate is wrapped per descriptor, in the wrapped __init__
        assert "evaluate" in vars(_descriptor())
    finally:
        undo()
    assert _current() == (functions, methods)
    assert "evaluate" not in vars(_descriptor())


def test_traced_estimate_counts_the_compact_table_once():
    # what a --trace 1 run reads of the correction table: one build, and its
    # bytes are the compact table's (the tracer weak-refs the table)
    from kmslab.operators import catalog_operator, catalog_partmap
    from kmslab.torus import TorusGrid
    from kmslab.verify import FieldFamily, InequalityConfig, estimate_constant

    tracer = _tracer()
    cfg = InequalityConfig(
        "korn_const", catalog_operator("curl_matrix_rowwise", 3), catalog_partmap("tr", 3), 2.0,
        TorusGrid(3, 16),
    )
    trace = tracer.Tracer()
    trace.request = "setup"
    undo = tracer.instrument(trace)
    try:
        estimate_constant(cfg, FieldFamily(sweep=False, random_trials=2, witness=False), seed=1)
    finally:
        undo()
    metrics = tracer.per_layer_metrics(trace, 1)
    table = cfg.correction_descriptor.grid_table(cfg.grid)
    assert metrics["multipliers.table_builds"][0] == 1
    assert metrics["multipliers.table_hit_ratio"][0] == 0.75
    assert metrics["multipliers.table_bytes"][0] == table.nbytes < 1_000_000
