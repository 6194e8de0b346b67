"""Parsing of operator spec files and verification config files.

Operator files (.op) are line-oriented text::

    # comment lines and blank lines are ignored
    operator my_curl          # optional identifier
    n 3
    d 3
    l 3
    k 1
    coeff 0 1 0 : 0 0 1  0 0 0  -1 0 0    # multi-index, then l*d row-major entries

A file may instead reference a catalog operator, in which case only the
dimension is needed::

    catalog curl_vector
    n 3

Verification configs (.cfg) are JSON documents; see load_verify_config for
the recognized keys.  All parse errors carry the offending line or field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .operators import (
    PARTMAP_ALIASES,
    ArgumentError,
    MultiIndex,
    OperatorSpec,
    catalog_operator,
    catalog_partmap,
    check_count,
)
from .torus import TorusGrid
from .verify import InequalityConfig

__all__ = [
    "SpecFileError",
    "ConfigError",
    "parse_operator_text",
    "parse_operator_file",
    "load_verify_config",
]


class SpecFileError(ValueError):
    """Operator file parse error, carrying line number and field name."""

    def __init__(self, line: int | None, field: str, message: str):
        self.line = line
        self.field = field
        if line is None:
            super().__init__(f"{field}: {message}")
        else:
            super().__init__(f"line {line}: {field}: {message}")


class ConfigError(ValueError):
    """Verification config error, carrying the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


def _user_value(flags, build, *args, **kwargs):
    """build(*args, **kwargs), with the flags or config keys behind its arguments.

    flags maps argument names to flag or key names.  An ArgumentError about
    one of these arguments becomes a ConfigError naming the flag or key;
    every other exception propagates.
    """
    try:
        return build(*args, **kwargs)
    except ArgumentError as exc:
        if exc.argument not in flags:
            raise
        raise ConfigError(flags[exc.argument], str(exc)) from None


def _resolve_partmap(flag, name, spec):
    """The part map `name` for the operator spec; flag names the option or key.

    identity and zero take the operator's fiber dimension.
    """
    try:
        key = PARTMAP_ALIASES.get(name, name)
        part = catalog_partmap(key, spec.n, dim=spec.d if key in ("identity", "zero") else None)
    except (KeyError, ValueError) as exc:
        raise ConfigError(flag, str(exc)) from None
    if part.d != spec.d:
        raise ConfigError(
            flag, f"part map {part.name} acts on R^{part.d} but {spec.name} on R^{spec.d}"
        )
    return part


def _parse_int(token, line, field):
    try:
        return int(token)
    except ValueError:
        raise SpecFileError(line, field, f"expected an integer, got {token!r}") from None


def _parse_float(token, line, field):
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SpecFileError(line, field, f"expected a finite number, got {token!r}")
    return value


def parse_operator_text(text: str, name_hint: str = "operator") -> OperatorSpec:
    """Parse the operator file grammar from a string."""
    dims: dict = {}
    name = None
    catalog_name = None
    coeff_rows: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "operator":
            if len(parts) != 2:
                raise SpecFileError(lineno, "operator", "expected exactly one identifier")
            name = parts[1]
        elif key == "catalog":
            if len(parts) != 2:
                raise SpecFileError(lineno, "catalog", "expected exactly one catalog name")
            catalog_name = parts[1]
        elif key in ("n", "d", "l", "k"):
            if len(parts) != 2:
                raise SpecFileError(lineno, key, "expected exactly one integer")
            dims[key] = _parse_int(parts[1], lineno, key)
        elif key == "coeff":
            body = line[len("coeff") :]
            if ":" not in body:
                raise SpecFileError(lineno, "coeff", "expected 'coeff <alpha> : <entries>'")
            alpha_part, entry_part = body.split(":", 1)
            alpha = tuple(_parse_int(t, lineno, "coeff") for t in alpha_part.split())
            entries = [_parse_float(t, lineno, "coeff") for t in entry_part.split()]
            coeff_rows.append((lineno, alpha, entries))
        else:
            raise SpecFileError(lineno, key, "unknown directive")

    if catalog_name is not None:
        if coeff_rows:
            raise SpecFileError(None, "catalog", "catalog reference and coeff entries are exclusive")
        if "n" not in dims:
            raise SpecFileError(None, "n", "catalog reference needs the dimension n")
        if dims["n"] < 1:
            raise SpecFileError(None, "n", f"invalid value {dims['n']}")
        try:
            return catalog_operator(catalog_name, dims["n"])
        except (KeyError, ValueError) as exc:
            raise SpecFileError(None, "catalog", str(exc)) from None

    for field in ("n", "d", "l", "k"):
        if field not in dims:
            raise SpecFileError(None, field, "missing required field")
        if dims[field] < 0 or (field != "k" and dims[field] < 1):
            raise SpecFileError(None, field, f"invalid value {dims[field]}")
    if not coeff_rows:
        raise SpecFileError(None, "coeff", "at least one coefficient entry is required")

    n, d, l, k = dims["n"], dims["d"], dims["l"], dims["k"]
    coeffs = {}
    for lineno, alpha, entries in coeff_rows:
        if len(alpha) != n:
            raise SpecFileError(lineno, "coeff", f"multi-index has {len(alpha)} entries, expected n={n}")
        if any(a < 0 for a in alpha):
            raise SpecFileError(lineno, "coeff", "multi-index entries must be non-negative")
        if sum(alpha) != k:
            raise SpecFileError(lineno, "coeff", f"multi-index order {sum(alpha)} != k={k}")
        if len(entries) != l * d:
            raise SpecFileError(
                lineno, "coeff", f"expected {l * d} matrix entries, got {len(entries)}"
            )
        idx = MultiIndex(alpha)
        if idx in coeffs:
            raise SpecFileError(lineno, "coeff", f"duplicate multi-index {idx}")
        coeffs[idx] = np.array(entries, dtype=float).reshape(l, d)
    if all(not np.any(m) for m in coeffs.values()):
        raise SpecFileError(None, "coeff", "all coefficient matrices are zero")
    return OperatorSpec(name=name or name_hint, n=n, d=d, l=l, k=k, coeffs=coeffs)


def parse_operator_file(path) -> OperatorSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecFileError(None, "file", f"cannot read {path}: {exc}") from None
    return parse_operator_text(text, name_hint=path.stem)


# --------------------------------------------------------------------------
# verification configs
# --------------------------------------------------------------------------

_CONFIG_KEYS = {
    "inequality",
    "n",
    "grid_size",
    "p",
    "operator",
    "partmap",
    "correction",
    "trials",
    "seed",
    "sizes",
}


def load_verify_config(path):
    """Load a JSON verification config and build the InequalityConfig.

    Returns (config, extras) where extras carries trials / seed / sizes
    defaults that the CLI may override.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError("file", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("json", f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("json", "top-level value must be an object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")

    def need(key, types, what):
        if key not in doc:
            raise ConfigError(key, "missing required key")
        val = doc[key]
        # bool subclasses int, but a JSON true is no number
        if isinstance(val, bool) or not isinstance(val, types):
            raise ConfigError(key, f"expected {what}")
        return val

    ident = need("inequality", str, "a string")
    n = need("n", int, "an integer")
    grid_size = need("grid_size", int, "an integer")
    p = float(need("p", (int, float), "a number"))
    # the grid first, so a bad dimension is blamed on n and not on the operator built for it
    grid = _user_value({"n": "n", "points_per_axis": "grid_size"}, TorusGrid, n, grid_size)

    op_entry = need("operator", (str, dict), "a catalog name or {'file': path}")
    if isinstance(op_entry, str):
        try:
            operator = catalog_operator(op_entry, n)
        except (KeyError, ValueError) as exc:
            raise ConfigError("operator", str(exc)) from None
    else:
        if set(op_entry) != {"file"} or not isinstance(op_entry["file"], str):
            raise ConfigError("operator", "object form must be exactly {'file': <path string>}")
        op_path = Path(op_entry["file"])
        if not op_path.is_absolute():
            op_path = path.parent / op_path
        operator = parse_operator_file(op_path)
        if operator.n != n:
            raise ConfigError("operator", f"operator dimension {operator.n} != config n={n}")

    part = doc.get("partmap")
    if part is not None:
        if not isinstance(part, str):
            raise ConfigError("partmap", "expected a part map name or null")
        part = _resolve_partmap("partmap", part, operator)

    correction = doc.get("correction")
    if correction is not None and not isinstance(correction, bool):
        raise ConfigError("correction", "expected a boolean")

    keys = {
        "inequality_id": "inequality",
        "operator": "operator",
        "part": "partmap",
        "p": "p",
        "grid": "n",
        "correction_enabled": "correction",
    }
    config = _user_value(keys, InequalityConfig, ident, operator, part, p, grid, correction)

    extras = {
        "trials": doc.get("trials", 50),
        "seed": doc.get("seed", 0),
        "sizes": doc.get("sizes"),
    }
    for key in ("trials", "seed"):
        _user_value({key: key}, check_count, key, extras[key])
    return config, extras
