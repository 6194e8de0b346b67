"""Version-tagged binary containers for field snapshots and multiplier grids.

Field container (magic ``KMSF``, version 1), little-endian::

    4 bytes   magic b"KMSF"
    u32       version = 1
    u32       n  (ambient dimension)
    u32       M  (points per axis)
    u32       d  (fiber dimension)
    f64[...]  values, C order, shape (M,)*n + (d,)

Multiplier grid container (magic ``KMSM``, version 1)::

    4 bytes   magic b"KMSM"
    u32       version = 1
    u32       n
    u32       M
    u32       rows
    u32       cols
    u8        1 when complex128 payload, 0 when float64
    payload   C order, shape (M,)*n + (rows, cols)
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .torus import TensorField, TorusGrid

__all__ = [
    "write_field",
    "read_field",
    "write_multiplier_grid",
    "read_multiplier_grid",
    "BinaryFormatError",
]

FIELD_MAGIC = b"KMSF"
MULTIPLIER_MAGIC = b"KMSM"
VERSION = 1


class BinaryFormatError(ValueError):
    pass


def _read_header(path, blob, magic, kind, fmt, names):
    """Validate a container header; returns (fields by name, grid, payload offset)."""
    if blob[:4] != magic:
        raise BinaryFormatError(f"{path}: not a {kind} container (bad magic)")
    end = 4 + struct.calcsize(fmt)
    if len(blob) < end:
        # every header field is a u32 except the multiplier's trailing u8 flag
        name = names[min((len(blob) - 4) // 4, len(names) - 1)]
        raise BinaryFormatError(f"{path}: header truncated at field {name!r} ({len(blob)} bytes)")
    header = dict(zip(names, struct.unpack(fmt, blob[4:end])))
    if header["version"] != VERSION:
        raise BinaryFormatError(f"{path}: unsupported version {header['version']}")
    try:
        grid = TorusGrid(header["n"], header["M"])
    except ValueError as exc:
        name = "n" if header["n"] < 1 else "M"
        raise BinaryFormatError(f"{path}: header field {name!r} = {header[name]}: {exc}") from None
    return header, grid, end


def write_field(path, field: TensorField) -> None:
    grid = field.grid
    header = FIELD_MAGIC + struct.pack(
        "<IIII", VERSION, grid.n, grid.points_per_axis, field.fiber_dim
    )
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def read_field(path) -> TensorField:
    blob = Path(path).read_bytes()
    header, grid, offset = _read_header(
        path, blob, FIELD_MAGIC, "field", "<IIII", ("version", "n", "M", "d")
    )
    d = header["d"]
    expect = grid.points_per_axis**grid.n * d * 8
    payload = blob[offset:]
    if len(payload) != expect:
        raise BinaryFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expect}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape + (d,)).copy()
    return TensorField(grid, values)


def write_multiplier_grid(path, grid: TorusGrid, table: np.ndarray) -> None:
    if table.shape[: grid.n] != grid.shape or table.ndim != grid.n + 2:
        raise BinaryFormatError("table shape does not match grid + (rows, cols)")
    rows, cols = table.shape[-2:]
    is_complex = np.iscomplexobj(table)
    header = MULTIPLIER_MAGIC + struct.pack(
        "<IIIIIB", VERSION, grid.n, grid.points_per_axis, rows, cols, 1 if is_complex else 0
    )
    dtype = "<c16" if is_complex else "<f8"
    payload = np.ascontiguousarray(table, dtype=dtype).tobytes()
    Path(path).write_bytes(header + payload)


def read_multiplier_grid(path):
    blob = Path(path).read_bytes()
    header, grid, offset = _read_header(
        path, blob, MULTIPLIER_MAGIC, "multiplier", "<IIIIIB",
        ("version", "n", "M", "rows", "cols", "complex"),
    )
    rows, cols = header["rows"], header["cols"]
    dtype = "<c16" if header["complex"] else "<f8"
    itemsize = 16 if header["complex"] else 8
    expect = grid.points_per_axis**grid.n * rows * cols * itemsize
    payload = blob[offset:]
    if len(payload) != expect:
        raise BinaryFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expect}"
        )
    table = np.frombuffer(payload, dtype=dtype).reshape(grid.shape + (rows, cols)).copy()
    return grid, table
