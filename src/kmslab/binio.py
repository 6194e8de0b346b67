"""Version-tagged binary container for field snapshots.

Field container (magic ``KMSF``, version 1), little-endian::

    4 bytes   magic b"KMSF"
    u32       version = 1
    u32       n  (ambient dimension)
    u32       M  (points per axis)
    u32       d  (fiber dimension)
    f64[...]  values, C order, shape (M,)*n + (d,)
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .torus import TensorField, TorusGrid

__all__ = [
    "write_field",
    "read_field",
    "BinaryFormatError",
]

FIELD_MAGIC = b"KMSF"
VERSION = 1
_HEADER = "<IIII"
_HEADER_NAMES = ("version", "n", "M", "d")


class BinaryFormatError(ValueError):
    pass


def write_field(path, field: TensorField) -> None:
    grid = field.grid
    header = FIELD_MAGIC + struct.pack(
        _HEADER, VERSION, grid.n, grid.points_per_axis, field.fiber_dim
    )
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def read_field(path) -> TensorField:
    """Read a KMSF container; a malformed one raises BinaryFormatError naming the path."""
    blob = Path(path).read_bytes()
    if blob[:4] != FIELD_MAGIC:
        raise BinaryFormatError(f"{path}: not a field container (bad magic)")
    offset = 4 + struct.calcsize(_HEADER)
    if len(blob) < offset:
        name = _HEADER_NAMES[(len(blob) - 4) // 4]
        raise BinaryFormatError(f"{path}: header truncated at field {name!r} ({len(blob)} bytes)")
    header = dict(zip(_HEADER_NAMES, struct.unpack(_HEADER, blob[4:offset])))
    if header["version"] != VERSION:
        raise BinaryFormatError(f"{path}: unsupported version {header['version']}")
    try:
        grid = TorusGrid(header["n"], header["M"])
    except ValueError as exc:
        name = "n" if header["n"] < 1 else "M"
        raise BinaryFormatError(f"{path}: header field {name!r} = {header[name]}: {exc}") from None
    d = header["d"]
    expect = grid.points_per_axis**grid.n * d * 8
    payload = blob[offset:]
    if len(payload) != expect:
        raise BinaryFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expect}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape + (d,)).copy()
    return TensorField(grid, values)
