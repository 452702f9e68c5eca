"""JSON wire helpers: complex matrices as [re, im] pairs, deterministic dumps.

Reports must be byte-identical across identical invocations, so floats are
emitted with a fixed ``%.17g`` format (17 significant digits round-trips any
double exactly) instead of whatever ``repr`` feels like.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import SchemaError

__all__ = [
    "matrix_to_pairs",
    "matrix_from_pairs",
    "dumps_report",
    "sha256_hex",
]


def matrix_to_pairs(m) -> list:
    """Complex matrix -> row-major nested lists of [re, im] pairs."""
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_pairs(obj, path: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Parse the [re, im]-pair encoding, reporting the offending JSON path."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, "expected a non-empty array of matrix rows")
    nrows = len(obj)
    if rows is not None and nrows != rows:
        raise SchemaError(path, f"expected {rows} rows, got {nrows}")
    width = None
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{path}/{i}", "expected a non-empty array of [re, im] pairs")
        if width is None:
            width = len(row)
            if cols is not None and width != cols:
                raise SchemaError(f"{path}/{i}", f"expected {cols} columns, got {width}")
        elif len(row) != width:
            raise SchemaError(f"{path}/{i}", f"ragged row: expected {width} entries, got {len(row)}")
        parsed = []
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise SchemaError(f"{path}/{i}/{j}", "expected an [re, im] pair of numbers")
            try:
                re, im = float(pair[0]), float(pair[1])
            except OverflowError:  # an integer beyond the double range
                re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise SchemaError(f"{path}/{i}/{j}", "expected finite numbers")
            parsed.append(complex(re, im))
        out.append(parsed)
    return np.array(out, dtype=np.complex128)


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    return format(float(x), ".17g")


def _emit(obj, parts: list) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant digits."""
    parts: list = []
    _emit(obj, parts)
    return "".join(parts)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
