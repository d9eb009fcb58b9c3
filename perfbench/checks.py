"""Output checks: order-free fingerprints and sampled metric parity.

Pure numpy/pyarrow.  The fingerprints are sums (mod 2**64) of a 64-bit
mix of each row, so they do not depend on row or block order but change
when a row is lost, duplicated or altered.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_P = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
               0x27D4EB2F165667C5, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53],
              dtype=np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _hash(arr) -> np.ndarray:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        vals = np.asarray(pc.fill_null(arr, "\x00").to_pylist(), dtype=object)
    else:
        vals = arr.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(vals)


def _sum64(h: np.ndarray) -> int:
    return int(np.add.reduce(h, dtype=np.uint64)) if len(h) else 0


def id_fingerprint(doc_ids) -> int:
    """Order-free fingerprint of a key column."""
    return _sum64(_mix(_hash(doc_ids)))


def rows_fingerprint(doc_ids, spans) -> int:
    """Order-free fingerprint of ``(doc_id, spans)`` rows.  Span order
    within a row and every span field count."""
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths.astype(np.float64)).astype(np.int64)
    flat = spans.flatten()
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    parent = np.repeat(np.arange(len(lengths)), lengths)
    local = np.arange(len(parent)) - starts[parent]
    h = np.zeros(len(parent), dtype=np.uint64)
    for i, name in enumerate(f.name for f in flat.type):
        h += _hash(flat.field(name)) * _P[i % 4]
    h += (local.astype(np.uint64) + np.uint64(1)) * _P[4]
    row = np.zeros(len(lengths), dtype=np.uint64)
    np.add.at(row, parent, _mix(h))
    row += lengths.astype(np.uint64) * _P[5]
    return _sum64(_mix(_hash(doc_ids) ^ _mix(row)))


def _tie(x: float, digits: int) -> bool:
    """True when ``x`` sits within float noise of a rounding boundary,
    where two summation orders may legitimately round apart."""
    scaled = abs(x) * 10.0 ** digits
    return abs(scaled - np.floor(scaled) - 0.5) < 1e-6


def close_rounded(got, raw: float, digits: int) -> bool:
    """``got`` equals ``raw`` rounded to ``digits``, allowing either
    neighbour only at a rounding tie."""
    if got is None or raw is None or not np.isfinite(raw):
        return got is None and (raw is None or not np.isfinite(raw))
    if got == float(np.round(raw, digits)):
        return True
    return _tie(raw, digits) and abs(got - raw) <= 0.5 * 10.0 ** -digits + 1e-9


def check_metrics(tbl: pa.Table, expected: dict, columns: dict) -> list[str]:
    """Compare sampled keys.  ``expected`` maps doc_id → list of raw
    values; ``columns`` maps result column → (index into that list,
    rounding digits, or None for an exact comparison)."""
    keys = list(expected)
    sub = tbl.filter(pc.is_in(tbl.column("doc_id"), pa.array(keys)))
    errors = []
    if sub.num_rows != len(keys):
        errors.append(f"sampled keys: {sub.num_rows} of {len(keys)} present")
    got = {c: sub.column(c).to_pylist() for c in columns}
    for i, k in enumerate(sub.column("doc_id").to_pylist()):
        for c, (j, digits) in columns.items():
            want = expected[k][j]
            v = got[c][i]
            ok = (v == want) if digits is None else close_rounded(v, want, digits)
            if not ok:
                errors.append(f"{k}.{c}: got {v!r}, expected {want!r}")
    return errors[:10]


def check_result(tbl: pa.Table, expect: dict, columns: dict) -> list[str]:
    """Every input doc_id exactly once, spans untouched, sampled metric
    values equal to the independent recompute."""
    errors = []
    n = expect["n"]
    ids = tbl.column("doc_id")
    if tbl.num_rows != n:
        errors.append(f"rows: {tbl.num_rows} != {n}")
    distinct = pc.count_distinct(ids).as_py()
    if distinct != tbl.num_rows:
        errors.append(f"duplicate doc_id: {tbl.num_rows - distinct} extra rows")
    if str(id_fingerprint(ids)) != expect["ids_fp"]:
        errors.append("doc_id set differs from the input")
    if str(rows_fingerprint(ids, tbl.column("spans"))) != expect["rows_fp"]:
        errors.append("(doc_id, spans) fingerprint differs from the input")
    return errors + check_metrics(tbl, expect["sample"], columns)
