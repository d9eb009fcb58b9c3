"""The one keyed exchange and the one placement hash.

Every shuffle in the engine that only needs "all rows of a key meet in
one place" runs through :func:`bucket_exchange`: append ``__bucket =
stable_bucket(key) % num_buckets`` to each batch, then
``groupby("__bucket").map_groups(kernel)``.  A bucket holds many keys,
so the kernel is vectorized over all of them (one call per bucket, not
per key), and the sort-based groupby has ``num_buckets`` groups.

The placement hash is a function of the key value alone: integers hash
as int64 values whatever their width and whether or not the batch holds
a null, nulls go to one fixed bucket, strings hash as pandas' siphash of
the value.  So a key lands in the same bucket in every batch, on every
worker and in every run — which joins (both sides must agree) and
``lineage.resumable_write`` (partition ids must survive a restart) rely
on.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

#: hash of a null key (pandas' hash of a null string): one fixed bucket
_NULL_HASH = np.uint64(np.iinfo(np.uint64).max)


def _column_hash(keys: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """uint64 hash per value of one Arrow key column."""
    null = keys.is_null().to_numpy(zero_copy_only=False)
    if pa.types.is_integer(keys.type):
        vals = pc.fill_null(keys, 0).cast(
            pa.int64(), safe=False).to_numpy(zero_copy_only=False)
    else:
        vals = keys.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(vals)
    if null.any():
        h[null] = _NULL_HASH
    return h


def stable_bucket(cols: list, num_buckets: int) -> np.ndarray:
    """Bucket in ``[0, num_buckets)`` of each row's key: the Arrow key
    columns ``cols`` (one, or several hashed together)."""
    h = _column_hash(cols[0])
    with np.errstate(over="ignore"):
        for col in cols[1:]:
            h = h * np.uint64(1000003) ^ _column_hash(col)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def bucket_exchange(ds, key, kernel, num_buckets: int,
                    batch_format: str = "pyarrow") -> "ray.data.Dataset":
    """Run ``kernel`` once per hash bucket of ``key`` (a column name or a
    list of them): every row of a key reaches the same kernel call.  The
    kernel sees the ``__bucket`` column (constant within a call).

    ``ds`` is a Dataset or a list of Datasets with the key columns (the
    sides of a join); each side appends ``__bucket`` in a map that fuses
    with its own last map, then the sides are unioned."""
    cols = key if isinstance(key, list) else [key]

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = stable_bucket([batch.column(c) for c in cols], num_buckets)
        return batch.append_column("__bucket", pa.array(b))

    sides = [d.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
             for d in (ds if isinstance(ds, list) else [ds])]
    return (sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]) \
        .groupby("__bucket").map_groups(kernel, batch_format=batch_format)
