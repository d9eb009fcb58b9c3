"""Per-partition lineage manifests + checkpoint-resumable writes.

The reference has no checkpointing at all (SURVEY §4: interactive
``input()`` filenames, no resume).  The north rule requires partitioned,
resumable output with per-partition lineage.

Layout::

    out_dir/
      part-{partition:05d}.parquet      # one file per key-hash bucket
      _manifest/partition-{i}.json      # written AFTER the part file

A partition's manifest row records row count, value checksum, wall time
and file bytes.  Output is deterministic because partitions are
key-hash buckets (``exchange.stable_bucket``), not execution order.

What resume skips: ``resumable_write`` skips partitions whose manifest
row already exists, so a killed run re-does only missing partitions.
The dataset it is handed is still executed in full (the upstream
pipeline re-runs); the hash split drops the rows of completed
partitions in each block's split task, so only the missing partitions'
rows are moved to writers and written, and completed part files are not
touched.
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from .functions.exchange import stable_bucket
from .functions.joins import cluster_cpus


def _checksum(tbl: pa.Table) -> int:
    """Order-free value checksum: crc32 of the table's IPC stream with
    its rows in one canonical order — by the first column, and rows that
    share a first-column value by the crc32 of their own values, so
    duplicate keys in any order give one checksum.  Rows whose keys
    already strictly increase (the key-sorted partitions of
    :func:`resumable_write`) are in that order and are not sorted
    again."""
    if tbl.num_rows == 0:
        return 0
    key = tbl.column(0).combine_chunks()
    if key.null_count or not pc.all(pc.less(key[:-1], key[1:]),
                                    min_count=0).as_py():
        codes = pc.fill_null(pc.dictionary_encode(key).indices,
                             -1).to_numpy() + 1
        tie = np.zeros(tbl.num_rows, dtype=np.int64)
        for i in np.flatnonzero(np.bincount(codes)[codes] > 1):
            tie[i] = zlib.crc32(repr(tbl.slice(i, 1).to_pylist()).encode())
        order = pc.sort_indices(
            pa.table({"key": key, "tie": tie}),
            sort_keys=[("key", "ascending"), ("tie", "ascending")])
        tbl = tbl.take(order)
    tbl = tbl.combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return zlib.crc32(sink.getvalue().to_pybytes())


def write_partition(tbl: pa.Table, out_dir: str, partition: int) -> dict:
    """Atomic partition write: temp file → rename, then manifest row."""
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    t0 = time.time()
    final = os.path.join(out_dir, f"part-{partition:05d}.parquet")
    tmp = final + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, final)
    row = {
        "partition_id": partition,
        "row_count": tbl.num_rows,
        "checksum": _checksum(tbl),
        "wall_ms": int((time.time() - t0) * 1000),
        "bytes": os.path.getsize(final),
    }
    mpath = os.path.join(out_dir, "_manifest", f"partition-{partition}.json")
    with open(mpath + ".tmp", "w") as f:
        json.dump(row, f)
    os.replace(mpath + ".tmp", mpath)
    return row


def completed_partitions(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for name in os.listdir(mdir):
        if name.startswith("partition-") and name.endswith(".json"):
            done.add(int(name[len("partition-"):-len(".json")]))
    return done


def read_manifest(out_dir: str) -> list[dict]:
    mdir = os.path.join(out_dir, "_manifest")
    rows = []
    for p in sorted(completed_partitions(out_dir)):
        with open(os.path.join(mdir, f"partition-{p}.json")) as f:
            rows.append(json.load(f))
    return rows


@ray.remote
def _split(block: pa.Table, key: str, num_partitions: int,
           writer_of: np.ndarray):
    """One block's rows as one piece per writer, with their ``__bucket``:
    bucket ``b``'s rows go to writer ``writer_of[b]``, and rows of
    completed buckets (``-1``) are dropped."""
    n = int(writer_of.max()) + 1
    if block.num_rows == 0:
        return block if n == 1 else [block] * n
    bucket = stable_bucket([block.column(key)], num_partitions)
    writer = writer_of[bucket]
    order = np.argsort(writer, kind="stable")
    bounds = np.searchsorted(writer[order], np.arange(n + 1))
    block = block.append_column("__bucket", pa.array(bucket))
    pieces = [block.take(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return pieces[0] if n == 1 else pieces


@ray.remote
def _write(out_dir: str, key: str, buckets: list[int],
           *pieces: pa.Table) -> None:
    """Write each of ``buckets`` that has rows in ``pieces`` (this
    writer's piece of every block) as one key-sorted partition."""
    pieces = [p for p in pieces if p.num_rows]
    if not pieces:
        return
    tbl = pa.concat_tables(pieces, promote_options="default")
    bucket = tbl.column("__bucket").to_numpy()
    tbl = tbl.drop_columns(["__bucket"])
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], [buckets, np.add(buckets, 1)])
    for part, lo, hi in zip(buckets, *bounds):
        if hi > lo:
            body = tbl.take(order[lo:hi])
            body = body.take(pc.sort_indices(body.column(key)))
            write_partition(body, out_dir, part)


def resumable_write(ds: "ray.data.Dataset", out_dir: str, key: str,
                    num_partitions: int = 32) -> list[dict]:
    """Write ``ds`` as ``num_partitions`` key-hash bucket files with
    manifests, skipping buckets already completed by a previous run.

    The bucket assignment is a pure function of the key → a restarted
    run reproduces identical partition contents regardless of block
    order (rows are sorted by key within each partition file).  One
    hash split per block of ``ds`` sends each to-do bucket's rows to one
    of ``min(cluster CPUs, to-do buckets)`` writer tasks; nothing is
    sorted or sampled across blocks."""
    os.makedirs(out_dir, exist_ok=True)
    done = completed_partitions(out_dir)
    todo = [p for p in range(num_partitions) if p not in done]
    if not todo:
        return read_manifest(out_dir)

    blocks = ds.to_arrow_refs()
    # counted after to_arrow_refs, which starts Ray if the caller did not
    n = min(cluster_cpus(), len(todo))
    writer_of = np.full(num_partitions, -1, dtype=np.int64)
    writer_of[todo] = np.arange(len(todo)) % n
    split = [_split.options(num_returns=n).remote(b, key, num_partitions,
                                                  writer_of)
             for b in blocks]
    if n == 1:
        split = [[s] for s in split]
    if blocks:
        ray.get([_write.remote(out_dir, key, todo[w::n],
                               *(s[w] for s in split)) for w in range(n)])
    return read_manifest(out_dir)


def partition_checksum(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-partition content checksum — the audit/reconciliation table
    a resumable run compares across attempts (and across engines): one
    row per spatial cell with the doc count, the id range, and an
    ORDER-FREE 64-bit checksum (XOR of every doc's content
    fingerprint).  XOR is commutative/associative, so the checksum is
    identical no matter how blocks were partitioned, retried or
    reordered — any lost, duplicated or mutated row flips it.

    Scale shape: each batch collapses to O(touched cells) partial rows
    (xor/count/min/max combine in-kernel), one small groupby finishes."""
    from .stages.text import hash_string_array

    def partial(batch: pa.Table) -> pa.Table:
        cell = batch.column("cell").to_numpy(zero_copy_only=False)
        k = batch.column("doc_id").to_numpy(zero_copy_only=False)
        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h = hash_string_array(pc.fill_null(col, "")).view(np.int64)
        order = np.argsort(cell, kind="stable")
        cs, hs, ks = cell[order], h[order], k[order]
        bnd = np.ones(len(cs), dtype=bool)
        bnd[1:] = cs[1:] != cs[:-1]
        starts = np.flatnonzero(bnd)
        ends = np.append(starts[1:], len(cs))
        xor = np.bitwise_xor.reduceat(hs, starts) if len(cs) else \
            np.empty(0, np.int64)
        return pa.table({
            "cell": pa.array(cs[starts]),
            "n_docs": pa.array((ends - starts).astype(np.int64)),
            "checksum": pa.array(xor),
            "min_doc": pa.array(np.minimum.reduceat(ks, starts)),
            "max_doc": pa.array(np.maximum.reduceat(ks, starts)),
        })

    def combine(tbl: pa.Table) -> pa.Table:
        return pa.table({
            "cell": tbl.column("cell").slice(0, 1),
            "n_docs": pa.array([int(
                np.sum(tbl.column("n_docs").to_numpy(zero_copy_only=False)))],
                pa.int64()),
            "checksum": pa.array([int(np.bitwise_xor.reduce(
                tbl.column("checksum").to_numpy(zero_copy_only=False)))],
                pa.int64()),
            "min_doc": pa.array([int(np.min(
                tbl.column("min_doc").to_numpy(zero_copy_only=False)))],
                pa.int64()),
            "max_doc": pa.array([int(np.max(
                tbl.column("max_doc").to_numpy(zero_copy_only=False)))],
                pa.int64()),
        })

    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.groupby("cell").map_groups(combine, batch_format="pyarrow")
