"""Join strategies.

Two implementations, chosen by how the metric rows relate to the
documents:

* ``append_metrics`` — for kernels that emit exactly one row per input
  row, in input order (zonal, nearest-centroid, isochrone, coverage,
  viewshed and streetview kernels).  One task stage decodes each raw
  document batch, runs the kernel on it and appends the kernel's
  columns to the same batch: no exchange, and the ``spans`` payload
  never leaves its batch.  A ``fused`` stage (a kernel cheap per row
  next to a task's own cost: the point zonal and nearest-centroid
  kernels) maps whole blocks at one CPU, so on a
  ``read_documents(fused=True)`` input Ray fuses it into the read: one
  task per read task, which reads, decodes and runs the kernel, and no
  object-store hop before the result.  The other stages keep their own
  batch size and CPUs, so a costly kernel is balanced over the read's
  split blocks (about two per CPU).
  Row count and key column are checked per batch, so a kernel that drops
  or reorders rows raises instead of losing documents.  Each kernel's
  stage is defined once as a ``KernelStage`` (class, constructor kwargs,
  task wiring) that runs either here, on the documents, or over any
  other dataset (``KernelStage.on``: decoded PoI rows, gate tables);
  every stateful stage of the package is one.  Both run the same task
  function, which keeps the last kernel it built in its worker process,
  keyed by class and constructor kwargs (paths stamped with their
  files' mtime and size): the next call of the same stage reuses that
  kernel's tile cache, SAT tables and indexes instead of building them
  again.
* ``bucket_join_attach`` — every keyed join (inner / left outer attach,
  semi, anti) as one :func:`~.exchange.bucket_exchange`: tag each side
  with ``__side``, align schemas with typed null columns, ``union`` →
  per-bucket Arrow-native index merge (``take`` on each side, column
  hstack).  Used for keyed many→one attaches (graph labels, cell
  neighbourhoods, text pairs) onto tables carrying nested columns (the
  ``spans`` list<struct> payload, which Arrow's join kernel rejects:
  "not supported in join non-key field") and for flat tables alike.
  Nested values never round-trip through pandas/python, so span bytes
  stay identical.  One all-to-all exchange of both sides.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray import cloudpickle

from ..sources.documents import DecodeGeom, shift_coords
from .exchange import bucket_exchange


def cluster_cpus() -> int:
    """Logical CPUs of the current Ray cluster (8 when Ray is not
    initialised / unreachable) — the one shared detection point for
    every width-derived value (bucket and block counts)."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def bucket_join_attach(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str = "doc_id",
    num_buckets: int | None = None,
    left_fields: "list[pa.Field] | None" = None,
    right_fields: "list[pa.Field] | None" = None,
    right_key: str | None = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Keyed join of ``left`` with ``right`` (on ``left[key] ==
    right[right_key]``, default the same name) over one
    :func:`bucket_exchange`; null keys never match.

    ``how="inner"`` / ``"left_outer"`` attach ``right``'s non-key
    columns to ``left`` (right keys must be unique: metric tables are
    keyed by doc; a left row without a match is dropped / gets nulls).
    ``how="semi"`` / ``"anti"`` keep the ``left`` rows with / without a
    key match and attach nothing (right keys may repeat).  Nested left
    payloads are supported: rows only move by Arrow ``take``."""
    if how not in ("inner", "left_outer", "semi", "anti"):
        raise ValueError(f"unsupported join kind {how!r}")
    right_key = right_key or key
    if num_buckets is None:
        # scale bucket count with the left payload (each bucket becomes
        # ONE in-memory pa.Table inside map_groups, so a fixed cap would
        # bound parallelism and grow per-bucket memory with data size);
        # floor at the cluster width so small inputs still parallelize.
        # size_bytes() EXECUTES a lazy lineage (measured ~1 s extra per
        # join at bench scale), so the estimate is read only from inputs
        # that already know their size: materialized datasets and
        # metadata-backed reads.
        est = 0
        try:
            from ray.data.dataset import MaterializedDataset

            if isinstance(left, MaterializedDataset):
                est = left.size_bytes() or 0
        except Exception:
            est = 0
        by_bytes = est // (128 << 20)  # ~128 MB of payload per bucket
        num_buckets = int(min(4096, max(2 * max(2, cluster_cpus() // 2),
                                        by_bytes)))
    # .schema() on a LAZY side executes part of its pipeline just for
    # the probe (measured ~2 s on the flagship); callers that know their
    # schemas pass them explicitly to skip it
    if left_fields is None:
        lschema = left.schema()
        left_fields = [pa.field(n, t)
                       for n, t in zip(lschema.names, lschema.types)]
    if how in ("semi", "anti"):
        right_fields = []
    elif right_fields is None:
        rschema = right.schema()
        right_fields = [pa.field(n, t)
                        for n, t in zip(rschema.names, rschema.types)]
    lfields = [f for f in left_fields if f.name != key]
    rfields = [f for f in right_fields if f.name != right_key]
    lnames = [f.name for f in lfields]
    rnames = [f.name for f in rfields]
    dup = set(lnames) & set(rnames)
    if dup:
        raise ValueError(f"overlapping non-key columns: {dup}")

    names = [key] + lnames + rnames + ["__side"]
    types = {f.name: f.type for f in lfields + rfields}

    def tag(side: int, side_key: str, own: list[str]):
        # one map per side: the key under the left's name, the side's
        # own columns, typed nulls for the other side's
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table(
                [batch.column(side_key)]
                + [batch.column(c) if c in own else pa.nulls(n, types[c])
                   for c in lnames + rnames]
                + [pa.array(np.full(n, side, dtype=np.int8))], names=names)
        return fn

    sides = [left.map_batches(tag(0, key, lnames), batch_format="pyarrow",
                              zero_copy_batch=True),
             right.map_batches(tag(1, right_key, rnames),
                               batch_format="pyarrow", zero_copy_batch=True)]

    def merge(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        lt = tbl.filter(pa.array(side == 0))
        rt = tbl.filter(pa.array(side == 1))
        rt = rt.filter(rt.column(key).is_valid())
        lk = pd.Index(lt.column(key).to_pandas())
        rk = pd.Index(rt.column(key).to_pandas())
        if how in ("semi", "anti"):
            hit = np.asarray(lk.isin(rk))
            keep = hit if how == "semi" else ~hit
            return lt.filter(pa.array(keep)).select([key] + lnames)
        pos = rk.get_indexer(lk)
        if how == "inner":
            hit = pos >= 0
            lt = lt.take(pa.array(np.flatnonzero(hit)))
            pos = pos[hit]
        rt = rt.take(pa.array(pos, mask=pos < 0))
        return pa.table([lt.column(n) for n in [key] + lnames]
                        + [rt.column(n) for n in rnames],
                        names=[key] + lnames + rnames)

    return bucket_exchange(sides, key, merge, num_buckets)


def append_columns(batch: pa.Table, out: pa.Table,
                   columns: "list[str] | None" = None) -> pa.Table:
    """``batch`` with ``out``'s ``columns`` (default: all but ``doc_id``)
    appended.  ``out`` must hold one row per ``batch`` row, in the same
    order, with an equal ``doc_id`` column; anything else raises (a keyed
    inner join would silently drop the unmatched documents)."""
    if out.num_rows != batch.num_rows:
        raise ValueError(
            f"kernel emitted {out.num_rows} rows for {batch.num_rows} "
            "input rows; append_metrics needs one row per input row")
    if not out.column("doc_id").equals(batch.column("doc_id")):
        raise ValueError(
            "kernel output 'doc_id' differs from the input's row for row; "
            "append_metrics needs the input row order")
    names = ([n for n in out.column_names if n != "doc_id"]
             if columns is None else list(columns))
    dup = set(names) & set(batch.column_names)
    if dup:
        raise ValueError(f"overlapping non-key columns: {dup}")
    for n in names:
        batch = batch.append_column(n, out.column(n))
    return batch


#: this worker process's kernel: ``(key, instance)`` of the last stage
#: it ran, so the next call of the same stage reuses its tile / SAT
#: caches and indexes instead of rebuilding them
_KERNEL: "tuple | None" = None


def _run_kernel(batch: pa.Table, cls, kwargs: dict, key,
                append=None) -> pa.Table:
    """Task body of every :class:`KernelStage`: the process's cached
    kernel for ``key`` (built on a miss) applied to ``batch``, or, with
    ``append=(columns, decode, shift, size)``, to each ``size``-row
    slice of the batch (the whole batch when ``size`` is None), decoded
    and shifted, its columns appended to the slice
    (:func:`append_metrics`)."""
    global _KERNEL
    if _KERNEL is None or _KERNEL[0] != key:
        _KERNEL = None  # drop the old kernel before building the new one
        _KERNEL = (key, cls(**kwargs))
    kernel = _KERNEL[1]
    if append is None:
        return kernel(batch)
    columns, decode, shift, size = append
    step = size or batch.num_rows or 1
    out = []
    for lo in range(0, batch.num_rows or 1, step):
        part = batch.slice(lo, step)
        pts = shift_coords(decode(part), *shift,
                           xcols=("x", "ring_x"), ycols=("y", "ring_y"))
        out.append(append_columns(part, kernel(pts), columns))
    return pa.concat_tables(out)


def _path_stamp(path: str) -> tuple:
    """``(file, mtime_ns, size)`` of the file ``path`` or of every file
    under the directory ``path``, so a store rewritten in place gets a
    new cache key."""
    files = ([path] if os.path.isfile(path) else sorted(
        os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs))
    out = []
    for f in files:
        st = os.stat(f)
        out.append((f, st.st_mtime_ns, st.st_size))
    return tuple(out)


def _freeze(v):
    """A hashable form of a constructor kwarg that compares by value in
    any process: dicts and lists become tuples, an ``ObjectRef`` its id,
    an existing path the path plus its :func:`_path_stamp`, any other
    object but a plain value or class its pickled bytes."""
    if isinstance(v, dict):
        return ("dict",) + tuple((k, _freeze(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return ("seq",) + tuple(_freeze(x) for x in v)
    if isinstance(v, ray.ObjectRef):
        return ("ref", v.hex())
    if isinstance(v, str) and os.path.exists(v):
        return ("path", v, _path_stamp(v))
    if v is None or isinstance(v, (str, bytes, int, float, bool, type)):
        return v
    return ("pickled", cloudpickle.dumps(v))


class KernelStage(NamedTuple):
    """The one definition of a stateful per-batch stage: its kernel
    class, constructor kwargs, ``map_batches`` wiring (batch size and
    CPUs; Ray schedules the tasks over the cluster's CPUs, and a task
    gives its CPU back when it ends, so it cannot starve its feed;
    ``batch_format`` and ``zero_copy_batch`` override the zero-copy
    pyarrow defaults) and whether :func:`append_metrics` runs it inside
    the read task (``fused``).  Both callers run
    :func:`_run_kernel` tasks: :meth:`on` over any dataset (the
    metric-table pipelines and every other stage), :func:`append_metrics`
    on raw documents (the span-preserving API).  The kernel cache key
    (:attr:`key`) is computed once here, in the calling process."""

    cls: type
    kwargs: dict
    map_kwargs: dict
    fused: bool = False

    @property
    def key(self) -> tuple:
        """The kernel cache key: the class plus its frozen kwargs."""
        return (self.cls, _freeze(self.kwargs))

    def _map(self, ds: "ray.data.Dataset", append=None) -> "ray.data.Dataset":
        kw = {"batch_format": "pyarrow", "zero_copy_batch": True,
              **self.map_kwargs}
        if append is not None:
            size = None
            if self.fused:
                # whole read blocks at the read's one CPU, so Ray fuses
                # the map into the read task; the kernel still sees at
                # most batch_size rows at a time
                size = kw.pop("batch_size", None)
                kw.pop("num_cpus", None)
            append = (*append, size)
        return ds.map_batches(
            _run_kernel,
            fn_kwargs=dict(cls=self.cls, kwargs=self.kwargs, key=self.key,
                           append=append),
            **kw)

    def on(self, poi: "ray.data.Dataset") -> "ray.data.Dataset":
        return self._map(poi)


def append_metrics(
    docs: "ray.data.Dataset",
    stage: KernelStage,
    columns: "list[str] | None" = None,
    decode=None,
    shift: tuple[float, float] = (0.0, 0.0),
) -> "ray.data.Dataset":
    """Documents with a one-row-per-row kernel's metric columns appended.

    Per raw document batch: ``decode`` (a ``DecodeGeom``, default
    point decode) → translate the decoded coordinates by ``shift`` into
    the tile store's frame → the ``stage`` kernel (keyed by ``doc_id``)
    → the input batch plus the kernel's ``columns`` (default: all but
    ``doc_id``).  The decoded coordinates are not kept.  A
    :attr:`~KernelStage.fused` stage maps whole blocks at the read's one
    CPU, so Ray fuses it into a ``read_documents(fused=True)`` read task,
    and its ``batch_size`` caps the rows of each kernel call inside the
    task; any other stage's ``map_kwargs`` (CPUs, ``batch_size``) go to
    ``map_batches``."""
    return stage._map(docs, append=(
        columns, decode if decode is not None else DecodeGeom(), shift))


def drop_zero_count(ds: "ray.data.Dataset", column: str) -> "ray.data.Dataset":
    """The rows of ``ds`` whose count ``column`` is positive: a kernel
    that emits one row per input row reports an empty input (no sample
    point, no pixel) as a zero count, where a keyed rollup has no row."""
    return ds.filter(expr=f"{column} > 0")
