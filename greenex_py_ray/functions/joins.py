"""Join strategies.

Two implementations, chosen by how the metric rows relate to the
documents:

* ``append_metrics`` — for kernels that emit exactly one row per input
  row, in input order (zonal, nearest-centroid, isochrone and coverage
  kernels).  One actor stage decodes each raw document batch, runs the
  kernel on it and appends the kernel's columns to the same batch: one
  read, no exchange, and the ``spans`` payload never leaves its batch.
  Row count and key column are checked per batch, so a kernel that drops
  or reorders rows raises instead of losing documents.  Each kernel's
  stage is defined once as a ``KernelStage`` (class, constructor kwargs,
  pool wiring) that runs either here, on the documents, or over decoded
  PoI rows (``KernelStage.on``).
* ``bucket_join_attach`` — every keyed join (inner / left outer attach,
  semi, anti) as one :func:`~.exchange.bucket_exchange`: tag each side
  with ``__side``, align schemas with typed null columns, ``union`` →
  per-bucket Arrow-native index merge (``take`` on each side, column
  hstack).  Used for keyed many→one attaches (per-PoI rollups of
  per-sample or per-tile rows) onto tables carrying nested columns (the
  ``spans`` list<struct> payload, which Arrow's join kernel rejects:
  "not supported in join non-key field") and for flat tables alike.
  Nested values never round-trip through pandas/python, so span bytes
  stay identical.  One all-to-all exchange of both sides.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..sources.documents import DecodeGeom, shift_coords
from .exchange import bucket_exchange


def cluster_cpus(default: int = 8) -> int:
    """Logical CPUs of the current Ray cluster (``default`` when Ray is
    not initialised / unreachable) — the one shared detection point for
    every pool-sizing heuristic."""
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


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


class _AppendKernel:
    """Actor body of :func:`append_metrics`: one kernel instance (its
    tile cache / index lives as long as the actor)."""

    def __init__(self, kernel_cls, kernel_kwargs: dict, columns, decode,
                 shift: tuple[float, float]):
        self.kernel = kernel_cls(**kernel_kwargs)
        self.decode = decode if decode is not None else DecodeGeom()
        self.columns = columns
        self.shift = shift

    def __call__(self, batch: pa.Table) -> pa.Table:
        pts = shift_coords(self.decode(batch), *self.shift,
                           xcols=("x", "ring_x"), ycols=("y", "ring_y"))
        return append_columns(batch, self.kernel(pts), self.columns)


class KernelStage(NamedTuple):
    """The one definition of a one-row-per-PoI kernel's actor stage:
    its class, constructor kwargs and ``map_batches`` wiring (batch
    size, pool, CPUs).  :meth:`on` runs it over decoded PoI rows (the
    metric-table pipelines); :func:`append_metrics` runs it on raw
    documents (the span-preserving API)."""

    cls: type
    kwargs: dict
    map_kwargs: dict

    def on(self, poi: "ray.data.Dataset") -> "ray.data.Dataset":
        return poi.map_batches(self.cls, fn_constructor_kwargs=self.kwargs,
                               batch_format="pyarrow", **self.map_kwargs)


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
    ``doc_id``).  The decoded coordinates are not kept.  The stage's
    ``map_kwargs`` (pool width, CPUs, ``batch_size``) go to
    ``map_batches``."""
    return docs.map_batches(
        _AppendKernel,
        fn_constructor_kwargs=dict(
            kernel_cls=stage.cls, kernel_kwargs=stage.kwargs,
            columns=columns, decode=decode, shift=shift),
        batch_format="pyarrow", zero_copy_batch=True, **stage.map_kwargs,
    )


def as_pool(concurrency) -> tuple[int, int]:
    """Normalize a concurrency spec to an autoscaling (min, max) pool.

    Fixed-size pools reserve all their CPUs up front; on small clusters
    two fixed pools can starve the shuffle tasks and deadlock the
    streaming executor — (1, N) lets Ray scale each pool to available
    resources."""
    if isinstance(concurrency, tuple):
        return concurrency
    if concurrency is None:
        cpus = cluster_cpus()
        # a nonzero minimum matters: Ray's autoscaling pools ramp far
        # too slowly to use a 32-CPU box within a short pipeline (we
        # measured effective parallelism stuck at the pool minimum)
        return (max(1, cpus // 8), max(2, cpus // 2))
    return (1, max(1, int(concurrency)))


def heavy_pool(concurrency=None) -> dict:
    """map_batches kwargs for THE dominant compute stage of a pipeline.

    Fixed-size pool at ~full cluster width with a whole CPU per actor:
    Ray's autoscaling pools stay at their minimum in practice (measured
    parallelism == pool min), so the one stage that owns the wall-clock
    gets all-but-two CPUs reserved up front.  Rule: at most ONE heavy
    pool per pipeline — the two spare CPUs keep reads/shuffles moving.
    """
    if isinstance(concurrency, tuple):
        # a tuple spec pins the pool at its MAX (heavy stages need a
        # fixed pool; silently ignoring the caller's width made a
        # (1, 4) gate spec into a 16-actor pool whose ramp dominated
        # small inputs)
        concurrency = concurrency[-1]
    if concurrency is not None:
        # one CPU stays free: a fixed pool holding every CPU starves the
        # read tasks that feed it, and the pipeline hangs
        n = max(1, min(int(concurrency), cluster_cpus() - 1))
        return dict(concurrency=(n, n), num_cpus=1)
    # half the cluster: the dominant kernel still needs its FEED stages
    # (read/decode tasks at 1 CPU each) to run wide, or the pool starves
    import os

    env = os.environ.get("GREENEX_HEAVY_WIDTH")
    if env:  # A/B knob for pool-width experiments (see BASELINE.md)
        n = max(1, int(env))
    else:
        n = max(1, cluster_cpus() // 2)
    return dict(concurrency=(n, n), num_cpus=1)
