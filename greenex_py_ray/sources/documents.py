"""Interleaved-document source: parquet fragments → Dataset.

The primary input is the spans table fixed by ``BASELINE.json
input_hint``::

    documents(doc_id: string,
              spans: list<struct<kind, text, media_ref, offset>>)

:func:`read_documents` is the one reader of that table, a Ray
``Datasource`` that lists the row groups from the parquet footers in
the calling process (no sampling task) and plans its tasks when Ray
runs the read, from the CPUs of the cluster then running.  Fragments
are taken in sorted order; whole row groups go to ``max(cluster_cpus(),
ceil(bytes / target_max_block_size))`` tasks balanced by row count, so
each row group is read and decompressed once, and a file with fewer row
groups than CPUs runs in fewer tasks.  Each task yields one block per
row group under the file schema without its metadata.  By default Ray
splits those blocks to its read parallelism (about two per CPU for a
small table), as it does for ``read_parquet``, so the next stage is
balanced over them.  ``fused=True`` asks for no split, so Ray fuses the
next ``batch_size=None`` map with the same CPUs into the read task:
:func:`~greenex_py_ray.functions.joins.append_metrics` of a fused stage
decodes and runs its kernel there, and the ``spans`` payload never
crosses the object store before the result.  ``fields`` reads only
those ``spans`` leaves (``kind``/``text`` is all a metrics-only
pipeline needs) and ``limit`` plans only the first rows in file order,
so a limited read picks the same documents on every call.

``DecodeGeom`` extracts each row's first ``kind="geom"`` span, parses
its WKT and appends ``x, y, cell`` (and the ring columns for polygons)
*without touching* the ``spans`` column: spans stream through every
stage and are emitted unchanged.

Replaces the reference's ``gpd.read_file`` + geometry/CRS normalization
(`/root/reference/GreenExp/availability.py:45-143`) with a vectorized
Arrow batch transform.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from .. import cells, geom


def _row_groups(path: str, leaves) -> tuple[list[str], list[tuple]]:
    """The parquet files under ``path`` (a file, or a directory of
    fragments, in sorted order) and ``(file, row group, rows, bytes)``
    of each of their row groups; ``bytes`` is the uncompressed size of
    the ``leaves`` column chunks (all columns when ``None``)."""
    files = sorted(pads.dataset(path, format="parquet").files)
    if not files:
        raise ValueError(f"no parquet files under {path!r}")
    groups = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        for i in range(md.num_row_groups):
            g = md.row_group(i)
            size = sum(g.column(c).total_uncompressed_size
                       for c in range(g.num_columns)
                       if leaves is None
                       or g.column(c).path_in_schema in leaves)
            groups.append((f, i, g.num_rows, size))
    return files, groups


def _first_rows(groups: list[tuple], limit: int | None) -> list[tuple]:
    """The non-empty row groups that hold the first ``limit`` rows (all
    when ``None``), the last one's ``rows`` cut at the limit."""
    kept, total = [], 0
    for f, rg, rows, size in groups:
        if limit is not None:
            rows = min(rows, limit - total)
        if rows > 0:
            kept.append((f, rg, rows, size))
            total += rows
        if limit is not None and total >= limit:
            break
    return kept


def plan_reads(groups: list[tuple], num_tasks: int) -> list[list[tuple]]:
    """The row groups ``groups`` (a limited read's are cut by
    :func:`_first_rows` first), in their order, as at most ``num_tasks``
    tasks of whole row groups near-equal in rows: a group goes to the
    task its middle row falls in, so no group is read by two tasks, and
    there are no more tasks than non-empty groups (one empty task for
    no rows).  Each task is a list of ``(file, row group, rows)`` in row
    order."""
    kept = [g for g in groups if g[2]]
    total = sum(g[2] for g in kept)
    if not total:
        return [[]]
    n = min(num_tasks, len(kept))
    tasks: list[list[tuple]] = [[] for _ in range(n)]
    first = 0
    for f, rg, rows, _ in kept:
        tasks[(2 * first + rows) * n // (2 * total)].append((f, rg, rows))
        first += rows
    return [t for t in tasks if t]


def _project(schema: pa.Schema, fields) -> pa.Schema:
    """``schema`` without its metadata, and with only the ``fields``
    of its ``spans`` elements when ``fields`` is set (the schema of a
    leaf-projected read)."""
    schema = schema.remove_metadata()
    if fields is None:
        return schema
    spans = schema.field("spans")
    item = spans.type.value_field
    elem = pa.struct([item.type.field(n) for n in fields])
    return pa.schema([schema.field("doc_id"),
                      spans.with_type(pa.list_(item.with_type(elem)))])


def _read_groups(groups: list[tuple], columns, schema: pa.Schema):
    """Read task body: one block per ``(file, row group, rows)``, the
    group's first ``rows`` rows (an empty block for a task with
    none)."""
    if not groups:
        yield schema.empty_table()
        return
    path = pf = None
    for f, rg, rows in groups:
        if f != path:
            path, pf = f, pq.ParquetFile(f)
        t = pf.read_row_group(rg, columns=columns)
        yield t.slice(0, rows).replace_schema_metadata(None)


class _DocumentsSource(Datasource):
    """The read of :func:`read_documents`: the row groups are listed
    here, from the footers; the tasks are planned in
    :meth:`get_read_tasks`, when Ray runs the read (and has started, if
    it starts itself), whatever parallelism Ray asks for."""

    def __init__(self, path: str, fields=None, limit: int | None = None):
        self.leaves = (None if fields is None else
                       ["doc_id"] + [f"spans.list.element.{c}" for c in fields])
        files, groups = _row_groups(path, self.leaves)
        self.groups = _first_rows(groups, limit)
        self.bytes = {(f, rg): b for f, rg, _, b in self.groups}
        self.schema = _project(pq.read_schema(files[0]), fields)

    def get_name(self) -> str:
        return "Documents"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self.bytes.values())

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        from ..functions.joins import cluster_cpus

        target = ray.data.DataContext.get_current().target_max_block_size
        size = self.estimate_inmemory_data_size()
        tasks = plan_reads(self.groups, max(
            cluster_cpus(), math.ceil(size / target) if target else 1))
        return [ReadTask(
            functools.partial(_read_groups, groups, self.leaves, self.schema),
            BlockMetadata(num_rows=sum(g[2] for g in groups),
                          size_bytes=sum(self.bytes[f, rg]
                                         for f, rg, _ in groups),
                          exec_stats=None,
                          input_files=sorted({g[0] for g in groups})),
            schema=self.schema) for groups in tasks]


def read_documents(path: str, fields=None, limit: int | None = None,
                   fused: bool = False) -> "ray.data.Dataset":
    """The spans documents table at ``path`` (a parquet file or a
    directory of fragments), read in sorted-fragment order: all columns,
    or ``doc_id`` and only the ``fields`` leaves of each span (for
    pipelines that do not re-emit spans); the first ``limit`` rows only
    when set.  ``fused`` makes one block per read task, for a next map
    that runs inside the read; otherwise Ray splits the tasks' blocks
    to its read parallelism.  See the module docstring for the plan."""
    return ray.data.read_datasource(_DocumentsSource(path, fields, limit),
                                    override_num_blocks=1 if fused else None)


def _first_geoms(spans: pa.ListArray) -> tuple[np.ndarray, pa.Array]:
    """``(rows, texts)``: the rows that hold a ``kind='geom'`` span, in
    order, and the text of each one's first geom span.  Vectorized:
    flatten the list column once, locate geom spans, pick the first per
    parent row via a stable unique pass."""
    flat = spans.flatten()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets -= offsets[0]  # a sliced array's offsets start past 0
    is_geom = np.asarray(pc.equal(flat.field("kind"), "geom").to_numpy(
        zero_copy_only=False), dtype=bool)
    pos = np.flatnonzero(is_geom)
    parents = np.searchsorted(offsets, pos, side="right") - 1
    # first geom span per parent (pos is ascending → first occurrence wins)
    rows, first = np.unique(parents, return_index=True)
    return rows, flat.field("text").take(pa.array(pos[first], pa.int64()))


_POLYGONS = ("POLYGON", "MULTIPOLYGON")


def _check_kind(texts: pa.Array, kind: str) -> None:
    """Raise the reference's mixed-geometry ``TypeError`` unless every
    WKT in ``texts`` has the type ``kind`` (polygons and multipolygons
    count as one type: both decode to rings)."""
    ok = functools.reduce(pc.or_, [
        pc.starts_with(texts, k)
        for k in (_POLYGONS if kind in _POLYGONS else (kind,))])
    other = texts.filter(pc.invert(ok))
    if len(other):
        raise TypeError(
            "geometries must all be of the same type, found "
            f"{kind} and {other[0].as_py().split('(', 1)[0].strip()}")


def _point_xy(n: int, rows: np.ndarray,
              texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """``(x, y)`` of ``n`` rows from the ``POINT(x y)`` texts of
    ``rows``; the other rows get NaN."""
    x = np.full(n, np.nan)
    y = np.full(n, np.nan)
    if len(rows):
        # Arrow-native POINT parse (C kernels; string→double cast is
        # correct-rounding so repr'd coordinates round-trip exactly)
        t = pc.replace_substring(texts, pattern="POINT(", replacement="")
        t = pc.replace_substring(t, pattern=")", replacement="")
        parts = pc.split_pattern(t, " ")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        nums = parts.flatten().cast(pa.float64()).to_numpy(zero_copy_only=False)
        x[rows] = nums[0::2]
        y[rows] = nums[1::2]
    return x, y


class DecodeGeom:
    """map_batches stage: documents → documents + (x, y, cell).

    Stateless but kept as a class for a compiled fast path and to carry
    config (cell size).  With ``parse_polygons=True`` it also handles
    POLYGON geom spans: (x, y) become the polygon centroid (the
    reference's M3 centroid conversion, accessibility.py:53-56) and the
    exterior ring is exposed as ``ring_x``/``ring_y`` list columns plus
    a ``geom_kind`` column for downstream polygon-AoI stages.

    ``kind`` set (the type the API routed the input by) raises the
    reference's mixed-geometry ``TypeError`` on a batch with a first
    geom span of another type; rows without a geom span still decode
    to NaN.
    """

    def __init__(self, cell_size: float = cells.DEFAULT_CELL_SIZE,
                 parse_polygons: bool = False,
                 src_crs: str | None = None, kind: str | None = None):
        """``src_crs`` set (e.g. "EPSG:4326") reprojects decoded (x, y)
        into ``dst_crs`` — the reference's geographic→projected guard
        (M2, accessibility.py:40-50; default target EPSG:3395 like
        availability.py:66-70)."""
        self.cell_size = cell_size
        self.parse_polygons = parse_polygons
        self.src_crs = src_crs
        self.dst_crs = "EPSG:3395"
        self.kind = kind

    def _project(self, x, y):
        if self.src_crs is None:
            return x, y
        from .. import geoproj

        return geoproj.transform(x, y, self.src_crs, self.dst_crs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        rows, found = _first_geoms(spans)
        if self.kind is not None:
            _check_kind(found, self.kind)
        if not self.parse_polygons:
            x, y = self._project(*_point_xy(len(spans), rows, found))
            cell = cells.cell_of(x, y, self.cell_size)
            return (
                batch.append_column("x", pa.array(x, pa.float64()))
                .append_column("y", pa.array(y, pa.float64()))
                .append_column("cell", pa.array(cell, pa.int64()))
            )
        texts = [""] * len(spans)
        for r, t in zip(rows, found.to_pylist()):
            texts[r] = t
        x, y, kinds, rings = geom.parse_wkt_geoms(texts)
        x, y = self._project(x, y)
        if self.src_crs is not None:
            # reference order: project geometries FIRST, then centroid
            # (to_crs → .centroid) — so polygon centroids are recomputed
            # from the projected rings
            rings = [
                [np.column_stack(self._project(r[:, 0], r[:, 1])) for r in rs]
                if rs else rs
                for rs in rings
            ]
            for i, rs in enumerate(rings):
                if not rs:
                    continue
                if len(rs) == 1:
                    x[i], y[i] = geom.polygon_centroid(rs[0])
                else:
                    _, x[i], y[i] = geom.overlay_moments([rs], "union")
        cell = cells.cell_of(x, y, self.cell_size)
        # ring_x/ring_y concatenate all rings of the geometry; ring_sizes
        # records each ring's vertex count so multi-ring geometries
        # (holes / MULTIPOLYGON) can be split back out.  Single-ring rows
        # are byte-identical to the round-1 single-ring layout.
        ring_x = [np.concatenate([r[:, 0] for r in rs]).tolist() if rs else []
                  for rs in rings]
        ring_y = [np.concatenate([r[:, 1] for r in rs]).tolist() if rs else []
                  for rs in rings]
        ring_sizes = [[len(r) for r in rs] if rs else [] for rs in rings]
        return (
            batch.append_column("x", pa.array(x, pa.float64()))
            .append_column("y", pa.array(y, pa.float64()))
            .append_column("cell", pa.array(cell, pa.int64()))
            .append_column("geom_kind", pa.array(kinds, pa.string()))
            .append_column("ring_x", pa.array(ring_x, pa.list_(pa.float64())))
            .append_column("ring_y", pa.array(ring_y, pa.list_(pa.float64())))
            .append_column("ring_sizes", pa.array(ring_sizes, pa.list_(pa.int32())))
        )


def decode_geom(ds: "ray.data.Dataset", src_crs: str | None = None):
    return ds.map_batches(DecodeGeom(cells.DEFAULT_CELL_SIZE, src_crs=src_crs),
                          batch_format="pyarrow", zero_copy_batch=True)


def geometry_kinds(ds: "ray.data.Dataset") -> set[str]:
    """Distinct geometry types among the rows' first geom spans
    (M1 homogeneity check, accessibility.py:34-37: per-batch type set +
    tiny global distinct aggregate — no driver-side row scan)."""

    def kinds(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        is_geom = np.asarray(
            pc.equal(flat.field("kind"), "geom").to_numpy(zero_copy_only=False),
            dtype=bool,
        )
        texts = flat.field("text").to_pylist()
        seen = {t.split("(", 1)[0] for t, g in zip(texts, is_geom) if g}
        return pa.table({"geom_kind": pa.array(sorted(seen), pa.string())})

    out = ds.map_batches(kinds, batch_format="pyarrow").unique("geom_kind")
    return set(out)


def validate_geometry_homogeneous(ds: "ray.data.Dataset") -> str:
    """Raise TypeError unless all PoIs share one geometry type
    (reference: 'geometries must be of the same type',
    accessibility.py:34-37)."""
    kinds = geometry_kinds(ds)
    if len(kinds) != 1:
        raise TypeError(
            f"geometries must all be of the same type, found {sorted(kinds)}"
        )
    return next(iter(kinds))


def bounds_flag_batch(batch: pa.Table, x0: float, y0: float,
                      x1: float, y1: float) -> np.ndarray:
    """Per-row containment flag — the M13/A8 kernel.

    Point rows test the decoded ``(x, y)``; polygon rows (non-empty
    ``ring_x``/``ring_y``) test EVERY vertex via per-row ring min/max
    (the reference checks geometry *bounds*, availability.py:219-226,
    so a polygon poking past the box fails even when its centroid is
    inside).  Vectorized: ``np.minimum.reduceat`` over the flattened
    ring values — no per-row Python loop."""
    x = batch.column("x").to_numpy(zero_copy_only=False)
    y = batch.column("y").to_numpy(zero_copy_only=False)
    lo_x, hi_x = x.copy(), x.copy()
    lo_y, hi_y = y.copy(), y.copy()
    if "ring_x" in batch.column_names:
        for col, lo, hi in (("ring_x", lo_x, hi_x), ("ring_y", lo_y, hi_y)):
            arr = batch.column(col)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            vals = arr.values.to_numpy(zero_copy_only=False)
            offs = arr.offsets.to_numpy(zero_copy_only=False)
            starts, ends = offs[:-1], offs[1:]
            nonempty = ends > starts
            if vals.size and nonempty.any():
                # reduceat segment i depends only on s[i] (and s[i+1]);
                # clamping empty rows' starts to 0 keeps every index
                # valid and only corrupts results we mask out anyway
                s = np.where(nonempty, starts, 0)
                lo[nonempty] = np.minimum.reduceat(vals, s)[nonempty]
                hi[nonempty] = np.maximum.reduceat(vals, s)[nonempty]
    return (lo_x >= x0) & (hi_x <= x1) & (lo_y >= y0) & (hi_y <= y1)


def bounds_flags_table(batch: pa.Table, x0: float, y0: float,
                       x1: float, y1: float) -> pa.Table:
    """Per-row validator projection: (doc_id, geom_kind, within) — the
    M1 kind extraction next to the M13 containment flag, one row per
    document (used by the ``geometry_validators`` gate)."""
    flags = bounds_flag_batch(batch, x0, y0, x1, y1)
    if "geom_kind" in batch.column_names:
        kind = batch.column("geom_kind")
    else:
        kind = pa.array(["POINT"] * len(batch), pa.string())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "geom_kind": kind,
        "within": pa.array(flags),
    })


def validate_within_bounds(ds: "ray.data.Dataset", x0: float, y0: float,
                           x1: float, y1: float, strict: bool = True) -> bool:
    """M13 containment validator (availability.py:219-226): all decoded
    geometries inside the raster/vector bounds box.  Global boolean
    aggregate over per-batch :func:`bounds_flag_batch` checks (polygon
    rows test every vertex); ``strict`` raises (points path) vs warns
    (polygons path)."""
    from ray.data.aggregate import Min

    checked = ds.map_batches(
        lambda b: pa.table({"ok": pa.array(
            bounds_flag_batch(b, x0, y0, x1, y1).astype(np.int8))}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    all_ok = bool(checked.aggregate(Min("ok", alias_name="m"))["m"])
    if not all_ok and strict:
        raise ValueError("not all PoIs fall within the provided bounds")
    return all_ok


def shift_coords(tab: pa.Table, dx: float, dy: float,
                 xcols=("x",), ycols=("y",)) -> pa.Table:
    """Translate coordinate columns of a decoded batch or side-input
    table into a tile store's local frame (graph nodes / edge geometries
    must move WITH the points or snapping and raster windows run in
    mismatched frames).  Handles plain float64 columns and list<double>
    polyline/ring columns; absent columns are skipped."""
    if dx == 0.0 and dy == 0.0:
        return tab

    def add(col, d):
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            ca = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            cls = (pa.LargeListArray if pa.types.is_large_list(ca.type)
                   else pa.ListArray)
            mask = ca.is_null() if ca.null_count else None
            # keep the list flavor and the validity bitmap — from_arrays
            # without a mask would silently turn null rows into []
            return cls.from_arrays(
                ca.offsets, pc.add(ca.values, pa.scalar(d, pa.float64())),
                mask=mask)
        return pc.add(col, pa.scalar(d, pa.float64()))

    for names, d in ((xcols, dx), (ycols, dy)):
        for name in names:
            if name in tab.column_names:
                i = tab.schema.get_field_index(name)
                tab = tab.set_column(i, name, add(tab.column(name), d))
    return tab
