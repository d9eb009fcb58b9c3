"""Interleaved-document source: Lance-style parquet fragments → Dataset.

The primary input is the spans table fixed by ``BASELINE.json
input_hint``::

    documents(doc_id: string,
              spans: list<struct<kind, text, media_ref, offset>>)

``read_documents`` reads the fragments; ``decode_geom`` is the first
``map_batches`` stage of every pipeline: it extracts each row's first
``kind="geom"`` span, parses the ``POINT(x y)`` WKT, and appends
``x, y, cell`` columns — *without touching* the ``spans`` column (the
per-row invariant is span-sequence equality, so ``spans`` streams
zero-copy through every stage and is emitted unchanged).

Replaces the reference's ``gpd.read_file`` + geometry/CRS normalization
(`/root/reference/GreenExp/availability.py:45-143`) with a vectorized
Arrow batch transform.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .. import cells, geom


def read_documents(path: str, **kwargs) -> "ray.data.Dataset":
    """Read the spans documents table (a parquet file/dir of fragments)."""
    return ray.data.read_parquet(path, **kwargs)


def read_documents_pruned(path: str, fields=("kind", "text"),
                          rgs_per_task: int = 8) -> "ray.data.Dataset":
    """Leaf-pruned spans read for metrics-only pipelines.

    ``ray.data.read_parquet(columns=...)`` (and pyarrow's dataset
    scanner) cannot prune struct subfields inside a ``list`` column, so
    a metrics pipeline that only needs each row's geom span would still
    stream the whole spans payload (``media_ref``/``offset``/…) through
    the object store.  This reader drops to parquet LEAF columns
    (``spans.list.element.<field>`` via ``pq.ParquetFile.read_row_group``
    — measured 2.3× fewer in-memory bytes with kind+text) as a proper
    :class:`~ray.data.datasource.Datasource`: one ReadTask per
    ``rgs_per_task`` row groups, each carrying its true row count and
    pruned byte size so the streaming executor schedules the tasks in
    parallel and fuses/bundles downstream stages by REAL data volume.
    (A from_items+map_batches formulation loses exactly that metadata —
    384 one-row item blocks total ~29 KB, so operator fusion bundled
    the whole read into ONE task and serialized the pipeline: measured
    14× slower at 32 cores on the 6M-doc world.)  Only for pipelines
    that do NOT re-emit spans (the payload invariant requires the full
    column)."""
    import glob as _glob
    import os as _os

    import pyarrow.parquet as _pq
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    files = ([path] if _os.path.isfile(path) else
             sorted(_glob.glob(_os.path.join(path, "*.parquet"))))
    leafs = ["doc_id"] + [f"spans.list.element.{c}" for c in fields]
    leaf_set = set(leafs)
    items = []
    for f in files:
        md = _pq.ParquetFile(f).metadata
        for lo in range(0, md.num_row_groups, rgs_per_task):
            hi = min(lo + rgs_per_task, md.num_row_groups)
            rows = bytes_ = 0
            for rg in range(lo, hi):
                g = md.row_group(rg)
                rows += g.num_rows
                for ci in range(g.num_columns):
                    col = g.column(ci)
                    if col.path_in_schema in leaf_set:
                        bytes_ += col.total_uncompressed_size
            items.append((f, lo, hi, rows, bytes_))

    class _LeafSpanSource(Datasource):
        def get_name(self) -> str:
            return "DocumentsLeafPruned"

        def estimate_inmemory_data_size(self):
            return sum(it[4] for it in items)

        def get_read_tasks(self, parallelism: int):
            tasks = []
            for f, lo, hi, rows, bytes_ in items:
                def _read(p=f, a=lo, b=hi):
                    pf = _pq.ParquetFile(p)
                    return [pf.read_row_group(rg, columns=leafs)
                            for rg in range(a, b)]
                meta = BlockMetadata(num_rows=rows, size_bytes=bytes_,
                                     exec_stats=None, input_files=[f])
                tasks.append(ReadTask(_read, meta))
            return tasks

    return ray.data.read_datasource(_LeafSpanSource())


def _first_geom_texts(spans: pa.ListArray) -> tuple[np.ndarray, np.ndarray]:
    """For each row, (x, y) parsed from its first kind='geom' span.

    Fully vectorized: flatten the list column once, locate geom spans,
    pick the first per parent row via a stable unique pass.
    Rows with no geom span get NaN coordinates.
    """
    n = len(spans)
    flat = spans.flatten()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    import pyarrow.compute as pc

    kinds = flat.field("kind")
    is_geom = pc.equal(kinds, "geom").to_numpy(zero_copy_only=False)
    is_geom = np.asarray(is_geom, dtype=bool)
    pos = np.flatnonzero(is_geom)
    x = np.full(n, np.nan)
    y = np.full(n, np.nan)
    if len(pos):
        import pyarrow.compute as pc

        parents = np.searchsorted(offsets, pos, side="right") - 1
        # first geom span per parent (pos is ascending → first occurrence wins)
        uniq_parents, first_idx = np.unique(parents, return_index=True)
        texts = flat.field("text").take(pa.array(pos[first_idx]))
        # Arrow-native POINT parse (C kernels; string→double cast is
        # correct-rounding so repr'd coordinates round-trip exactly)
        t = pc.replace_substring(texts, pattern="POINT(", replacement="")
        t = pc.replace_substring(t, pattern=")", replacement="")
        parts = pc.split_pattern(t, " ")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        nums = parts.flatten().cast(pa.float64()).to_numpy(zero_copy_only=False)
        x[uniq_parents] = nums[0::2]
        y[uniq_parents] = nums[1::2]
    return x, y


class DecodeGeom:
    """map_batches stage: documents → documents + (x, y, cell).

    Stateless but kept as a class for a compiled fast path and to carry
    config (cell size).  With ``parse_polygons=True`` it also handles
    POLYGON geom spans: (x, y) become the polygon centroid (the
    reference's M3 centroid conversion, accessibility.py:53-56) and the
    exterior ring is exposed as ``ring_x``/``ring_y`` list columns plus
    a ``geom_kind`` column for downstream polygon-AoI stages.
    """

    def __init__(self, cell_size: float = cells.DEFAULT_CELL_SIZE,
                 parse_polygons: bool = False,
                 src_crs: str | None = None, dst_crs: str = "EPSG:3395"):
        """``src_crs`` set (e.g. "EPSG:4326") reprojects decoded (x, y)
        into ``dst_crs`` — the reference's geographic→projected guard
        (M2, accessibility.py:40-50; default target EPSG:3395 like
        availability.py:66-70)."""
        self.cell_size = cell_size
        self.parse_polygons = parse_polygons
        self.src_crs = src_crs
        self.dst_crs = dst_crs

    def _project(self, x, y):
        if self.src_crs is None:
            return x, y
        from .. import geoproj

        return geoproj.transform(x, y, self.src_crs, self.dst_crs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        if not self.parse_polygons:
            x, y = _first_geom_texts(spans)
            x, y = self._project(x, y)
            cell = cells.cell_of(x, y, self.cell_size)
            return (
                batch.append_column("x", pa.array(x, pa.float64()))
                .append_column("y", pa.array(y, pa.float64()))
                .append_column("cell", pa.array(cell, pa.int64()))
            )
        texts = _first_geom_span_texts(spans)
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


def _first_geom_span_texts(spans: pa.ListArray) -> list[str]:
    """Raw WKT text of each row's first geom span ('' if absent)."""
    import pyarrow.compute as pc

    n = len(spans)
    flat = spans.flatten()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    is_geom = np.asarray(pc.equal(flat.field("kind"), "geom").to_numpy(
        zero_copy_only=False), dtype=bool)
    pos = np.flatnonzero(is_geom)
    out = [""] * n
    if len(pos):
        parents = np.searchsorted(offsets, pos, side="right") - 1
        uniq_parents, first_idx = np.unique(parents, return_index=True)
        texts = flat.field("text").take(pa.array(pos[first_idx])).to_pylist()
        for p, t in zip(uniq_parents, texts):
            out[p] = t
    return out


def decode_geom(ds: "ray.data.Dataset", cell_size: float = cells.DEFAULT_CELL_SIZE,
                src_crs: str | None = None, dst_crs: str = "EPSG:3395"):
    return ds.map_batches(DecodeGeom(cell_size, src_crs=src_crs, dst_crs=dst_crs),
                          batch_format="pyarrow", zero_copy_batch=True)


def geometry_kinds(ds: "ray.data.Dataset") -> set[str]:
    """Distinct geometry types among the rows' first geom spans
    (M1 homogeneity check, accessibility.py:34-37: per-batch type set +
    tiny global distinct aggregate — no driver-side row scan)."""

    def kinds(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

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
    import pyarrow.compute as pc

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
