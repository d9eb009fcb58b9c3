"""Polygon dissolve (D1): merge overlapping greenspace polygons.

Reference: ``unary_union → explode → sjoin → dissolve(aggfunc='first')``
(`accessibility.py:125-127`, `availability.py:937-940`) — overlapping
source polygons become one blob carrying the first source's attributes.

Here: polygons are bucketed by grid cell (bbox cover), overlap candidate
pairs come from shared cells, the exact overlap test is a convex
intersection (fast path) or the general even-odd overlay
(:func:`greenex_py_ray.geom.overlay_area` — concave / holes /
multipolygon members), and blobs are connected components of the overlap
graph (min-label propagation).  The side table is small relative to the
documents (it is broadcast everywhere else), so components run
driver-side; at larger side-table scale the same pair table feeds
:func:`~greenex_py_ray.stages.dedup.connected_components`.

Merged blob attributes: member count, union area, area-weighted union
centroid, and representative id = min member id (a deterministic
stand-in for the reference's 'first').  Convex single-ring blobs keep
the round-1 inclusion–exclusion arithmetic bit-for-bit; any other blob
uses the exact trapezoid overlay.
"""

from __future__ import annotations

import numpy as np

from .. import geom


def _as_poly(p) -> "list[np.ndarray]":
    """Normalize a member to a list of rings (even-odd)."""
    return [p] if isinstance(p, np.ndarray) else list(p)


def _poly_bbox(poly: "list[np.ndarray]"):
    xs = np.concatenate([r[:, 0] for r in poly])
    ys = np.concatenate([r[:, 1] for r in poly])
    return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())


def _bbox_cells(poly, cs: float):
    x0, y0, x1, y1 = _poly_bbox(poly)
    return (int(np.floor(x0 / cs)), int(np.floor(y0 / cs)),
            int(np.floor(x1 / cs)), int(np.floor(y1 / cs)))


def _polys_overlap(pa_: "list[np.ndarray]", pb: "list[np.ndarray]") -> bool:
    if (len(pa_) == 1 and len(pb) == 1
            and geom.is_convex(pa_[0]) and geom.is_convex(pb[0])):
        inter = geom.clip_polygon_convex(pa_[0], pb[0])
        return len(inter) >= 3 and geom.polygon_area(inter) > 0.0
    return geom.overlay_area([pa_, pb], "intersection") > 0.0


def overlap_pairs(polys):
    """Candidate pairs from shared grid cells, refined by exact
    intersection (convex fast path; general overlay otherwise)."""
    polys = [_as_poly(p) for p in polys]
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(polys):
        ix0, iy0, ix1, iy1 = _bbox_cells(p, 1000.0)
        for bx in range(ix0, ix1 + 1):
            for by in range(iy0, iy1 + 1):
                buckets.setdefault((bx, by), []).append(i)
    pairs = set()
    checked = set()
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if (i, j) in checked:
                    continue
                checked.add((i, j))
                if _polys_overlap(polys[i], polys[j]):
                    pairs.add((i, j))
    return sorted(pairs)


def _union_moments_convex(grp: "list[np.ndarray]"):
    """Round-1 inclusion–exclusion union area + centroid for convex
    single-ring members (kept bit-identical for existing oracles)."""
    area = 0.0
    cx = 0.0
    cy = 0.0

    def rec(start, current, sign):
        nonlocal area, cx, cy
        for k in range(start, len(grp)):
            inter = grp[k] if current is None else geom.clip_polygon_convex(
                current, grp[k]
            )
            if len(inter) < 3:
                continue
            a = geom.polygon_area(inter)
            if a <= 0.0:
                continue
            c = geom.polygon_centroid(inter)
            area += sign * a
            cx += sign * a * c[0]
            cy += sign * a * c[1]
            rec(k + 1, inter, -sign)

    rec(0, None, 1.0)
    return area, cx, cy


def dissolve_polygons(polys, ids: list[int] | None = None) -> dict:
    """Dissolve overlapping polygons into blobs (general geometry).

    ``polys``: list where each member is a single ``(N, 2)`` ring or a
    list of rings (holes / multipolygon, even-odd).

    Returns dict with parallel lists per blob:
    ``rep_id`` (min member id), ``member_ids``, ``area`` (union area),
    ``centroid_x/y`` (area-weighted union centroid), and
    ``groups_rings`` (the member polygons of each blob, for downstream
    exact clipping — each entry a list of list-of-rings)."""
    polys = [_as_poly(p) for p in polys]
    n = len(polys)
    ids = ids if ids is not None else list(range(n))
    label = np.arange(n)
    pairs = overlap_pairs(polys)

    # union-find (path compression)
    def find(a):
        while label[a] != a:
            label[a] = label[label[a]]
            a = label[a]
        return a

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            label[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(n)])
    out = {"rep_id": [], "member_ids": [], "area": [],
           "centroid_x": [], "centroid_y": [], "groups_rings": []}
    for root in np.unique(roots):
        members = np.flatnonzero(roots == root)
        # order members by id: the distributed path's blob reducer sorts
        # by key, and _union_moments_convex / overlay accumulation is
        # float-summation-order dependent — identical order keeps the
        # two paths bit-identical (round-2 advice)
        members = members[np.argsort([ids[m] for m in members], kind="stable")]
        grp = [polys[m] for m in members]
        all_convex_single = all(
            len(p) == 1 and geom.is_convex(p[0]) for p in grp
        )
        if all_convex_single:
            area, mx, my = _union_moments_convex([p[0] for p in grp])
            cx = mx / area if area > 0 else float(
                np.mean([p[0][:, 0].mean() for p in grp]))
            cy = my / area if area > 0 else float(
                np.mean([p[0][:, 1].mean() for p in grp]))
        else:
            area, cx, cy = geom.overlay_moments(grp, "union")
            if area <= 0:
                cx = float(np.mean([r[:, 0].mean() for p in grp for r in p]))
                cy = float(np.mean([r[:, 1].mean() for p in grp for r in p]))
        out["rep_id"].append(min(ids[m] for m in members))
        out["member_ids"].append([ids[m] for m in members])
        out["area"].append(area)
        out["centroid_x"].append(cx)
        out["centroid_y"].append(cy)
        out["groups_rings"].append(grp)
    return out


def dissolve_convex(rings, ids: list[int] | None = None) -> dict:
    """Round-1 name, now general: delegates to :func:`dissolve_polygons`
    but flattens ``groups_rings`` entries back to single rings when every
    member is single-ring (the round-1 shape its callers expect)."""
    out = dissolve_polygons(rings, ids=ids)
    flat_groups = []
    for grp in out["groups_rings"]:
        if all(len(p) == 1 for p in grp):
            flat_groups.append([p[0] for p in grp])
        else:
            flat_groups.append(grp)
    out["groups_rings"] = flat_groups
    return out


def flat_rings_table(gs: "object", key_col: str = "__row") -> "object":
    """Greenspace side table → flat ring columns
    ``(key_col:int64, ring_x:list<double>, ring_y:list<double>,
    ring_sizes:list<int32>)`` for :func:`dissolve_dataset` — built
    entirely from Arrow offset buffers (no per-vertex Python).

    Accepts either a ``rings`` table (``list<list<struct{x,y}>>``) or a
    rect side table (``x0/y0/x1/y1``).  The key is the ROW POSITION
    (matching the driver dissolve's positional ids), not ``gs_id`` —
    stored ids need not be unique."""
    import pyarrow as pa

    n = len(gs)
    row = pa.array(np.arange(n, dtype=np.int64))
    if "rings" in gs.column_names:
        outer = gs.column("rings")
        if isinstance(outer, pa.ChunkedArray):
            outer = outer.combine_chunks()
        inner = outer.values  # ListArray<struct{x,y}> (unsliced child)
        pts = inner.values
        xs = pa.array(pts.field("x").to_numpy(zero_copy_only=False),
                      pa.float64())
        ys = pa.array(pts.field("y").to_numpy(zero_copy_only=False),
                      pa.float64())
        oo = outer.offsets.to_numpy().astype(np.int64)  # n+1 ring-list offs
        io = inner.offsets.to_numpy().astype(np.int64)  # point offsets
        row_pt_off = io[oo]  # per-row first-point offset into pts
        ring_x = pa.ListArray.from_arrays(pa.array(row_pt_off,
                                                   pa.int64()), xs)
        ring_y = pa.ListArray.from_arrays(pa.array(row_pt_off,
                                                   pa.int64()), ys)
        sizes = pa.array(np.diff(io).astype(np.int32))
        ring_sizes = pa.ListArray.from_arrays(
            pa.array(oo, pa.int64()), sizes)
        return pa.table({key_col: row, "ring_x": ring_x, "ring_y": ring_y,
                         "ring_sizes": ring_sizes})
    x0 = gs.column("x0").to_numpy(zero_copy_only=False)
    y0 = gs.column("y0").to_numpy(zero_copy_only=False)
    x1 = gs.column("x1").to_numpy(zero_copy_only=False)
    y1 = gs.column("y1").to_numpy(zero_copy_only=False)
    xs = np.column_stack([x0, x1, x1, x0]).ravel()
    ys = np.column_stack([y0, y0, y1, y1]).ravel()
    off = pa.array(np.arange(n + 1, dtype=np.int64) * 4)
    sz = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int64)),
        pa.array(np.full(n, 4, dtype=np.int32)))
    return pa.table({
        key_col: row,
        "ring_x": pa.ListArray.from_arrays(off, pa.array(xs, pa.float64())),
        "ring_y": pa.ListArray.from_arrays(off, pa.array(ys, pa.float64())),
        "ring_sizes": sz,
    })


def _polys_from_flat(rx, ry, sizes):
    """Rebuild list-of-rings polys from flattened ring columns."""
    out = []
    for i in range(len(rx)):
        ring = np.column_stack([np.asarray(rx[i], np.float64),
                                np.asarray(ry[i], np.float64)])
        sz = sizes[i] if sizes is not None else None
        if sz and len(sz) > 1:
            b = np.concatenate([[0], np.cumsum(sz)])
            out.append([ring[b[j]:b[j + 1]] for j in range(len(sz))])
        else:
            out.append([ring])
    return out


def dissolve_dataset(
    polys: "object",
    key_col: str = "gs_id",
    per_member: bool = False,
) -> "object":
    """DISTRIBUTED dissolve (D1 at side-table scale): the cross-cell
    stitch version of :func:`dissolve_polygons`.

    ``polys``: Dataset with (key_col:int64, ring_x:list<double>,
    ring_y:list<double>[, ring_sizes:list<int32>]).  Shape:

    1. bbox-cover each polygon to grid cells (flat map);
    2. ``groupby(cell)`` → exact overlap pairs inside each cell
       (convex fast path / overlay), deduped across shared cells;
    3. :func:`~greenex_py_ray.stages.dedup.connected_components` over
       the pair table (driver union-find below the threshold, the
       distributed min-label/pointer-doubling loop above);
    4. labels attached back via a bucketed join; ``groupby(component)``
       computes each blob's union area + centroid.

    Returns (rep_id, n_members, area, centroid_x, centroid_y) — the
    same rows as the driver-side path (validated in tests).  With
    ``per_member=True`` returns one row PER MEMBER instead:
    (key_col, rep_id, n_members, area, centroid_x, centroid_y), the
    shape :func:`greenex_py_ray.sidefiles._dissolve_units` joins back onto
    the source table above its driver-size gate.
    """
    cell_size = 1000.0
    import pyarrow as pa

    import pyarrow.compute as pc

    import ray.data as rd

    from .. import cells
    from ..functions.joins import bucket_join_attach
    from .dedup import bucket_dedup, connected_components

    has_sizes = "ring_sizes" in polys.schema().names

    def cover(batch: pa.Table) -> pa.Table:
        rx = batch.column("ring_x").to_pylist()
        ry = batch.column("ring_y").to_pylist()
        sizes = batch.column("ring_sizes").to_pylist() if has_sizes else None
        out_idx, out_cell = [], []
        for i in range(len(rx)):
            xs = np.asarray(rx[i])
            ys = np.asarray(ry[i])
            ix0 = int(np.floor(xs.min() / cell_size))
            ix1 = int(np.floor(xs.max() / cell_size))
            iy0 = int(np.floor(ys.min() / cell_size))
            iy1 = int(np.floor(ys.max() / cell_size))
            for bx in range(ix0, ix1 + 1):
                for by in range(iy0, iy1 + 1):
                    out_idx.append(i)
                    out_cell.append(bx * cells.CELL_STRIDE + by)
        idx = pa.array(np.asarray(out_idx, dtype=np.int64))
        cols = {
            key_col: batch.column(key_col).take(idx),
            "ring_x": batch.column("ring_x").take(idx),
            "ring_y": batch.column("ring_y").take(idx),
            "cell": pa.array(np.asarray(out_cell, dtype=np.int64)),
        }
        if has_sizes:
            cols["ring_sizes"] = batch.column("ring_sizes").take(idx)
        return pa.table(cols)

    covered = polys.map_batches(cover, batch_format="pyarrow")

    def pairs_in_cell(tbl: pa.Table) -> pa.Table:
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        ps = _polys_from_flat(
            tbl.column("ring_x").to_pylist(), tbl.column("ring_y").to_pylist(),
            tbl.column("ring_sizes").to_pylist() if has_sizes else None,
        )
        ka, kb = [], []
        for a in range(len(ps)):
            for b in range(a + 1, len(ps)):
                if _polys_overlap(ps[a], ps[b]):
                    lo, hi = sorted((int(keys[a]), int(keys[b])))
                    ka.append(lo)
                    kb.append(hi)
        return pa.table({"key_a": pa.array(ka, pa.int64()),
                         "key_b": pa.array(kb, pa.int64())})

    pairs = covered.groupby("cell").map_groups(pairs_in_cell,
                                               batch_format="pyarrow")
    pairs = bucket_dedup(pairs, subset=["key_a", "key_b"]).materialize()
    comp = connected_components(pairs)
    # singleton polygons never appear in the pair table: union their
    # identity labels in and take the min per key
    own = polys.map_batches(
        lambda b: pa.table({"key": b.column(key_col),
                            "component": b.column(key_col)}),
        batch_format="pyarrow",
    )
    # one aggregate yields BOTH the min label and a multi-membership
    # flag for free: `own` contributes exactly one row per key and
    # `comp` one row per PAIRED key, so label_rows == 2 ⟺ the key is in
    # a ≥2-member component.  Splitting on it lets the expensive
    # groupby(component).map_groups run only over genuinely-multi blobs
    # — near-unique components through map_groups is the
    # one-pandas-call-per-group pitfall (most polygons are disjoint, so
    # most components are singletons).
    from ..functions.aggregates import bucket_group_reduce

    def with_one(b: pa.Table) -> pa.Table:
        return b.append_column(
            "one", pa.array(np.ones(b.num_rows, dtype=np.int64)))

    labels = bucket_group_reduce(
        own.union(comp).map_batches(with_one, batch_format="pyarrow",
                                    zero_copy_batch=True),
        "key", ["component", "one"], ["min", "sum"])
    labels = labels.map_batches(
        lambda b: pa.table({key_col: b.column("key"),
                            "component": b.column("component"),
                            "is_multi": pc.greater_equal(
                                b.column("one"), 2)}),
        batch_format="pyarrow",
    )
    labeled = bucket_join_attach(polys, labels, key=key_col).materialize()

    def _take_side(multi: bool):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("is_multi"), multi))
        return f

    multi_rows = labeled.map_batches(_take_side(True), batch_format="pyarrow")
    single_rows = labeled.map_batches(_take_side(False), batch_format="pyarrow")

    def blob(tbl: pa.Table) -> pa.Table:
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        ps = _polys_from_flat(
            tbl.column("ring_x").to_pylist(), tbl.column("ring_y").to_pylist(),
            tbl.column("ring_sizes").to_pylist() if has_sizes else None,
        )
        order = np.argsort(keys, kind="stable")
        grp = [ps[i] for i in order]
        all_convex_single = all(
            len(p) == 1 and geom.is_convex(p[0]) for p in grp)
        if all_convex_single:
            area, mx, my = _union_moments_convex([p[0] for p in grp])
            cx = mx / area if area > 0 else float(
                np.mean([p[0][:, 0].mean() for p in grp]))
            cy = my / area if area > 0 else float(
                np.mean([p[0][:, 1].mean() for p in grp]))
        else:
            area, cx, cy = geom.overlay_moments(grp, "union")
            if area <= 0:
                # mean-vertex fallback, same as dissolve_polygons'
                # driver path — overlay_moments returns (0, 0) centroids
                # for zero-area blobs
                cx = float(np.mean([r[:, 0].mean() for p in grp for r in p]))
                cy = float(np.mean([r[:, 1].mean() for p in grp for r in p]))
        if per_member:
            k = len(keys)
            return pa.table({
                key_col: pa.array(np.sort(keys).astype(np.int64)),
                "rep_id": pa.array(np.full(k, int(keys.min()), np.int64)),
                "n_members": pa.array(np.full(k, k, np.int64)),
                "area": pa.array(np.full(k, area)),
                "centroid_x": pa.array(np.full(k, cx)),
                "centroid_y": pa.array(np.full(k, cy)),
            })
        return pa.table({
            "rep_id": pa.array([int(keys.min())], pa.int64()),
            "n_members": pa.array([len(keys)], pa.int64()),
            "area": pa.array([area]),
            "centroid_x": pa.array([cx]),
            "centroid_y": pa.array([cy]),
        })

    def singletons(tbl: pa.Table) -> pa.Table:
        """Per-row moments for 1-member components — identical math to
        ``blob`` on a single-member group, but streaming map_batches
        (no groupby): singleton components are the common case and a
        per-group pandas call for each would dominate the stage."""
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        ps = _polys_from_flat(
            tbl.column("ring_x").to_pylist(), tbl.column("ring_y").to_pylist(),
            tbl.column("ring_sizes").to_pylist() if has_sizes else None,
        )
        n = len(keys)
        areas = np.empty(n)
        cxs = np.empty(n)
        cys = np.empty(n)
        for i, p in enumerate(ps):
            if len(p) == 1 and geom.is_convex(p[0]):
                area, mx, my = _union_moments_convex([p[0]])
                cx = mx / area if area > 0 else float(p[0][:, 0].mean())
                cy = my / area if area > 0 else float(p[0][:, 1].mean())
            else:
                area, cx, cy = geom.overlay_moments([p], "union")
                if area <= 0:
                    cx = float(np.mean([r[:, 0].mean() for r in p]))
                    cy = float(np.mean([r[:, 1].mean() for r in p]))
            areas[i] = area
            cxs[i] = cx
            cys[i] = cy
        cols = {
            "rep_id": pa.array(keys.astype(np.int64)),
            "n_members": pa.array(np.ones(n, np.int64)),
            "area": pa.array(areas),
            "centroid_x": pa.array(cxs),
            "centroid_y": pa.array(cys),
        }
        if per_member:
            cols = {key_col: pa.array(keys.astype(np.int64)), **cols}
        return pa.table(cols)

    blobs = multi_rows.groupby("component").map_groups(
        blob, batch_format="pyarrow")
    return blobs.union(single_rows.map_batches(
        singletons, batch_format="pyarrow"))
