"""Vector coverage stages: canopy % and greenspace % per AoI.

Reimplements ``availability.get_canopy_percentage`` (`availability.py:
600-780`, formula :764) and ``get_greenspace_percentage`` (`:783-1010`,
formula :997)::

    cover = str(round(clip(aoi).area.sum() / aoi.area * 100, 2)) + '%'

The AoI is the reference's shapely buffer polygon — a 4·quad_segs-gon
(quad_segs=16).  Overlapping greenspaces are dissolved first (D1,
``accessibility.py:125-127``) via :mod:`~greenex_py_ray.stages.dissolve`.
Two exact area paths, chosen per candidate set:

* all candidates single convex rings — Sutherland–Hodgman clip +
  inclusion–exclusion (bit-identical to round 1 on the synthetic
  convex corpus);
* anything else (concave rings, holes, MULTIPOLYGON members) — the
  general even-odd trapezoid overlay
  (:func:`greenex_py_ray.geom.overlay_area`), matching shapely
  ``clip``/``unary_union`` semantics on arbitrary polygons
  (availability.py:764,937-940).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import geom
from ..sidefiles import side_table
from ..state.index import GridIndex, RectIndex


def _ring_buffers(gs: pa.Table):
    """``rings`` column → flat (xs, ys, ring-list offsets, point
    offsets) numpy views straight off the Arrow buffers — no per-vertex
    Python (kernels build these in ``__init__``; a 10^6-ring side table
    flattens in milliseconds instead of minutes)."""
    col = gs.column("rings")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    inner = col.values  # ListArray<struct{x,y}> (unsliced child)
    pts = inner.values
    xs = pts.field("x").to_numpy(zero_copy_only=False)
    ys = pts.field("y").to_numpy(zero_copy_only=False)
    oo = col.offsets.to_numpy().astype(np.int64)
    io = inner.offsets.to_numpy().astype(np.int64)
    return xs, ys, oo, io


def _rings_list(gs: pa.Table) -> list[np.ndarray]:
    """Exterior (first) ring of each polygon row as an ``(N, 2)``
    array — numpy slices over the flat Arrow buffers.  A row with an
    EMPTY rings list yields a (0, 2) array: indexing ``io[oo[i] + 1]``
    there would silently return the NEXT row's ring (or fall off the
    end on the last row)."""
    xs, ys, oo, io = _ring_buffers(gs)
    nrings = oo[1:] - oo[:-1]
    s = io[np.minimum(oo[:-1], len(io) - 1)]
    e = io[np.minimum(oo[:-1] + 1, len(io) - 1)]
    empty = np.empty((0, 2))
    return [np.column_stack([xs[a:b], ys[a:b]]) if n > 0 else empty
            for a, b, n in zip(s, e, nrings)]


def _polys_list(gs: pa.Table) -> "list[list[np.ndarray]]":
    """All rings of each polygon row (holes / multipolygon, even-odd)."""
    xs, ys, oo, io = _ring_buffers(gs)
    return [
        [np.column_stack([xs[io[j]:io[j + 1]], ys[io[j]:io[j + 1]]])
         for j in range(oo[i], oo[i + 1])]
        for i in range(len(oo) - 1)
    ]


def union_area_of_convex(polys: list[np.ndarray], max_depth: int = 12) -> float:
    """Area of the union of CONVEX polygons via inclusion–exclusion.

    Intersections of convex sets are convex (successive S–H clips), so
    every term is exact.  Depth is bounded by the largest overlapping
    clique; synthetic corpora keep cliques small."""
    n = len(polys)
    if n == 0:
        return 0.0
    total = 0.0

    def rec(start: int, current: np.ndarray | None, depth: int, sign: float):
        nonlocal total
        for j in range(start, n):
            inter = polys[j] if current is None else geom.clip_polygon_convex(
                current, polys[j]
            )
            if len(inter) < 3:
                continue
            a = geom.polygon_area(inter)
            if a <= 0.0:
                continue
            total += sign * a
            if depth < max_depth:
                rec(j + 1, inter, depth + 1, -sign)

    rec(0, None, 1, 1.0)
    return total


class RectCoverage:
    """Kernel: percent of each PoI's SQUARE AoI covered by a
    broadcast table of axis-aligned rectangles — the value-verified rect
    form of the coverage family (M16/A3/J2; the reference's
    ``clip(aoi).area.sum()`` at availability.py:764, no dissolve, so
    overlapping rects double-count exactly as the reference's
    ``GeoSeries.area.sum()`` does).

    Every arithmetic step (interval clamp, product, ratio) mirrors the
    DuckDB oracle expression term-for-term; the output is rounded to 6
    decimals so summation order cannot flip the gate hash.
    """

    def __init__(self, rects_ref, half: float, key_col: str = "doc_id",
                 name: str = "rect_cover"):
        t = side_table(rects_ref)
        self.x0 = t.column("x0").to_numpy(zero_copy_only=False).astype(np.float64)
        self.y0 = t.column("y0").to_numpy(zero_copy_only=False).astype(np.float64)
        self.x1 = t.column("x1").to_numpy(zero_copy_only=False).astype(np.float64)
        self.y1 = t.column("y1").to_numpy(zero_copy_only=False).astype(np.float64)
        self.half = float(half)
        # index over rects EXPANDED by the AoI half-width: the square
        # around (x, y) intersects rect r iff (x, y) lies in r expanded
        self.index = RectIndex(
            self.x0 - half, self.y0 - half, self.x1 + half, self.y1 + half,
            np.arange(len(self.x0)),
        )
        self.key_col = key_col
        self.name = name

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        qi, rj = self.index.containing(x, y)
        h = self.half
        cover = np.zeros(len(x))
        if len(qi):
            ox = np.maximum(
                0.0, np.minimum(self.x1[rj], x[qi] + h) - np.maximum(self.x0[rj], x[qi] - h)
            )
            oy = np.maximum(
                0.0, np.minimum(self.y1[rj], y[qi] + h) - np.maximum(self.y0[rj], y[qi] - h)
            )
            np.add.at(cover, qi, ox * oy)
        pct = np.round(100.0 * cover / ((2.0 * h) * (2.0 * h)), 6)
        return pa.table({self.key_col: batch.column(self.key_col),
                         self.name: pa.array(pct)})


class PolygonCoverage:
    """Kernel: percent of each PoI's buffer AoI covered by the polygon
    side table (:func:`~greenex_py_ray.sidefiles.side_table`).

    AoI = ``buffer_ngon(x, y, buffer_dist, quad_segs)`` (shapely
    discretization); candidates via a vertex grid index; output column
    ``{name}`` is ``round(pct, 2)`` (float) or the reference's
    stringified ``"12.31%"`` when ``stringify=True``.
    """

    def __init__(self, polys_ref, buffer_dist: float, key_col: str = "doc_id",
                 name: str = "canopy_cover", stringify: bool = False,
                 quad_segs: int = 16, dissolve: bool = True,
                 aoi_shape: str = "circle"):
        t = side_table(polys_ref)
        polys = _polys_list(t)
        if dissolve:
            from .dissolve import dissolve_polygons

            groups = dissolve_polygons(polys)["groups_rings"]
        else:
            groups = [[p] for p in polys]
        # groups: list of dissolved blobs; each blob = list of member
        # polygons; each member = list of rings (even-odd)
        self.groups = groups
        # a blob is "convex simple" iff every member is one convex ring
        # — then the round-1 Sutherland–Hodgman + inclusion–exclusion
        # arithmetic applies bit-for-bit; anything else (concave rings,
        # holes, multipolygons) takes the exact general overlay
        self.convex_simple = [
            all(len(p) == 1 and geom.is_convex(p[0]) for p in grp)
            for grp in groups
        ]
        vx = np.concatenate([r[:, 0] for grp in groups for p in grp for r in p])
        vy = np.concatenate([r[:, 1] for grp in groups for p in grp for r in p])
        owner = np.concatenate(
            [np.full(len(r), gi, dtype=np.int64)
             for gi, grp in enumerate(groups) for p in grp for r in p]
        )
        self.vert_owner = owner
        self.vert_index = GridIndex(vx, vy, cell_size=500.0)
        self.max_span = max(
            (float(np.hypot(*(r.max(0) - r.min(0))))
             for grp in groups for p in grp for r in p),
            default=0.0,
        )
        self.buffer_dist = float(buffer_dist)
        self.key_col = key_col
        self.name = name
        self.stringify = stringify
        self.quad_segs = quad_segs
        # "circle" = the reference's shapely buffer discretization (a
        # 4·quad_segs-gon); "square" = an exact square AoI of half-width
        # buffer_dist — the SQL-verifiable gate form (its area and every
        # clip bound are closed-form expressible in the DuckDB oracle);
        # "self" = each row's OWN polygon is the AoI (polygon PoIs with
        # polygon_type='neighbourhood', availability.py:230-237):
        # buffer_dist==0 is the exact vector overlay, buffer_dist>0 the
        # buffered-polygon AoI evaluated at pixel-center resolution (the
        # raster analog of shapely's polygon.buffer — same documented
        # deviation family as IsochroneCoverage)
        if aoi_shape not in ("circle", "square", "self"):
            raise ValueError(
                f"aoi_shape must be circle|square|self, got {aoi_shape!r}")
        self.aoi_shape = aoi_shape

    def _pct(self, x: float, y: float) -> float:
        if self.aoi_shape == "square":
            d = self.buffer_dist
            aoi = np.array([[x - d, y - d], [x + d, y - d],
                            [x + d, y + d], [x - d, y + d]])
            aoi_area = (2.0 * d) * (2.0 * d)
        else:
            aoi = geom.buffer_ngon(x, y, self.buffer_dist, self.quad_segs)
            aoi_area = geom.polygon_area(aoi)
        # prefilter radius must dominate (distance center → farthest AoI
        # point) + (candidate diameter): corner of a square AoI is √2·d
        # from the center
        reach = (self.buffer_dist * np.sqrt(2.0)
                 if self.aoi_shape == "square" else self.buffer_dist)
        _, pj, _ = self.vert_index.within(
            np.array([x]), np.array([y]), reach + self.max_span
        )
        if not len(pj):
            return 0.0
        cand = np.unique(self.vert_owner[pj])
        if all(self.convex_simple[gi] for gi in cand):
            # per-group inclusion–exclusion, summed: bit-identical to
            # the round-1 all-candidates call for dissolved (disjoint)
            # blobs — cross-group intersection terms were exact zeros
            # skipped before any accumulation — and the reference's own
            # double-counting sum semantics when dissolve=False
            area = 0.0
            for gi in cand:
                clipped: list[np.ndarray] = []
                for p in self.groups[gi]:
                    c = geom.clip_polygon_convex(p[0], aoi)
                    if len(c) >= 3:
                        clipped.append(c)
                if clipped:
                    area += union_area_of_convex(clipped)
        else:
            # general overlay: AoI ∩ union(members), PER GROUP, summed.
            # Dissolved blobs are pairwise disjoint so the union area is
            # the sum of per-blob clip areas; with dissolve=False the
            # reference itself sums per-polygon clip areas (overlaps
            # double-count, availability.py:764).  Per-group overlays
            # keep the O(E²) slab decomposition bounded by one blob's
            # edge count instead of every candidate's (a 274-polygon
            # segmentation corpus in one overlay ran minutes; per-group
            # it is milliseconds).
            area = 0.0
            for gi in cand:
                area += geom.overlay_area(
                    [[aoi]] + list(self.groups[gi]), "first_and_rest"
                )
        return area / aoi_area * 100.0

    def _pct_self(self, rings_i: "list[np.ndarray]") -> float:
        """Coverage with the row's own (possibly dilated) polygon AoI."""
        bxy = np.concatenate(rings_i)
        bx0, by0 = bxy.min(0)
        bx1, by1 = bxy.max(0)
        cx, cy = (bx0 + bx1) / 2.0, (by0 + by1) / 2.0
        d = self.buffer_dist
        reach = 0.5 * float(np.hypot(bx1 - bx0, by1 - by0)) + d
        _, pj, _ = self.vert_index.within(
            np.array([cx]), np.array([cy]), reach + self.max_span)
        if not len(pj):
            return 0.0 if d > 0 or geom.overlay_area([rings_i]) > 0 else np.nan
        cand = np.unique(self.vert_owner[pj])
        if d <= 0.0:
            aoi_area = geom.overlay_area([rings_i], "union")
            if aoi_area <= 0.0:
                return np.nan

            # Σ over candidate groups: blobs are disjoint, so the
            # dissolve=True union is the sum; dissolve=False groups are
            # singletons, so overlaps double-count like the reference's
            # per-polygon clip sum (availability.py:764)
            covered = 0.0
            for gi in cand:
                covered += geom.overlay_area([rings_i] + list(self.groups[gi]),
                                             "first_and_rest")
            return covered / aoi_area * 100.0
        # dilated AoI: its pixel centres on the engine lattice, as
        # chords; |AoI ∩ group| = |AoI| + |group| - |AoI ∪ group|, the
        # group the union of its members' (d = 0) chords
        from . import zonal

        def npix(chords):
            return int((chords[3] - chords[2] + 1).sum())

        aoi = zonal.shape_chords(*zonal.ring_edges([rings_i]), d)
        if not npix(aoi):
            return np.nan
        members = [(gi, m) for gi in cand for m in self.groups[gi]]
        owner, row, lo, hi = zonal.shape_chords(
            *zonal.ring_edges([m for _, m in members]))
        groups = zonal.merge_chords(
            np.array([gi for gi, _ in members])[owner], row, lo, hi)
        aois = (np.repeat(cand, len(aoi[0])),) + tuple(
            np.tile(v, len(cand)) for v in aoi[1:])
        both = zonal.merge_chords(*map(np.append, groups, aois))
        covered = len(cand) * npix(aoi) + npix(groups) - npix(both)
        return covered / float(npix(aoi)) * 100.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .zonal import batch_rings, pct_strings

        if self.aoi_shape == "self":
            pct = np.array([round(self._pct_self(rings), 2)
                            if sum(map(len, rings)) >= 3 else np.nan
                            for rings in batch_rings(batch)])
        else:
            x = batch.column("x").to_numpy(zero_copy_only=False)
            y = batch.column("y").to_numpy(zero_copy_only=False)
            pct = np.array([round(self._pct(x[i], y[i]), 2)
                            for i in range(len(x))])
        col = (pct_strings(pct) if self.stringify
               else pa.array(pct, pa.float64(), mask=~np.isfinite(pct)))
        return pa.table({self.key_col: batch.column(self.key_col), self.name: col})
