"""Visibility pillar stages: viewshed GVI + streetview GVI.

Viewshed path (``GreenExp/visibility.py:50-293``), one kernel
(``ViewshedPoI``) per batch of PoI rows:
  poi → sample points on road edges within buffer (M19, :568-589)
      → ViewshedGVI per sample point (M21/M22 kernel over the DSM/DTM/green
        tile store; the lineOfSight argument swap is replicated — see
        state/viewshed.py) → per-PoI mean/count rollup (:564), one row
        per PoI row in input order.

Streetview path (``visibility.py:296-437``), one kernel
(``StreetviewPoI``) per batch of PoI rows over the network sampled once
per kernel (M20, :624-650: points every 50 m, deduplicated by value):
  poi → the sample points in its buffer or dilated polygon (J6, :653-660)
      → nearest image feature within 100 m per distinct point (J7,
        :706-717)
      → segmentation scorer per distinct image (M23-M26) — the
        Mask2Former model is NOT available in this environment;
        ``FakeSegmentation`` is a clearly-marked deterministic stub with
        the real interface (image decode → per-pixel classes); the
        panorama crop / road centre (RLE + peaks) / green-ratio plumbing
        is real
      → per-PoI mean/count rollup (J8, :1036-1056), one row per PoI row
        in input order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sidefiles import side_table
from ..sources import synth
from ..state.index import GridIndex
from ..state.tiles import TileStore
from ..state.viewshed import ViewshedKernel


# ---------------------------------------------------------------------------
# Sample-point generation
# ---------------------------------------------------------------------------


def edge_coords_table(nodes_path: str, edges_path: str) -> pa.Table:
    """(u, v, length) edge table + node coords → (ax, ay, bx, by, length)
    straight-segment geometry.  If the edges parquet carries per-edge
    polyline columns ``geom_x``/``geom_y`` (list<double> vertex chains —
    real OSM networks' curved LineStrings, reference
    visibility.py:581-586,633-641), they are passed through and the
    sampling stages interpolate along the true polyline instead of the
    node-to-node chord."""
    nodes = pq.read_table(nodes_path)
    edges = pq.read_table(edges_path)
    nid = nodes.column("node_id").to_numpy(zero_copy_only=False)
    nx = nodes.column("x").to_numpy(zero_copy_only=False)
    ny = nodes.column("y").to_numpy(zero_copy_only=False)
    u = edges.column("u").to_numpy(zero_copy_only=False)
    v = edges.column("v").to_numpy(zero_copy_only=False)
    # node-id → position via searchsorted over the sorted id array —
    # pure vector (the per-edge dict lookup this replaces was minutes
    # of driver time on a 10^8-edge continental network); endpoints
    # missing from the node table raise like the dict KeyError did
    order = np.argsort(nid, kind="stable")
    sn = nid[order]
    iu = np.searchsorted(sn, u).clip(0, len(sn) - 1)
    iv = np.searchsorted(sn, v).clip(0, len(sn) - 1)
    if not ((sn[iu] == u).all() and (sn[iv] == v).all()):
        raise KeyError("edge endpoint missing from the node table")
    pu = order[iu]
    pv = order[iv]
    cols = {
        "ax": pa.array(nx[pu]), "ay": pa.array(ny[pu]),
        "bx": pa.array(nx[pv]), "by": pa.array(ny[pv]),
        "length": edges.column("length"),
    }
    if "geom_x" in edges.column_names and "geom_y" in edges.column_names:
        cols["geom_x"] = edges.column("geom_x")
        cols["geom_y"] = edges.column("geom_y")
    return pa.table(cols)


class SamplePointsViewshed:
    """Per PoI, road sample points at ``sample_dist`` intervals on
    edges intersecting the PoI buffer
    (get_network_sample_points, visibility.py:568-589).

    The whole edge table (:func:`edge_coords_table`) is held; an edge-midpoint
    grid index prunes candidates; edges shorter than ``sample_dist``
    contribute their midpoint, others ``linspace(0, len, n)`` points
    (duplicates across edges intentionally kept — the reference does not
    dedup in this path)."""

    def __init__(self, edges_ref, buffer_dist: float, sample_dist: float,
                 key_col: str = "doc_id"):
        from .. import geom as _geom

        e = side_table(edges_ref)
        self.ax = e.column("ax").to_numpy(zero_copy_only=False)
        self.ay = e.column("ay").to_numpy(zero_copy_only=False)
        self.bx = e.column("bx").to_numpy(zero_copy_only=False)
        self.by = e.column("by").to_numpy(zero_copy_only=False)
        self.length = e.column("length").to_numpy(zero_copy_only=False)
        self.geoms = None
        if "geom_x" in e.column_names and "geom_y" in e.column_names:
            gx = e.column("geom_x").to_pylist()
            gy = e.column("geom_y").to_pylist()
            self.geoms = [
                np.column_stack([np.asarray(a, np.float64),
                                 np.asarray(b, np.float64)])
                if a and len(a) >= 2 else None
                for a, b in zip(gx, gy)
            ]
        if self.geoms is None:
            self.midx = (self.ax + self.bx) / 2.0
            self.midy = (self.ay + self.by) / 2.0
            self.margin = float(self.length.max()) / 2.0 if len(self.length) else 0.0
        else:
            # index center = polyline arc midpoint; margin bounds the
            # farthest any vertex strays from its edge's center
            mid = np.empty((len(self.geoms), 2))
            rad = np.zeros(len(self.geoms))
            for j, g in enumerate(self.geoms):
                if g is None:
                    mid[j] = ((self.ax[j] + self.bx[j]) / 2.0,
                              (self.ay[j] + self.by[j]) / 2.0)
                    rad[j] = np.hypot(self.bx[j] - self.ax[j],
                                      self.by[j] - self.ay[j]) / 2.0
                else:
                    total = _geom.linestring_lengths(g)[-1]
                    mid[j] = _geom.interpolate_along(g, np.array([total / 2.0]))[0]
                    rad[j] = np.hypot(g[:, 0] - mid[j, 0],
                                      g[:, 1] - mid[j, 1]).max()
            self.midx = mid[:, 0]
            self.midy = mid[:, 1]
            self.margin = float(rad.max()) if len(rad) else 0.0
        self.index = GridIndex(self.midx, self.midy)
        self.buffer_dist = float(buffer_dist)
        self.sample_dist = float(sample_dist)
        self.key_col = key_col

    def _refine_polyline(self, x, y, qi, pj):
        """Exact point↔polyline distance filter for candidate pairs
        (looped over unique candidate EDGES, vectorized points ×
        sub-segments within each)."""
        keep = np.zeros(len(qi), dtype=bool)
        r2 = self.buffer_dist * self.buffer_dist
        for e in np.unique(pj):
            m = pj == e
            g = self.geoms[e]
            if g is None:
                sax, say = self.ax[e], self.ay[e]
                segs = np.array([[sax, say, self.bx[e], self.by[e]]])
            else:
                segs = np.column_stack([g[:-1], g[1:]])
            px = x[qi[m]][:, None]
            py = y[qi[m]][:, None]
            dx = (segs[:, 2] - segs[:, 0])[None, :]
            dy = (segs[:, 3] - segs[:, 1])[None, :]
            len2 = dx * dx + dy * dy
            qx = px - segs[:, 0][None, :]
            qy = py - segs[:, 1][None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(len2 > 0, (qx * dx + qy * dy) / len2, 0.0)
            t = np.clip(t, 0.0, 1.0)
            d2 = (qx - t * dx) ** 2 + (qy - t * dy) ** 2
            keep[m] = (d2 <= r2).any(axis=1)
        return keep

    def _empty(self, keys) -> pa.Table:
        return pa.table({
            self.key_col: keys.slice(0, 0),
            "sp_x": pa.array([], pa.float64()),
            "sp_y": pa.array([], pa.float64()),
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        keys = batch.column(self.key_col)
        if len(x) == 0:
            return self._empty(keys)
        # candidate (poi, edge) pairs for the whole batch in one index
        # query, refined by exact segment distance — then the linspace
        # expansion via the repeat/cumsum pattern (no per-PoI loop)
        qi, pj, _ = self.index.within(x, y, self.buffer_dist + self.margin)
        if len(qi):
            if self.geoms is not None:
                keep = self._refine_polyline(x, y, qi, pj)
            else:
                dx = self.bx[pj] - self.ax[pj]
                dy = self.by[pj] - self.ay[pj]
                len2 = dx * dx + dy * dy
                qx = x[qi] - self.ax[pj]
                qy = y[qi] - self.ay[pj]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = np.where(len2 > 0, (qx * dx + qy * dy) / len2, 0.0)
                t = np.clip(t, 0.0, 1.0)
                d2 = (qx - t * dx) ** 2 + (qy - t * dy) ** 2
                keep = d2 <= self.buffer_dist * self.buffer_dist
            qi, pj = qi[keep], pj[keep]
        if not len(qi):
            return self._empty(keys)
        return self._expand_samples(qi, pj, keys)

    def _expand_samples(self, qi: np.ndarray, pj: np.ndarray,
                        keys) -> pa.Table:
        """Shared (poi, edge) → sample-point expansion
        (get_network_sample_points, visibility.py:574-589)."""
        L = self.length[pj]
        small = L < self.sample_dist
        # visibility.py:584: n = int(L / sample_dist) + 1; short edges
        # contribute their midpoint only
        n = np.where(small, 1,
                     (L / self.sample_dist).astype(np.int64) + 1)
        total = int(n.sum())
        rep = np.repeat(np.arange(len(pj)), n)
        starts = np.concatenate(([0], np.cumsum(n)[:-1]))
        pos = np.arange(total) - np.repeat(starts, n)
        nm1 = (n - 1)[rep]
        # np.linspace(0, 1, n) ≡ pos * (1/(n-1)) with the endpoint
        # forced to exactly 1.0 — reproduced bit-for-bit
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = pos * np.where(nm1 > 0, 1.0 / np.maximum(nm1, 1), 0.0)
        ts[(nm1 > 0) & (pos == nm1)] = 1.0
        ej = pj[rep]
        if self.geoms is None:
            sp_x = np.where(small[rep], self.midx[ej],
                            self.ax[ej] + (self.bx[ej] - self.ax[ej]) * ts)
            sp_y = np.where(small[rep], self.midy[ej],
                            self.ay[ej] + (self.by[ej] - self.ay[ej]) * ts)
        else:
            from .. import geom as _geom

            # arc-length interpolation along the true polyline, one
            # vectorized interpolate_along per unique edge
            sp_x = np.empty(len(ej))
            sp_y = np.empty(len(ej))
            dist = ts * self.length[ej]
            for e in np.unique(ej):
                m = ej == e
                g = self.geoms[e]
                if g is None:
                    g = np.array([[self.ax[e], self.ay[e]],
                                  [self.bx[e], self.by[e]]])
                pts = _geom.interpolate_along(g, np.where(
                    small[rep][m],
                    _geom.linestring_lengths(g)[-1] / 2.0, dist[m]))
                sp_x[m] = pts[:, 0]
                sp_y[m] = pts[:, 1]
        idx = qi[rep]
        return pa.table(
            {
                self.key_col: keys.take(pa.array(idx)),
                "sp_x": pa.array(sp_x),
                "sp_y": pa.array(sp_y),
            }
        )


class SamplePointsViewshedPolygon(SamplePointsViewshed):
    """Polygon-PoI (``polygon_type='neighbourhood'``) sampling variant:
    the candidate predicate becomes *edge intersects the PoI's own
    polygon dilated by* ``buffer_dist`` (``None``/0 = the bare polygon
    — visibility.py:568-572's two branches); the selected edges are
    then sampled along their FULL length exactly like the point path
    (the reference samples ``buffer_edges.geometry[i]``, not the
    clipped intersection).

    Expects ``doc_id, ring_x, ring_y, ring_sizes`` rows (the
    ``_route_poi`` polygon columns)."""

    def __init__(self, edges_ref, buffer_dist: float | None,
                 sample_dist: float, key_col: str = "doc_id"):
        super().__init__(edges_ref, buffer_dist=float(buffer_dist or 0.0),
                         sample_dist=sample_dist, key_col=key_col)

    def _refine_polyline_rings(self, pj: np.ndarray, rings) -> np.ndarray:
        """Curved-edge refine: any sub-segment of the edge's polyline
        within ``buffer_dist`` of the polygon."""
        from .. import geom as _geom

        keep = np.zeros(len(pj), dtype=bool)
        for k, e in enumerate(pj):
            g = self.geoms[e]
            if g is None:
                xs0 = np.array([self.ax[e]]); ys0 = np.array([self.ay[e]])
                xs1 = np.array([self.bx[e]]); ys1 = np.array([self.by[e]])
            else:
                xs0, ys0 = g[:-1, 0], g[:-1, 1]
                xs1, ys1 = g[1:, 0], g[1:, 1]
            keep[k] = _geom.segments_within_rings_dist(
                xs0, ys0, xs1, ys1, rings, self.buffer_dist).any()
        return keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .. import geom as _geom
        from .zonal import batch_rings

        keys = batch.column(self.key_col)
        all_qi, all_pj = [], []
        for i, rings in enumerate(batch_rings(batch)):
            if not rings:
                continue
            bx0, by0, bx1, by1 = _geom.rings_bbox(np.concatenate(rings))
            cx, cy = (bx0 + bx1) / 2.0, (by0 + by1) / 2.0
            rad = (np.hypot(bx1 - cx, by1 - cy) + self.buffer_dist
                   + self.margin)
            _, pj, _ = self.index.within(np.array([cx]), np.array([cy]), rad)
            if not len(pj):
                continue
            if self.geoms is not None:
                keep = self._refine_polyline_rings(pj, rings)
            else:
                keep = _geom.segments_within_rings_dist(
                    self.ax[pj], self.ay[pj], self.bx[pj], self.by[pj],
                    rings, self.buffer_dist)
            pj = pj[keep]
            if len(pj):
                all_qi.append(np.full(len(pj), i, dtype=np.int64))
                all_pj.append(pj)
        if not all_qi:
            return self._empty(keys)
        return self._expand_samples(np.concatenate(all_qi),
                                    np.concatenate(all_pj), keys)


def streetview_sample_batch(batch: pa.Table, interval: float = 50.0) -> pa.Table:
    """Points every ``interval`` m along each edge
    (select_points_on_road_network, visibility.py:624-650:
    ``range(0, int(len), N)`` — start included, far end excluded).
    Points shared by edges repeat; ``StreetviewPoI`` dedups them."""
    from .. import geom as _geom

    ax = batch.column("ax").to_numpy(zero_copy_only=False)
    ay = batch.column("ay").to_numpy(zero_copy_only=False)
    bx = batch.column("bx").to_numpy(zero_copy_only=False)
    by = batch.column("by").to_numpy(zero_copy_only=False)
    length = batch.column("length").to_numpy(zero_copy_only=False)
    geoms = None
    if "geom_x" in batch.column_names and "geom_y" in batch.column_names:
        geoms = list(zip(batch.column("geom_x").to_pylist(),
                         batch.column("geom_y").to_pylist()))
    out_x, out_y = [], []
    for j in range(len(ax)):
        # range(0, int(len), N): start included, far end excluded; an
        # edge shorter than 1 m yields no points (visibility.py:633)
        ds = np.arange(0, int(length[j]), int(interval), dtype=np.float64)
        if not len(ds):
            continue
        if geoms is not None and geoms[j][0] and len(geoms[j][0]) >= 2:
            g = np.column_stack([np.asarray(geoms[j][0], np.float64),
                                 np.asarray(geoms[j][1], np.float64)])
            pts = _geom.interpolate_along(g, ds)
            out_x.append(pts[:, 0])
            out_y.append(pts[:, 1])
        else:
            t = ds / length[j]
            out_x.append(ax[j] + (bx[j] - ax[j]) * t)
            out_y.append(ay[j] + (by[j] - ay[j]) * t)
    px = np.concatenate(out_x) if out_x else np.empty(0)
    py = np.concatenate(out_y) if out_y else np.empty(0)
    return pa.table({"sp_x": pa.array(px), "sp_y": pa.array(py)})


# ---------------------------------------------------------------------------
# Viewshed GVI kernel
# ---------------------------------------------------------------------------


class ViewshedGVI:
    """GVI per sample point.

    Kernel + rays precomputed in ``__init__``; DSM/DTM/green fetched as
    stitched windows from the tile store.  Appends ``GVI`` to each
    sample-point row (key, sp_x, sp_y)."""

    def __init__(self, tile_root: str, viewing_dist: float,
                 observer_height: float = 1.7, key_col: str = "doc_id"):
        res = synth.RASTER_RES
        self.kernel = ViewshedKernel(
            radius_px=int(viewing_dist // res), resolution=res,
            observer_height=observer_height)
        self.store = TileStore(tile_root)
        self.key_col = key_col
        self.res = res

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("sp_x").to_numpy(zero_copy_only=False)
        y = batch.column("sp_y").to_numpy(zero_copy_only=False)
        R = self.kernel.R
        gvis = np.empty(len(x))
        for i in range(len(x)):
            r0 = int(np.floor(y[i] / self.res))
            c0 = int(np.floor(x[i] / self.res))
            dsm = self.store.window("dsm", r0 - R, c0 - R, 2 * R + 1, 2 * R + 1)
            dtm = self.store.window("dtm", r0 - R, c0 - R, 2 * R + 1, 2 * R + 1)
            green = self.store.window("green", r0 - R, c0 - R, 2 * R + 1, 2 * R + 1)
            gvis[i] = self.kernel.gvi(dsm, dtm, green)
        return batch.append_column("GVI", pa.array(gvis))


class ViewshedPoI:
    """The viewshed kernel of ``get_viewshed_GVI``: per batch of PoI
    rows, sample the road points (``SamplePointsViewshed``, or
    ``SamplePointsViewshedPolygon`` for ``poi_kind='polygon'`` rows of
    ``ring_x, ring_y[, ring_sizes]``), score each with ``ViewshedGVI``
    and roll them up per PoI: one ``(key, GVI, nr_of_points)`` row per
    input row, in input order, ``GVI`` the mean rounded to 3
    (visibility.py:564).  A row without sample points gets a null
    ``GVI`` and 0 points.  ``per_point=True`` returns the scored sample
    points ``(key, sp_x, sp_y, GVI)`` instead.

    Sample points carry the row position in place of the key, so the
    rollup is a ``bincount`` over positions."""

    def __init__(self, nodes_path: str, edges_path: str, tile_root: str,
                 buffer_dist: float | None, viewing_dist: float,
                 sample_dist: float, observer_height: float = 1.7,
                 key_col: str = "doc_id", poi_kind: str = "point",
                 per_point: bool = False):
        sampler = (SamplePointsViewshedPolygon if poi_kind == "polygon"
                   else SamplePointsViewshed)
        self.sample = sampler(edge_coords_table(nodes_path, edges_path),
                              buffer_dist=buffer_dist,
                              sample_dist=sample_dist, key_col="pos")
        self.score = ViewshedGVI(tile_root, viewing_dist=viewing_dist,
                                 observer_height=observer_height,
                                 key_col="pos")
        self.geom_cols = (("ring_x", "ring_y", "ring_sizes")
                          if poi_kind == "polygon" else ("x", "y"))
        self.key_col = key_col
        self.per_point = per_point

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        keys = batch.column(self.key_col)
        rows = batch.select([c for c in self.geom_cols
                             if c in batch.column_names])
        scored = self.score(self.sample(
            rows.append_column("pos", pa.array(np.arange(n)))))
        pos = scored.column("pos").to_numpy()
        if self.per_point:
            return scored.set_column(0, self.key_col, keys.take(pos))
        cnt = np.bincount(pos, minlength=n)
        total = np.bincount(pos, weights=scored.column("GVI").to_numpy(),
                            minlength=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.round(total / cnt, 3)
        return pa.table({
            self.key_col: keys,
            "GVI": pa.array(mean, mask=cnt == 0),
            "nr_of_points": pa.array(cnt.astype(np.int64)),
        })


# ---------------------------------------------------------------------------
# Streetview: nearest image feature + segmentation scorer (stubbed model)
# ---------------------------------------------------------------------------


class NearestImageFeature:
    """Nearest image feature within 100 m of each sample point (J7,
    visibility.py:706-717); misses get image_id "" / distance NaN."""

    def __init__(self, features_ref):
        t = side_table(features_ref)
        self.index = GridIndex(
            t.column("x").to_numpy(zero_copy_only=False),
            t.column("y").to_numpy(zero_copy_only=False))
        # keep ids as an Arrow array so the per-batch gather is a
        # zero-copy take, not a Python-list comprehension per row
        ids = t.column("image_id")
        self.image_ids = (ids.combine_chunks()
                          if isinstance(ids, pa.ChunkedArray) else ids)
        self.is_pano = t.column("is_panoramic").to_numpy(zero_copy_only=False)
        self.max_distance = 100.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("sp_x").to_numpy(zero_copy_only=False)
        y = batch.column("sp_y").to_numpy(zero_copy_only=False)
        d, idx = self.index.nearest(x, y, max_dist=self.max_distance)
        hit = idx >= 0
        taken = self.image_ids.take(pa.array(np.maximum(idx, 0)))
        ids = pc.if_else(pa.array(hit), taken, "")
        pano = np.where(hit, self.is_pano[np.maximum(idx, 0)], False)
        dist = np.where(hit, d, np.nan)
        return (
            batch.append_column("image_id", ids)
            .append_column("is_panoramic", pa.array(pano.astype(bool)))
            .append_column("feature_distance", pa.array(dist))
        )


def run_length_encoding(arr: np.ndarray):
    """RLE of a 1-D bool array → (starts, lengths, values)
    (visibility.py:747-756)."""
    n = len(arr)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool)
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    starts = np.concatenate([[0], change])
    lengths = np.diff(np.concatenate([starts, [n]]))
    return starts, lengths, arr[starts]


def find_peaks_1d(x: np.ndarray, distance: int, prominence: float) -> np.ndarray:
    """Minimal find_peaks (local maxima with min distance + prominence)
    — scipy is absent; semantics follow scipy.signal.find_peaks for the
    subset of parameters the reference uses (visibility.py:769-773)."""
    n = len(x)
    cand = [i for i in range(1, n - 1) if x[i] > x[i - 1] and x[i] >= x[i + 1]]
    peaks = []
    for i in cand:
        left_min = x[:i].min() if i > 0 else x[i]
        right_min = x[i + 1 :].min() if i < n - 1 else x[i]
        prom = x[i] - max(left_min, right_min)
        if prom >= prominence:
            peaks.append((x[i], i))
    peaks.sort(reverse=True)
    chosen: list[int] = []
    for _, i in peaks:
        if all(abs(i - j) >= distance for j in chosen):
            chosen.append(i)
    return np.array(sorted(chosen), dtype=np.int64)


def find_road_centres(seg: np.ndarray) -> np.ndarray:
    """Road-centre columns from a segmentation array: per-column road
    run lengths → peaks (M24, visibility.py:759-782)."""
    road = seg == 0
    col_runs = np.zeros(seg.shape[1])
    for c in range(seg.shape[1]):
        _, lengths, values = run_length_encoding(road[:, c])
        runs = lengths[values]
        col_runs[c] = runs.max() if len(runs) else 0
    dist = max(seg.shape[1] // 4, 1)
    return find_peaks_1d(col_runs, distance=dist, prominence=seg.shape[0] * 0.1)


class FakeSegmentation:
    """DETERMINISTIC STUB for the Mask2Former semantic segmentation
    (M23, visibility.py:738-744,876-889) — torch/transformers are not in
    this environment.

    Interface-compatible with a real scorer actor: ``media_ref →
    (H, W) uint8 class array`` (cityscapes ids; 8 = vegetation,
    11 = building, 0 = road).  Since world v3 the pattern is a
    COLUMN-STRIPE closed form of the numeric image id (vegetation where
    ``(col·a + b) mod W < thresh`` on the upper rows, a road band on the
    bottom quarter): per-image distinct, stable across actors/runs, and
    — the point — exactly reproducible by the ``streetview_gvi`` DuckDB
    oracle, which recomputes the post-crop green fraction from the same
    arithmetic.  Swap this class for a real model-backed scorer on a GPU
    cluster; nothing else changes.
    """

    H, W = 96, 192

    @classmethod
    def params(cls, image_id: str) -> tuple[int, int, int]:
        """(stripe stride a, phase b, green threshold) — closed form of
        the trailing integer of ``img-XXXXXXXX`` ids (the SQL oracle
        parses the same digits)."""
        num = int(image_id.rsplit("-", 1)[-1])
        a = 1 + 2 * (num % 48)
        b = (num * 31) % cls.W
        thresh = 30 + (num * 7) % 60
        return a, b, thresh

    def segment(self, image_id: str) -> np.ndarray:
        a, b, thresh = self.params(image_id)
        green_col = ((np.arange(self.W) * a + b) % self.W) < thresh
        seg = np.where(green_col[None, :], np.uint8(8), np.uint8(11))
        seg = np.broadcast_to(seg, (self.H, self.W)).copy()
        # a road band near the bottom so road-centre detection has signal
        seg[int(self.H * 0.75) :, :] = 0
        return seg


class SegmentationGVI:
    """Image scorer: image → green-pixel fraction (M25/M26).

    Real plumbing, stubbed decode: panoramic images get the reference's
    crop flow (drop bottom 20 %, wrap first 25 %, 4:3 crops around road
    centres, visibility.py:785-873); flat images are scored whole.  GVI
    = fraction of vegetation pixels over all crops (:892-903)."""

    VEGETATION = 8

    def __init__(self, crop_by_road_centres: bool = True):
        self.model = FakeSegmentation()  # loaded once per kernel
        self.crop_by_road_centres = bool(crop_by_road_centres)

    def _gvi_pano(self, seg: np.ndarray) -> float:
        h, w = seg.shape
        seg = seg[: int(h * 0.8), :]                      # drop bottom 20%
        seg = np.concatenate([seg, seg[:, : w // 4]], 1)  # wrap-around widen
        centres = find_road_centres(seg)
        hh, ww = seg.shape
        crop_w = int(hh * 4 / 3)
        crops = []
        if len(centres) == 0:
            crops.append(seg)
        for c in centres:
            lo = c - crop_w // 2
            hi = lo + crop_w
            if lo < 0:
                crops.append(np.concatenate([seg[:, lo % ww :], seg[:, :hi]], 1))
            elif hi > ww:
                crops.append(np.concatenate([seg[:, lo:], seg[:, : hi - ww]], 1))
            else:
                crops.append(seg[:, lo:hi])
        tot = sum(c.size for c in crops)
        green = sum(int((c == self.VEGETATION).sum()) for c in crops)
        return green / tot if tot else float("nan")

    def _gvi_pano_quarters(self, seg: np.ndarray) -> float:
        """``crop_by_road_centres=False``: four equal-width crops of the
        central band instead of the road-centre crops
        (crop_panoramic_images, visibility.py:855-873: rows
        ``h4 : h4 + int(w4 * 3/4)``, bottom 20 % already dropped)."""
        h, w = seg.shape
        seg = seg[: int(h * 0.8), :]
        hh, ww = seg.shape
        w4 = ww // 4
        h4 = hh // 4
        h43 = int(w4 * 3 / 4)
        crops = [seg[h4:h4 + h43, i * w4:(i + 1) * w4] for i in range(4)]
        tot = sum(c.size for c in crops)
        green = sum(int((c == self.VEGETATION).sum()) for c in crops)
        return green / tot if tot else float("nan")

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        pano = batch.column("is_panoramic").to_numpy(zero_copy_only=False)
        gvi = np.empty(len(ids))
        for i, img in enumerate(ids):
            if not img:
                gvi[i] = np.nan  # no image within 100 m → missing GVI
                continue
            seg = self.model.segment(img)
            if pano[i]:
                gvi[i] = (self._gvi_pano(seg) if self.crop_by_road_centres
                          else self._gvi_pano_quarters(seg))
            else:
                # flat images are scored whole; the reference's
                # road-centre suitability gate (visibility.py:960-967)
                # is intentionally NOT replicated here: the stripe
                # stub's uniform road band has no column peaks, so the
                # gate would blank every flat image — a real model
                # scorer should re-enable it
                gvi[i] = float((seg == self.VEGETATION).mean())
        return batch.append_column("GVI", pa.array(gvi))


class StreetviewPoI:
    """The streetview kernel of ``get_streetview_GVI``: per batch of PoI
    rows, the network sample points inside each row's buffer
    (``poi_kind='point'``) or inside its polygon dilated by
    ``buffer_dist`` (``'polygon'``: ``ring_x, ring_y[, ring_sizes]``
    rows), each distinct point's nearest image (``NearestImageFeature``)
    and each distinct image's GVI (``SegmentationGVI``), rolled up per
    PoI: one ``(key, GVI, nr_of_points, sample_points)`` row per input
    row, in input order.  ``nr_of_points`` counts the row's points with
    a GVI, ``GVI`` is their mean rounded to 3 or null when there is none
    (pandas ``mean``/``count``, visibility.py:1048-1049) and
    ``sample_points`` counts all of the row's points.
    ``per_point=True`` returns one row per (PoI row, sample point)
    instead: ``sp_x, sp_y, image_id, is_panoramic, feature_distance,
    GVI, key``, a point without an image keeping a NaN ``GVI``.

    The network is sampled once per kernel, every 50 m, the points
    deduplicated by value (visibility.py:624-650) and indexed; each
    image is scored once per kernel, whichever batches it appears in."""

    def __init__(self, nodes_path: str, edges_path: str, features_path: str,
                 buffer_dist: float | None, key_col: str = "doc_id",
                 poi_kind: str = "point", crop_by_road_centres: bool = True,
                 per_point: bool = False):
        pts = streetview_sample_batch(
            edge_coords_table(nodes_path, edges_path), 50.0)
        xy = np.unique(np.column_stack([pts.column("sp_x").to_numpy(),
                                        pts.column("sp_y").to_numpy()]),
                       axis=0)
        self.x, self.y = xy[:, 0], xy[:, 1]
        self.buffer_dist = float(buffer_dist or 0.0)
        self.index = GridIndex(self.x, self.y,
                               cell_size=max(self.buffer_dist, 100.0))
        self.nearest = NearestImageFeature(pq.read_table(features_path))
        self.score = SegmentationGVI(
            crop_by_road_centres=crop_by_road_centres)
        self.gvi: dict = {}  # image_id → GVI of every image scored so far
        self.polygon = poi_kind == "polygon"
        self.key_col = key_col
        self.per_point = per_point

    def _polygon_pairs(self, batch: pa.Table):
        """(row, point) pairs: the points inside each row's ring bbox
        grown by ``buffer_dist``, refined by the dilated-polygon test."""
        from .. import geom as _geom
        from .zonal import batch_rings

        rings = batch_rings(batch)
        box = np.full((len(rings), 4), np.nan)
        for i, row in enumerate(rings):
            if row:
                box[i] = _geom.rings_bbox(np.concatenate(row))
        d = self.buffer_dist
        qi, pj = self.index.in_boxes(box[:, 0] - d, box[:, 1] - d,
                                     box[:, 2] + d, box[:, 3] + d)
        keep = np.zeros(len(qi), dtype=bool)
        rows, starts = np.unique(qi, return_index=True)
        for i, lo, hi in zip(rows, starts, np.append(starts[1:], len(qi))):
            c = pj[lo:hi]
            keep[lo:hi] = _geom.points_within_rings_dist(
                self.x[c], self.y[c], rings[i], d)
        return qi[keep], pj[keep]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        keys = batch.column(self.key_col)
        if self.polygon:
            qi, pj = self._polygon_pairs(batch)
        else:
            qi, pj, _ = self.index.within(
                batch.column("x").to_numpy(zero_copy_only=False),
                batch.column("y").to_numpy(zero_copy_only=False),
                self.buffer_dist)
        # nearest image once per distinct point, GVI once per distinct
        # image and kernel (the miss "" scores NaN)
        upt, inv = np.unique(pj, return_inverse=True)
        feats = self.nearest(pa.table({"sp_x": self.x[upt],
                                       "sp_y": self.y[upt]}))
        code = (feats.column("image_id").combine_chunks()
                .dictionary_encode().indices.to_numpy())
        first = np.unique(code, return_index=True)[1]
        images = feats.take(pa.array(first)).select(["image_id",
                                                     "is_panoramic"])
        ids = images.column("image_id").to_pylist()
        new = [i for i, img in enumerate(ids) if img not in self.gvi]
        scored = self.score(images.take(pa.array(new, pa.int64())))
        self.gvi.update(zip([ids[i] for i in new],
                            scored.column("GVI").to_pylist()))
        gvi = np.array([self.gvi[img] for img in ids], np.float64)[code][inv]
        if self.per_point:
            return (feats.take(pa.array(inv))
                    .append_column("GVI", pa.array(gvi))
                    .append_column(self.key_col, keys.take(pa.array(qi))))
        ok = np.isfinite(gvi)
        cnt = np.bincount(qi[ok], minlength=n)
        total = np.bincount(qi[ok], weights=gvi[ok], minlength=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.round(total / cnt, 3)
        return pa.table({
            self.key_col: keys,
            "GVI": pa.array(mean, mask=cnt == 0),
            "nr_of_points": pa.array(cnt.astype(np.int64)),
            "sample_points": pa.array(
                np.bincount(qi, minlength=n).astype(np.int64)),
        })
