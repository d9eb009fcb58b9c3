"""Network-distance accessibility + isochrone ("network buffer") AoIs.

Stateful kernels holding the street graph (SURVEY §2.3 "GraphActor"):
the graph tables reach them as object-store references (the API's are
kept per network file version, :func:`~greenex_py_ray.sidefiles.shared`),
each kernel builds a :class:`~greenex_py_ray.state.graph.CSRGraph` in
``__init__``, and per-batch work is Dijkstra-based.

Replicated semantics (with citations):

* ``NetworkDistance`` — accessibility.py:226-273 network branch:
  nearest node (J3), ego subgraph radius ``1.5*target_dist`` by length,
  pseudo-entrances = subgraph nodes < 20 m from a candidate greenspace
  boundary (J4), distance = network distance + euclidean home snap
  (+ entrance→centroid penalty when ``destination='centroids'``),
  ``round(min, 0)``; miss/beyond → distance := target, flag False
  (:312-320).  Candidate greenspaces are those whose boundary comes
  within ``target_dist`` of the PoI (the reference's
  ``clip(buffer(target_dist))`` pre-filter, :228 — see the deviation
  note in the class docstring).

* ``IsochroneZonal`` — availability.py:263-275 + make_iso_poly
  (:1042-1065): ego subgraph at ``buffer_dist``, isochrone area =
  25 m capsules around subgraph edges with holes filled
  (``Polygon(union.exterior)``), zonal mean/std of the band over pixels
  whose centers fall inside (clamp ≥0, population std, round 3 —
  :289).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import geom
from ..sidefiles import side_table
from ..sources import synth
from ..state.graph import CSRGraph, fill_holes, points_to_segments_dist
from ..state.index import GridIndex
from ..state.tiles import TileStore
from .zonal import pct_strings


def _graph(nodes_ref, edges_ref) -> CSRGraph:
    """The street graph of a node and an edge side (:func:`side_table`)."""
    nodes, edges = side_table(nodes_ref), side_table(edges_ref)
    return CSRGraph(
        nodes.column("node_id").to_numpy(zero_copy_only=False),
        nodes.column("x").to_numpy(zero_copy_only=False),
        nodes.column("y").to_numpy(zero_copy_only=False),
        edges.column("u").to_numpy(zero_copy_only=False),
        edges.column("v").to_numpy(zero_copy_only=False),
        edges.column("length").to_numpy(zero_copy_only=False),
    )


def _rings_from_table(gs: pa.Table):
    """greenspace table → list of (gs_id, exterior ring ndarray (N,2),
    centroid xy) — ring arrays sliced off the flat Arrow buffers (no
    per-vertex Python in a kernel's ``__init__``)."""
    from .coverage import _rings_list

    ids = gs.column("gs_id").to_pylist()
    cx = gs.column("centroid_x").to_pylist()
    cy = gs.column("centroid_y").to_pylist()
    return [(ids[i], ring, cx[i], cy[i])
            for i, ring in enumerate(_rings_list(gs))]


class NetworkDistance:
    """Kernel: network shortest distance to greenspace.

    Deviation vs the reference: entrance nodes are tested against the
    ORIGINAL greenspace boundary, not the boundary of the
    ``clip(buffer)`` result — the clip arc of the reference introduces
    artificial boundary segments; candidates are pre-filtered to
    boundaries within ``target_dist`` of the PoI, which preserves the
    reference's candidate set.
    """

    def __init__(self, nodes_ref, edges_ref, greenspace_ref,
                 target_dist: float, destination: str = "centroids",
                 distance_type: str = "network", key_col: str = "doc_id",
                 flag_name: str = "greenspace_within_target"):
        self.graph = _graph(nodes_ref, edges_ref)
        gs = side_table(greenspace_ref)
        self.greenspaces = _rings_from_table(gs)
        # grid index over ring vertices for candidate prefilter
        vx = np.concatenate([g[1][:, 0] for g in self.greenspaces])
        vy = np.concatenate([g[1][:, 1] for g in self.greenspaces])
        self.vert_owner = np.concatenate(
            [np.full(len(g[1]), i, dtype=np.int64) for i, g in enumerate(self.greenspaces)]
        )
        self.vert_index = GridIndex(vx, vy)
        self.target = float(target_dist)
        self.destination = destination
        # "network": Dijkstra distances (accessibility.py:234-273);
        # "euclidean" (+ destination="entrance"): straight-line distance
        # to the nearest pseudo-entrance node (accessibility.py:286-301)
        self.distance_type = distance_type
        self.key_col = key_col
        self.dist_name = "distance_to_greenspace"
        self.flag_name = flag_name

    def _candidates(self, x: float, y: float) -> list[int]:
        """Greenspaces whose ring comes within target_dist of the PoI.

        Vertex-grid prefilter with a margin of the longest ring edge,
        refined by exact segment distance."""
        qi, pj, _ = self.vert_index.within(np.array([x]), np.array([y]),
                                           self.target + 1500.0)
        cands = np.unique(self.vert_owner[pj])
        keep = []
        for ci in cands:
            ring = self.greenspaces[ci][1]
            d = points_to_segments_dist(
                np.array([x]), np.array([y]),
                ring[:, 0], ring[:, 1],
                np.roll(ring[:, 0], -1), np.roll(ring[:, 1], -1),
            )[0]
            if d <= self.target:
                keep.append(ci)
        return keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        n = len(x)
        dist_out = np.full(n, self.target)
        flag_out = np.zeros(n, dtype=bool)
        g = self.graph
        pos, snap = g.nearest_node(x, y)
        for i in range(n):
            cands = self._candidates(x[i], y[i])
            if not cands:
                continue
            src = int(pos[i])
            penalty_home = float(snap[i])
            reach = g.dijkstra(src, cutoff=self.target * 1.5)
            if not reach:
                continue
            ego = np.fromiter(reach.keys(), dtype=np.int64, count=len(reach))
            ego_d = np.fromiter(reach.values(), dtype=np.float64, count=len(reach))
            nx_, ny_ = g.x[ego], g.y[ego]
            best = np.inf
            for ci in cands:
                gs_id, ring, cx, cy = self.greenspaces[ci]
                bd = points_to_segments_dist(
                    nx_, ny_, ring[:, 0], ring[:, 1],
                    np.roll(ring[:, 0], -1), np.roll(ring[:, 1], -1),
                )
                ent = bd < 20.0  # accessibility.py:243-246
                if not ent.any():
                    continue
                if self.distance_type == "euclidean":
                    # euclidean/entrance branch: straight-line PoI →
                    # pseudo-entrance (accessibility.py:295-299)
                    d = np.sqrt((nx_[ent] - x[i]) ** 2 + (ny_[ent] - y[i]) ** 2)
                else:
                    d = ego_d[ent] + penalty_home
                    if self.destination == "centroids":
                        d = d + np.sqrt((nx_[ent] - cx) ** 2 + (ny_[ent] - cy) ** 2)
                m = d.min()
                if m < best:
                    best = m
            if np.isfinite(best):
                m = np.round(best, 0)  # accessibility.py:269-271
                if m <= self.target:
                    dist_out[i] = m
                    flag_out[i] = True
        return pa.table(
            {
                self.key_col: batch.column(self.key_col),
                self.dist_name: pa.array(dist_out),
                self.flag_name: pa.array(flag_out),
            }
        )


class _IsochroneAoI:
    """Shared per-PoI isochrone machinery: Dijkstra ego subgraph →
    25 m edge-capsule mask over the covering pixel window → hole fill —
    the raster form of the reference's ``make_iso_poly``
    (availability.py:1042-1065: buffer ego edges by ``edge_buff``,
    union, take the exterior ring = fill holes)."""

    def __init__(self, nodes_ref, edges_ref, buffer_dist: float,
                 edge_buff: float = 25.0, key_col: str = "doc_id"):
        self.graph = _graph(nodes_ref, edges_ref)
        self.buffer_dist = float(buffer_dist)
        self.edge_buff = float(edge_buff)
        self.key_col = key_col

    def _snap(self, batch: pa.Table) -> np.ndarray:
        """Nearest graph node position of every PoI in the batch."""
        pos, _ = self.graph.nearest_node(
            batch.column("x").to_numpy(zero_copy_only=False),
            batch.column("y").to_numpy(zero_copy_only=False))
        return pos

    def _aoi_mask(self, src: int):
        """(r0, c0, hole-filled bool mask) of the isochrone AoI around
        snapped node position ``src`` in global pixel coordinates, or
        None when the ego graph is empty."""
        g = self.graph
        reach = g.dijkstra(int(src), cutoff=self.buffer_dist)
        ego = set(reach.keys())
        eu, ev = g.ego_edges(ego)
        if len(eu) == 0:
            return None
        ax, ay = g.x[eu], g.y[eu]
        bx, by = g.x[ev], g.y[ev]
        res = synth.RASTER_RES
        c0 = int(np.floor((min(ax.min(), bx.min()) - self.edge_buff) / res))
        c1 = int(np.floor((max(ax.max(), bx.max()) + self.edge_buff) / res))
        r0 = int(np.floor((min(ay.min(), by.min()) - self.edge_buff) / res))
        r1 = int(np.floor((max(ay.max(), by.max()) + self.edge_buff) / res))
        h, w = r1 - r0 + 1, c1 - c0 + 1
        px = (np.arange(c0, c1 + 1, dtype=np.float64) + 0.5) * res
        py = (np.arange(r0, r1 + 1, dtype=np.float64) + 0.5) * res
        gx, gy = np.meshgrid(px, py, indexing="xy")
        d = points_to_segments_dist(gx.ravel(), gy.ravel(), ax, ay, bx, by)
        mask = (d <= self.edge_buff).reshape(h, w)
        return r0, c0, fill_holes(mask)


class IsochroneZonal(_IsochroneAoI):
    """Kernel: per-PoI isochrone AoI + zonal band stats.

    One kernel = graph + tile store; per row: Dijkstra ego subgraph →
    capsule mask over the covering pixel window → hole fill → clamped
    mean/std (availability.py:289 semantics).  Emits final metrics
    directly (the AoI never leaves the kernel — no polygon shuffle).
    """

    def __init__(self, nodes_ref, edges_ref, tile_root: str,
                 buffer_dist: float, band: str = "ndvi",
                 edge_buff: float = 25.0, key_col: str = "doc_id",
                 mean_name: str = "mean_NDVI", std_name: str = "std_NDVI"):
        super().__init__(nodes_ref, edges_ref, buffer_dist,
                         edge_buff=edge_buff, key_col=key_col)
        self.store = TileStore(tile_root)
        self.band = band
        self.mean_name = mean_name
        self.std_name = std_name

    def _aoi_stats(self, src: int):
        aoi = self._aoi_mask(src)
        if aoi is None:
            return np.nan, np.nan
        r0, c0, mask = aoi
        h, w = mask.shape
        vals = self.store.window(self.band, r0, c0, h, w)[mask]
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            return np.nan, np.nan
        vals = np.maximum(vals, 0.0)
        mean = vals.mean()
        return round(float(mean), 3), round(float(vals.std()), 3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        pos = self._snap(batch)
        means = np.empty(len(pos))
        stds = np.empty(len(pos))
        for i, src in enumerate(pos):
            means[i], stds[i] = self._aoi_stats(src)
        # empty AoI (no ego edges / no pixels) → NULL, matching the SQL
        # oracle's empty-group aggregate (a NaN would hash-mismatch)
        miss = ~np.isfinite(means)
        return pa.table(
            {
                self.key_col: batch.column(self.key_col),
                self.mean_name: pa.array(means, pa.float64(), mask=miss),
                self.std_name: pa.array(stds, pa.float64(), mask=miss),
            }
        )


class IsochroneLandcover(_IsochroneAoI):
    """Kernel: landcover class percentages inside each PoI's
    isochrone AoI — ``get_landcover_percentages`` with
    ``buffer_type='network'`` (reference availability.py:505-516 +
    calculate_landcover_percentages:1068-1082: rasterize the isochrone
    polygon, count pixels per class / total masked pixels).  Same
    capsule mask as :class:`IsochroneZonal`; nodata (non-finite) pixels
    are excluded from the total like the reference's masked read."""

    def __init__(self, nodes_ref, edges_ref, tile_root: str,
                 buffer_dist: float, classmap: dict[int, str],
                 band: str = "lulc", edge_buff: float = 25.0,
                 key_col: str = "doc_id", stringify: bool = False):
        super().__init__(nodes_ref, edges_ref, buffer_dist,
                         edge_buff=edge_buff, key_col=key_col)
        self.store = TileStore(tile_root)
        self.band = band
        self.classes = sorted(classmap)
        self.names = [classmap[c] for c in self.classes]
        self.stringify = stringify

    def _pcts(self, src: int) -> np.ndarray:
        aoi = self._aoi_mask(src)
        if aoi is None:
            return np.full(len(self.classes), np.nan)
        r0, c0, mask = aoi
        h, w = mask.shape
        vals = self.store.window(self.band, r0, c0, h, w)[mask]
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            return np.full(len(self.classes), np.nan)
        counts = np.array([(vals == cls).sum() for cls in self.classes],
                          dtype=np.float64)
        return np.round(counts / vals.size * 100.0, 3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        pos = self._snap(batch)
        pcts = np.empty((len(pos), len(self.classes)))
        for i, src in enumerate(pos):
            pcts[i] = self._pcts(src)
        cols = {self.key_col: batch.column(self.key_col)}
        for j, name in enumerate(self.names):
            col = pcts[:, j]
            cols[name] = (pct_strings(col) if self.stringify else
                          pa.array(col, pa.float64(), mask=~np.isfinite(col)))
        return pa.table(cols)


class IsochroneCoverage(_IsochroneAoI):
    """Kernel: percent of each PoI's isochrone AoI covered by the
    polygon side table — ``get_canopy_percentage`` /
    ``get_greenspace_percentage`` with ``buffer_type='network'``
    (reference availability.py:710-764 / 943-997: clip the vector layer
    by the isochrone polygon, covered area / AoI area).

    Documented deviation: the AoI here is the same hole-filled 25 m
    capsule PIXEL mask as :class:`IsochroneZonal`, and coverage is the
    fraction of mask pixel CENTERS inside the polygon layer — the
    raster analog of the reference's vector clip at the engine's
    lattice resolution (the euclidean-buffer forms remain vector-exact
    via :class:`~greenex_py_ray.stages.coverage.PolygonCoverage`).
    ``dissolve=True`` counts membership in ANY polygon (union
    semantics, availability.py:997); ``dissolve=False`` sums per-member
    hits so overlaps double-count, like the reference's per-polygon
    clip-sum (availability.py:764)."""

    def __init__(self, nodes_ref, edges_ref, polys_ref,
                 buffer_dist: float, edge_buff: float = 25.0,
                 key_col: str = "doc_id", name: str = "canopy_cover",
                 stringify: bool = False, dissolve: bool = True):
        super().__init__(nodes_ref, edges_ref, buffer_dist,
                         edge_buff=edge_buff, key_col=key_col)
        from .coverage import _polys_list

        polys = _polys_list(side_table(polys_ref))
        self.polys = polys  # list of multi-ring (even-odd) polygons
        vx = np.concatenate([r[:, 0] for p in polys for r in p])
        vy = np.concatenate([r[:, 1] for p in polys for r in p])
        self.vert_owner = np.concatenate(
            [np.full(len(r), pi, dtype=np.int64)
             for pi, p in enumerate(polys) for r in p])
        self.vert_index = GridIndex(vx, vy)
        self.max_span = max(
            (float(np.hypot(*(r.max(0) - r.min(0))))
             for p in polys for r in p), default=0.0)
        self.name = name
        self.stringify = stringify
        self.dissolve = dissolve

    def _pct(self, src: int) -> float:
        aoi = self._aoi_mask(src)
        if aoi is None:
            return np.nan
        r0, c0, mask = aoi
        res = synth.RASTER_RES
        rr, cc = np.nonzero(mask)
        px = (cc + c0 + 0.5) * res
        py = (rr + r0 + 0.5) * res
        # candidate polygons: any vertex within (AoI reach + poly span)
        # of the PoI; the ego graph lies within buffer_dist network
        # distance of the SNAP node, whose euclidean offset from the
        # PoI is unbounded in general — use the mask's own bbox radius
        h, w = mask.shape
        cxm = (c0 + w / 2.0) * res
        cym = (r0 + h / 2.0) * res
        reach = 0.5 * res * float(np.hypot(h, w)) + self.edge_buff
        _, pj, _ = self.vert_index.within(
            np.array([cxm]), np.array([cym]), reach + self.max_span)
        if not len(pj):
            return 0.0
        cand = np.unique(self.vert_owner[pj])
        if self.dissolve:
            inside = np.zeros(len(px), dtype=bool)
            for pi in cand:
                inside |= geom.points_in_rings(px, py, self.polys[pi])
            covered = float(inside.sum())
        else:
            covered = 0.0
            for pi in cand:
                covered += float(
                    geom.points_in_rings(px, py, self.polys[pi]).sum())
        return covered / len(px) * 100.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        pct = np.array([self._pct(src) for src in self._snap(batch)])
        pct = np.where(np.isfinite(pct), np.round(pct, 2), pct)
        col = (pct_strings(pct) if self.stringify
               else pa.array(pct, pa.float64(), mask=~np.isfinite(pct)))
        return pa.table({self.key_col: batch.column(self.key_col),
                         self.name: col})


class ODMatrix:
    """Kernel: origin→destination network cost matrix.

    Per origin: snap to the nearest network node
    (``ox.distance.nearest_nodes`` semantics), one cutoff-bounded
    Dijkstra, then emit a row per DESTINATION node reached within
    ``cutoff`` network metres — total cost = snap penalty + network
    distance (the reference's ``penalty_home`` convention,
    accessibility.py:255-273, applied many-to-many).

    Destinations are a deterministic node subset
    (``node_id % dest_mod == 0``) or an explicit id array — at fleet
    scale the destination set (facilities) is tiny next to the node
    table, so it rides inside the broadcast graph state; origins
    parallelize across the kernel's tasks.
    """

    def __init__(self, nodes_ref, edges_ref, cutoff: float,
                 dest_mod: int | None = None, dest_ids=None):
        self.graph = _graph(nodes_ref, edges_ref)
        g = self.graph
        if dest_ids is not None:
            dest = np.sort(np.asarray(dest_ids, dtype=np.int64))
            self.dest_pos = np.flatnonzero(
                np.isin(g.node_id, dest, assume_unique=False))
        elif dest_mod is not None:
            self.dest_pos = np.flatnonzero(g.node_id % dest_mod == 0)
        else:
            raise ValueError("ODMatrix needs dest_mod or dest_ids")
        self.is_dest = np.zeros(len(g.node_id), dtype=bool)
        self.is_dest[self.dest_pos] = True
        self.cutoff = float(cutoff)
        self.key_col = "doc_id"

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        keys = batch.column(self.key_col)
        g = self.graph
        out_key, out_dest, out_cost = [], [], []
        pos_all, snap_all = g.nearest_node(x, y)
        for i in range(len(x)):
            reach = g.dijkstra(int(pos_all[i]), cutoff=self.cutoff)
            if not reach:
                continue
            ego = np.fromiter(reach.keys(), dtype=np.int64, count=len(reach))
            ego_d = np.fromiter(reach.values(), dtype=np.float64,
                                count=len(reach))
            m = self.is_dest[ego]
            if not m.any():
                continue
            dpos, dd = ego[m], ego_d[m]
            out_key.append(np.full(len(dpos), i, dtype=np.int64))
            out_dest.append(g.node_id[dpos])
            out_cost.append(np.round(dd + float(snap_all[i]), 3))
        if not out_key:
            return pa.table({self.key_col: keys.slice(0, 0),
                             "dest_node": pa.array([], pa.int64()),
                             "cost": pa.array([], pa.float64())})
        ki = np.concatenate(out_key)
        return pa.table({
            self.key_col: keys.take(pa.array(ki)),
            "dest_node": pa.array(np.concatenate(out_dest)),
            "cost": pa.array(np.concatenate(out_cost)),
        })
