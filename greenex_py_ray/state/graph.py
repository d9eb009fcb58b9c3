"""Street-network graph state for kernels (CSR + Dijkstra).

The reference holds one global ``networkx.MultiDiGraph`` in driver
memory and walks it per row (`/root/reference/GreenExp/
accessibility.py:149-156,234-273`, ``availability.py:255-275``).  Here
the graph is a compact CSR structure built ONCE per kernel from the
(broadcast) node/edge tables; per-batch operations are single-source
Dijkstra with cutoff (= ``nx.ego_graph(radius, distance='length')``),
entrance detection, and isochrone membership tests.

Semantics replicated:
* nearest node      — ``ox.distance.nearest_nodes`` (euclidean 1-NN)
* ego subgraph      — nodes within ``radius`` network distance
* network distance  — ``nx.shortest_path(weight='length')`` sum +
  ``penalty_home`` (+ ``penalty_centroid``), min over entrances,
  ``round(min,0)`` (accessibility.py:226-273)
* entrances         — subgraph nodes with euclidean distance to the
  greenspace boundary < 20 m (accessibility.py:242-246)
* isochrone         — ``make_iso_poly`` (availability.py:1042-1065):
  union of 25 m edge capsules of the ego subgraph, holes filled
  (``sg.Polygon(union.exterior)``).  Realized as a pixel-membership
  test: distance-to-subgraph-edges ≤ edge_buff, then flood-fill hole
  closing — equivalent for a connected subgraph.
"""

from __future__ import annotations

import heapq

import numpy as np

from .index import GridIndex


class CSRGraph:
    """Undirected weighted graph in CSR form + node coordinate index."""

    def __init__(self, node_id: np.ndarray, x: np.ndarray, y: np.ndarray,
                 u: np.ndarray, v: np.ndarray, length: np.ndarray,
                 index_cell: float = 500.0):
        self.node_id = np.asarray(node_id, dtype=np.int64)
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        n = len(self.node_id)
        self._id_to_pos = dict(zip(self.node_id.tolist(), range(n)))
        pu = np.fromiter((self._id_to_pos[i] for i in np.asarray(u).tolist()),
                         dtype=np.int64, count=len(u))
        pv = np.fromiter((self._id_to_pos[i] for i in np.asarray(v).tolist()),
                         dtype=np.int64, count=len(v))
        w = np.asarray(length, dtype=np.float64)
        # symmetrize
        src = np.concatenate([pu, pv])
        dst = np.concatenate([pv, pu])
        ww = np.concatenate([w, w])
        order = np.argsort(src, kind="stable")
        self.indptr = np.searchsorted(src[order], np.arange(n + 1))
        self.indices = dst[order]
        self.weights = ww[order]
        self.kdtree = GridIndex(self.x, self.y, cell_size=index_cell)

    def nearest_node(self, qx: np.ndarray, qy: np.ndarray):
        """Euclidean nearest node position + snap distance
        (``ox.distance.nearest_nodes`` + penalty_home)."""
        d, pos = self.kdtree.nearest(qx, qy)
        return pos, d

    def dijkstra(self, source_pos: int, cutoff: float):
        """Single-source shortest path lengths within ``cutoff``.
        Returns dict pos→dist (the ego subgraph node set)."""
        dist = {source_pos: 0.0}
        heap = [(0.0, source_pos)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, np.inf):
                continue
            for k in range(self.indptr[u], self.indptr[u + 1]):
                vtx = int(self.indices[k])
                nd = d + self.weights[k]
                if nd <= cutoff and nd < dist.get(vtx, np.inf):
                    dist[vtx] = nd
                    heapq.heappush(heap, (nd, vtx))
        return dist

    def ego_edges(self, node_set: set[int]):
        """Edge (pos_u, pos_v) pairs of the subgraph induced by
        ``node_set`` (each undirected edge reported once)."""
        out_u, out_v = [], []
        for u in node_set:
            for k in range(self.indptr[u], self.indptr[u + 1]):
                vtx = int(self.indices[k])
                if vtx in node_set and u < vtx:
                    out_u.append(u)
                    out_v.append(vtx)
        return np.array(out_u, dtype=np.int64), np.array(out_v, dtype=np.int64)


def points_to_segments_dist(px: np.ndarray, py: np.ndarray,
                            ax: np.ndarray, ay: np.ndarray,
                            bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Min distance from each point to ANY of the segments (vectorized
    points × segments)."""
    dx = (bx - ax)[None, :]
    dy = (by - ay)[None, :]
    len2 = dx * dx + dy * dy
    qx = px[:, None] - ax[None, :]
    qy = py[:, None] - ay[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(len2 > 0, (qx * dx + qy * dy) / len2, 0.0)
    t = np.clip(t, 0.0, 1.0)
    ddx = qx - t * dx
    ddy = qy - t * dy
    return np.sqrt(ddx * ddx + ddy * ddy).min(axis=1)


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill holes of a 2-D boolean mask (regions of False not connected
    to the border become True) — replicates
    ``sg.Polygon(union.exterior)`` hole-closing for a connected union.
    Iterative frontier BFS in numpy (4-connectivity)."""
    h, w = mask.shape
    outside = np.zeros((h, w), dtype=bool)
    frontier = np.zeros((h, w), dtype=bool)
    border = ~mask
    frontier[0, :] = border[0, :]
    frontier[-1, :] = border[-1, :]
    frontier[:, 0] = border[:, 0]
    frontier[:, -1] = border[:, -1]
    outside |= frontier
    while frontier.any():
        grow = np.zeros((h, w), dtype=bool)
        grow[1:, :] |= frontier[:-1, :]
        grow[:-1, :] |= frontier[1:, :]
        grow[:, 1:] |= frontier[:, :-1]
        grow[:, :-1] |= frontier[:, 1:]
        frontier = grow & border & ~outside
        outside |= frontier
    return ~outside
