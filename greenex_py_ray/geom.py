"""Vectorized numpy geometry kernels (shapely/geopandas replacement).

The sandbox has no shapely/geopandas/rasterio; every geometric primitive
the reference delegates to those libraries is reimplemented here over
plain float64 arrays.  Polygons are represented as ring coordinate
arrays ``(N, 2)`` (closed implicitly: last vertex need not repeat the
first); multi-ring polygons (holes, MULTIPOLYGON parts) as lists of
rings combined EVEN-ODD — ring order and orientation are irrelevant to
every consumer (area, centroid, membership, overlay).

Reference citations (what each kernel reproduces):
* ``buffer_ngon``            — ``geometry.buffer(dist)``: GreenExp/availability.py:236
* ``polygon_area``           — ``gdf.area``: GreenExp/accessibility.py:130
* ``polygon_centroid``       — ``geometry.centroid``: GreenExp/accessibility.py:134
* ``points_in_polygon``      — ``sjoin(predicate='within')``: GreenExp/visibility.py:653-660
* ``clip_polygon_convex``    — ``gdf.clip(aoi)``: GreenExp/availability.py:764
* ``interpolate_along``      — ``line.interpolate(d)``: GreenExp/visibility.py:624-650
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Buffers
# ---------------------------------------------------------------------------


def buffer_ngon(x: float, y: float, radius: float, quad_segs: int = 16) -> np.ndarray:
    """Circle-approximation polygon matching shapely's ``buffer`` N-gon
    discretization (``quad_segs`` segments per quarter circle; shapely 1.x
    default ``resolution=16`` used by the reference environment).

    Returns ``(4*quad_segs, 2)`` ring vertices, counter-clockwise,
    starting at angle 0.
    """
    n = 4 * quad_segs
    ang = np.arange(n, dtype=np.float64) * (2.0 * np.pi / n)
    return np.column_stack((x + radius * np.cos(ang), y + radius * np.sin(ang)))


def buffer_ngon_many(x: np.ndarray, y: np.ndarray,
                     radius: float) -> np.ndarray:
    """Vectorized ``buffer_ngon`` for many centers → ``(M, 4*quad_segs, 2)``."""
    n = 4 * 16
    ang = np.arange(n, dtype=np.float64) * (2.0 * np.pi / n)
    cx = np.asarray(x, dtype=np.float64)[:, None]
    cy = np.asarray(y, dtype=np.float64)[:, None]
    return np.stack((cx + radius * np.cos(ang)[None, :], cy + radius * np.sin(ang)[None, :]), axis=-1)


# ---------------------------------------------------------------------------
# Areas / centroids
# ---------------------------------------------------------------------------


def polygon_area(ring: np.ndarray) -> float:
    """Shoelace area (positive regardless of orientation)."""
    x = ring[:, 0]
    y = ring[:, 1]
    return abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))) / 2.0


def polygon_centroid(ring: np.ndarray) -> tuple[float, float]:
    """Area-weighted centroid (shapely ``geometry.centroid`` semantics)."""
    x = ring[:, 0]
    y = ring[:, 1]
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    cross = x * yn - xn * y
    a = cross.sum() / 2.0
    if a == 0.0:
        return float(x.mean()), float(y.mean())
    cx = float(((x + xn) * cross).sum() / (6.0 * a))
    cy = float(((y + yn) * cross).sum() / (6.0 * a))
    return cx, cy


def rings_bbox(ring: np.ndarray) -> tuple[float, float, float, float]:
    return (
        float(ring[:, 0].min()),
        float(ring[:, 1].min()),
        float(ring[:, 0].max()),
        float(ring[:, 1].max()),
    )


# ---------------------------------------------------------------------------
# Point-in-polygon (crossing number), vectorized over points
# ---------------------------------------------------------------------------


def points_in_polygon(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Boolean mask: which points fall inside the polygon ring.

    Crossing-number test, vectorized over points × edges.  Boundary
    behavior follows the half-open edge rule (consistent, matches the
    strict ``within`` predicate closely enough for off-boundary data).
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    x0 = ring[:, 0]
    y0 = ring[:, 1]
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)
    # edges × points: does the horizontal ray from each point cross edge j?
    cond = (y0[None, :] > py[:, None]) != (y1[None, :] > py[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x0[None, :] + (py[:, None] - y0[None, :]) / (y1 - y0)[None, :] * (x1 - x0)[None, :]
    crossings = (cond & (px[:, None] < xint)).sum(axis=1)
    return (crossings % 2).astype(bool)


def points_in_rings(px: np.ndarray, py: np.ndarray,
                    rings: "list[np.ndarray]") -> np.ndarray:
    """Even-odd membership against a multi-ring geometry (holes /
    multipolygon): total crossings over all rings, mod 2."""
    px = np.asarray(px, dtype=np.float64)
    total = np.zeros(len(px), dtype=np.int64)
    for ring in rings:
        total += points_in_polygon(px, py, ring).astype(np.int64)
    return (total % 2).astype(bool)


# ---------------------------------------------------------------------------
# Convex clipping (Sutherland–Hodgman) — AoI buffers/boxes are convex
# ---------------------------------------------------------------------------


def clip_polygon_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Clip ``subject`` ring by the CONVEX ring ``clip`` (CCW).

    Returns the clipped ring (possibly empty, shape (0,2)).  Used for
    canopy/greenspace % cover (``availability.py:764,997``): the clipped
    area over the AoI area is exact for convex AoIs (circle N-gons,
    boxes).
    """
    out = np.asarray(subject, dtype=np.float64)
    cx = clip[:, 0]
    cy = clip[:, 1]
    nx = np.roll(cx, -1)
    ny = np.roll(cy, -1)
    for j in range(len(clip)):
        if len(out) == 0:
            break
        ex0, ey0, ex1, ey1 = cx[j], cy[j], nx[j], ny[j]
        # signed side of each subject vertex relative to the clip edge
        sx = out[:, 0]
        sy = out[:, 1]
        side = (ex1 - ex0) * (sy - ey0) - (ey1 - ey0) * (sx - ex0)
        inside = side >= 0.0
        if inside.all():
            continue
        nxt = np.roll(np.arange(len(out)), -1)
        new_pts = []
        for i in range(len(out)):
            k = nxt[i]
            if inside[i]:
                new_pts.append(out[i])
                if not inside[k]:
                    new_pts.append(_edge_intersect(out[i], out[k], side[i], side[k]))
            elif inside[k]:
                new_pts.append(_edge_intersect(out[i], out[k], side[i], side[k]))
        out = np.array(new_pts, dtype=np.float64).reshape(-1, 2)
    return out


def _edge_intersect(p0, p1, s0, s1):
    t = s0 / (s0 - s1)
    return p0 + t * (p1 - p0)


# ---------------------------------------------------------------------------
# Linestring interpolation (sample-point generation)
# ---------------------------------------------------------------------------


def linestring_lengths(coords: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each vertex of an (N,2) linestring."""
    seg = np.hypot(np.diff(coords[:, 0]), np.diff(coords[:, 1]))
    return np.concatenate(([0.0], np.cumsum(seg)))


def interpolate_along(coords: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Points at given arc-length distances along a linestring
    (shapely ``line.interpolate`` semantics; distances clamped to
    [0, length])."""
    cum = linestring_lengths(coords)
    total = cum[-1]
    d = np.clip(np.asarray(distances, dtype=np.float64), 0.0, total)
    seg_idx = np.clip(np.searchsorted(cum, d, side="right") - 1, 0, len(cum) - 2)
    seg_len = cum[seg_idx + 1] - cum[seg_idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(seg_len > 0, (d - cum[seg_idx]) / seg_len, 0.0)
    p0 = coords[seg_idx]
    p1 = coords[seg_idx + 1]
    return p0 + (p1 - p0) * t[:, None]


# ---------------------------------------------------------------------------
# Point ↔ segment distances (capsule and dilated-ring membership)
# ---------------------------------------------------------------------------


def seg_d2(px, py, sx0, sy0, sx1, sy1) -> np.ndarray:
    """Squared distance from point ``(px, py)`` to segment ``(sx0, sy0)``
    – ``(sx1, sy1)``, elementwise (numpy broadcasting)."""
    dx = sx1 - sx0
    dy = sy1 - sy0
    len2 = dx * dx + dy * dy
    qx = px - sx0
    qy = py - sy0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(len2 > 0, (qx * dx + qy * dy) / len2, 0.0)
    t = np.clip(t, 0.0, 1.0)
    return (qx - t * dx) ** 2 + (qy - t * dy) ** 2


def _point_seg_d2(px: np.ndarray, py: np.ndarray,
                  sx0: np.ndarray, sy0: np.ndarray,
                  sx1: np.ndarray, sy1: np.ndarray) -> np.ndarray:
    """(P, E) squared distances from each point to each segment."""
    return seg_d2(px[:, None], py[:, None], sx0[None, :], sy0[None, :],
                  sx1[None, :], sy1[None, :])


def _ring_edges(rings: "list[np.ndarray]"):
    """Concatenated (x0, y0, x1, y1) edge arrays over all rings."""
    xs0, ys0, xs1, ys1 = [], [], [], []
    for ring in rings:
        xs0.append(ring[:, 0])
        ys0.append(ring[:, 1])
        xs1.append(np.roll(ring[:, 0], -1))
        ys1.append(np.roll(ring[:, 1], -1))
    return (np.concatenate(xs0), np.concatenate(ys0),
            np.concatenate(xs1), np.concatenate(ys1))


def points_within_rings_dist(px: np.ndarray, py: np.ndarray,
                             rings: "list[np.ndarray]",
                             dist: float = 0.0) -> np.ndarray:
    """Boolean mask: each point is inside the (even-odd multi-ring)
    polygon, or within ``dist`` of its boundary — i.e. member of the
    polygon dilated by ``dist`` (shapely ``geom.buffer(d).contains(pt)``
    in the exact Minkowski limit; the engine-wide euclidean-buffer
    deviation documented in MIGRATION.md).  The pixel-centre AoI test of
    the dilated polygon kernels; its sqrt boundary-tie rule is the SQL
    oracles' (``sqrt(least(d2)) <= d``)."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    mask = points_in_rings(px, py, rings)
    if dist <= 0.0 or mask.all():
        return mask
    sx0, sy0, sx1, sy1 = _ring_edges(rings)
    out = np.flatnonzero(~mask)
    # chunk the P×E matrix so a huge boundary can't blow the heap
    step = max(1, (1 << 20) // max(1, len(sx0)))
    for s in range(0, len(out), step):
        idx = out[s:s + step]
        # sqrt-compare: the SQL oracles' tie rule (sqrt(least(d2)) <= d)
        near = np.sqrt(_point_seg_d2(px[idx], py[idx], sx0, sy0, sx1, sy1)
                       .min(axis=1)) <= dist
        mask[idx] = near
    return mask


def segments_within_rings_dist(ax: np.ndarray, ay: np.ndarray,
                               bx: np.ndarray, by: np.ndarray,
                               rings: "list[np.ndarray]",
                               dist: float = 0.0) -> np.ndarray:
    """Boolean mask: each segment (a→b) intersects the (even-odd
    multi-ring) polygon dilated by ``dist`` — an endpoint is inside,
    the segment crosses/touches a boundary edge, or (``dist`` > 0) it
    passes within ``dist`` of one.  This is the reference's
    ``network_edges.intersects(poi.buffer(buffer_dist))`` predicate
    (visibility.py:568-572) in the exact-disk limit."""
    ax = np.asarray(ax, dtype=np.float64)
    ay = np.asarray(ay, dtype=np.float64)
    bx = np.asarray(bx, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    mask = points_in_rings(ax, ay, rings) | points_in_rings(bx, by, rings)
    sx0, sy0, sx1, sy1 = _ring_edges(rings)
    d2 = dist * dist
    todo = np.flatnonzero(~mask)
    step = max(1, (1 << 20) // max(1, len(sx0)))
    for s in range(0, len(todo), step):
        idx = todo[s:s + step]
        sax, say = ax[idx][:, None], ay[idx][:, None]
        sbx, sby = bx[idx][:, None], by[idx][:, None]
        cx0, cy0 = sx0[None, :], sy0[None, :]
        cx1, cy1 = sx1[None, :], sy1[None, :]
        # orientation signs: seg(a,b) straddles edge(c0,c1) and vice versa
        o1 = (sbx - sax) * (cy0 - say) - (sby - say) * (cx0 - sax)
        o2 = (sbx - sax) * (cy1 - say) - (sby - say) * (cx1 - sax)
        o3 = (cx1 - cx0) * (say - cy0) - (cy1 - cy0) * (sax - cx0)
        o4 = (cx1 - cx0) * (sby - cy0) - (cy1 - cy0) * (sbx - cx0)
        pair = (o1 * o2 <= 0.0) & (o3 * o4 <= 0.0)
        # collinear-but-disjoint pairs satisfy the straddle products
        # (all four orientations 0) without intersecting — shapely
        # `intersects` says False, so require 1D bbox overlap there
        col = (o1 == 0.0) & (o2 == 0.0)
        if col.any():
            ovl = ((np.minimum(sax, sbx) <= np.maximum(cx0, cx1))
                   & (np.maximum(sax, sbx) >= np.minimum(cx0, cx1))
                   & (np.minimum(say, sby) <= np.maximum(cy0, cy1))
                   & (np.maximum(say, sby) >= np.minimum(cy0, cy1)))
            pair &= ~col | ovl
        hit = pair.any(axis=1)
        if dist > 0.0:
            miss = ~hit
            if miss.any():
                j = idx[miss]
                # non-crossing segment↔segment distance = min of the
                # four endpoint-to-other-segment distances
                dmin = np.minimum(
                    np.minimum(
                        _point_seg_d2(ax[j], ay[j], sx0, sy0, sx1, sy1),
                        _point_seg_d2(bx[j], by[j], sx0, sy0, sx1, sy1),
                    ).min(axis=1),
                    np.minimum(
                        _point_seg_d2(sx0, sy0, ax[j], ay[j], bx[j], by[j]),
                        _point_seg_d2(sx1, sy1, ax[j], ay[j], bx[j], by[j]),
                    ).min(axis=0),
                )
                # sqrt-compare: the SQL oracles' tie rule
                # (sqrt(least(d2)) <= d)
                hit[miss] |= np.sqrt(dmin) <= dist
        mask[idx] = hit
    return mask


# ---------------------------------------------------------------------------
# General polygon overlay (non-convex, holes, multipolygon) — exact
# area/centroid of boolean combinations via vertical-slab trapezoid
# decomposition.  Replaces the convex-only inclusion–exclusion wherever
# inputs may be concave (reference semantics are shapely
# ``unary_union``/``clip`` on arbitrary polygons,
# GreenExp/availability.py:764,937-940).
# ---------------------------------------------------------------------------


def is_convex(ring: np.ndarray) -> bool:
    """True if the ring is convex (cross products of consecutive edges
    never change sign; collinear vertices allowed)."""
    r = np.asarray(ring, dtype=np.float64)
    if len(r) < 4:
        return True
    dx = np.diff(np.concatenate([r[:, 0], r[:1, 0]]))
    dy = np.diff(np.concatenate([r[:, 1], r[:1, 1]]))
    cross = dx * np.roll(dy, -1) - dy * np.roll(dx, -1)
    return bool((cross >= -1e-12).all() or (cross <= 1e-12).all())


def _overlay_edges(layers):
    """Flatten layers (list of list-of-rings) to non-vertical edge arrays
    (x0, y0, x1, y1, layer_id)."""
    X0, Y0, X1, Y1, L = [], [], [], [], []
    for li, rings in enumerate(layers):
        for ring in rings:
            r = np.asarray(ring, dtype=np.float64)
            if len(r) < 3:
                continue
            x0 = r[:, 0]
            y0 = r[:, 1]
            x1 = np.roll(x0, -1)
            y1 = np.roll(y0, -1)
            keep = x0 != x1  # vertical edges never cross a slab interior
            X0.append(x0[keep])
            Y0.append(y0[keep])
            X1.append(x1[keep])
            Y1.append(y1[keep])
            L.append(np.full(int(keep.sum()), li, dtype=np.int64))
    if not X0:
        z = np.empty(0)
        return z, z, z, z, np.empty(0, np.int64)
    return (np.concatenate(X0), np.concatenate(Y0), np.concatenate(X1),
            np.concatenate(Y1), np.concatenate(L))


#: row-chunk size for the pairwise crossing computation: bounds the
#: transient matrices at O(chunk × E) so a many-thousand-edge blob
#: (reachable via dissolve_dataset's general path) cannot allocate
#: gigabytes inside one map_groups actor (round-2 advice)
_CROSSING_CHUNK = 2048


def _crossing_xs(x0, y0, x1, y1) -> np.ndarray:
    """X coordinates of proper interior crossings between all edge pairs
    (vectorized O(E²) work, O(chunk·E) memory; slab boundaries must
    include these so edge order is constant within each slab)."""
    E = len(x0)
    if E < 2:
        return np.empty(0)
    dx = x1 - x0
    dy = y1 - y0
    out = []
    for lo in range(0, E, _CROSSING_CHUNK):
        hi = min(lo + _CROSSING_CHUNK, E)
        d1x = dx[lo:hi, None]
        d1y = dy[lo:hi, None]
        ex = x0[None, :] - x0[lo:hi, None]
        ey = y0[None, :] - y0[lo:hi, None]
        denom = d1x * dy[None, :] - d1y * dx[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (ex * dy[None, :] - ey * dx[None, :]) / denom
            u = (ex * d1y - ey * d1x) / denom
        hit = (np.isfinite(t) & np.isfinite(u)
               & (t > 0) & (t < 1) & (u > 0) & (u < 1))
        # strict upper triangle of the full matrix: global j > global i
        cols = np.arange(E)[None, :]
        rows = np.arange(lo, hi)[:, None]
        hit &= cols > rows
        ri, _ = np.nonzero(hit)
        ti = t[hit]
        gi = ri + lo
        out.append(x0[gi] + ti * dx[gi])
    return np.concatenate(out) if out else np.empty(0)


def _overlay_predicate(mode):
    if callable(mode):
        return mode
    if mode == "union":
        return lambda par: par.any(axis=-1)
    if mode == "intersection":
        return lambda par: par.all(axis=-1)
    if mode == "first_and_rest":
        # layer 0 (the AoI) AND the union of the remaining layers
        return lambda par: par[..., 0] & par[..., 1:].any(axis=-1)
    raise ValueError(f"unknown overlay mode {mode!r}")


def overlay_moments(layers, mode="union"):
    """(area, cx, cy) of the region where ``mode`` holds over the layer
    parity vector.

    ``layers``: list of layers; each layer is a list of ``(N, 2)`` rings
    combined EVEN-ODD within the layer (so one polygon-with-holes or one
    multipolygon is one layer).  ``mode``: "union" | "intersection" |
    "first_and_rest" | vectorized callable ``(K, n_layers) bool → (K,)``.

    Exact for straight-line arithmetic: slab boundaries include every
    vertex x and every pairwise edge crossing, so inside each slab the
    edges are totally ordered in y and each region strip is a trapezoid
    (areas by the trapezoid rule, moments by Simpson — both exact for
    the linear/quadratic integrands involved).  Centroid is (0, 0) when
    the area is 0.
    """
    pred = _overlay_predicate(mode)
    nlay = len(layers)
    x0, y0, x1, y1, lay = _overlay_edges(layers)
    if len(x0) == 0:
        return 0.0, 0.0, 0.0
    cuts = np.unique(np.concatenate([x0, x1, _crossing_xs(x0, y0, x1, y1)]))
    xa = cuts[:-1]
    xb = cuts[1:]
    wpos = xb > xa
    xa, xb = xa[wpos], xb[wpos]
    xm = 0.5 * (xa + xb)
    emin = np.minimum(x0, x1)
    emax = np.maximum(x0, x1)
    inv_dx = 1.0 / (x1 - x0)
    slope = (y1 - y0) * inv_dx
    area = mx = my = 0.0
    onehot_eye = np.eye(nlay, dtype=np.int64)
    for s in range(len(xa)):
        cross = np.flatnonzero((emin < xm[s]) & (emax > xm[s]))
        if len(cross) < 2:
            continue
        ya = y0[cross] + (xa[s] - x0[cross]) * slope[cross]
        ym = y0[cross] + (xm[s] - x0[cross]) * slope[cross]
        yb = y0[cross] + (xb[s] - x0[cross]) * slope[cross]
        order = np.argsort(ym, kind="stable")
        ya, ym, yb = ya[order], ym[order], yb[order]
        ls = lay[cross][order]
        # parity after each edge, per layer (cumulative XOR of toggles)
        par = (np.cumsum(onehot_eye[ls], axis=0) & 1).astype(bool)
        inside = pred(par[:-1])  # strip k lies between edge k and k+1
        if not inside.any():
            continue
        k = np.flatnonzero(inside)
        w = xb[s] - xa[s]
        hA = ya[k + 1] - ya[k]
        hM = ym[k + 1] - ym[k]
        hB = yb[k + 1] - yb[k]
        area += w * float((hA + hB).sum()) / 2.0
        mx += w * float((xa[s] * hA + 4.0 * xm[s] * hM + xb[s] * hB).sum()) / 6.0
        gA = (ya[k + 1] ** 2 - ya[k] ** 2) / 2.0
        gM = (ym[k + 1] ** 2 - ym[k] ** 2) / 2.0
        gB = (yb[k + 1] ** 2 - yb[k] ** 2) / 2.0
        my += w * float((gA + 4.0 * gM + gB).sum()) / 6.0
    if area <= 0.0:
        return max(area, 0.0), 0.0, 0.0
    return area, mx / area, my / area


def overlay_area(layers, mode="union") -> float:
    return overlay_moments(layers, mode)[0]


def clip_area_general(subject_rings, clip_rings) -> float:
    """Area of (subject ∩ clip) for arbitrary polygons (each side a ring
    or list of rings, even-odd)."""
    s = [subject_rings] if isinstance(subject_rings, np.ndarray) else list(subject_rings)
    c = [clip_rings] if isinstance(clip_rings, np.ndarray) else list(clip_rings)
    return overlay_area([s, c], "intersection")


# ---------------------------------------------------------------------------
# Mixed WKT parsing (POINT + POLYGON exterior rings)
# ---------------------------------------------------------------------------


def _parse_ring_text(txt: str) -> np.ndarray:
    pts = np.array(
        [[float(a) for a in p.split()] for p in txt.split(",")],
        dtype=np.float64,
    )
    if len(pts) > 1 and np.array_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    return pts


def parse_wkt_geoms(wkt: "list[str]"):
    """Parse POINT / POLYGON / MULTIPOLYGON WKT strings (holes
    supported; reference accepts MultiPolygon PoIs at
    GreenExp/availability.py:81-84).

    Returns (x, y, kinds, rings): x/y are the point coords or the
    polygon centroid (the reference converts polygon PoIs to centroids
    before point ops — M3, accessibility.py:53-56); ``rings[i]`` is the
    list of ``(N, 2)`` ring arrays for polygons (exterior(s) and holes,
    even-odd semantics; ring→part assignment is irrelevant for every
    even-odd consumer), None for points.  Single-ring POLYGON centroids
    use the closed-form shoelace centroid (bit-identical to round-1);
    multi-ring geometries use the exact even-odd overlay centroid.
    """
    import re

    ring_re = re.compile(r"\(([^()]+)\)")
    n = len(wkt)
    x = np.full(n, np.nan)
    y = np.full(n, np.nan)
    kinds: list[str] = [""] * n
    rings: list = [None] * n
    for i, w in enumerate(wkt):
        if w.startswith("POINT"):
            body = w[w.index("(") + 1 : w.rindex(")")]
            px, py = body.split()
            x[i] = float(px)
            y[i] = float(py)
            kinds[i] = "POINT"
        elif w.startswith("POLYGON") or w.startswith("MULTIPOLYGON"):
            rs = [_parse_ring_text(t) for t in ring_re.findall(w)]
            rings[i] = rs
            if len(rs) == 1:
                cx, cy = polygon_centroid(rs[0])
            else:
                _, cx, cy = overlay_moments([rs], "union")
            x[i] = cx
            y[i] = cy
            kinds[i] = "POLYGON" if w.startswith("POLYGON") else "MULTIPOLYGON"
        else:
            kinds[i] = w.split("(", 1)[0]
    return x, y, kinds, rings
