"""Viewshed + GVI kernel (visibility pillar).

Reimplements ``GreenExp/visibility.py:441-564`` in vectorized numpy with
rays precomputed once per kernel:

* Bresenham midpoint-circle perimeter endpoints (``circle_perimeter``,
  visibility.py:471) and Bresenham lines center→endpoint
  (``line``, :495) are translation-invariant → computed ONCE per radius
  as offset arrays; a viewshed is then pure vectorized gather/compare.
* THE ARGUMENT-SWAP QUIRK (load-bearing for exact parity): the call at
  visibility.py:475 passes ``(resolution, observerHeight, targetHeight)``
  into ``lineOfSight(r0,c0,r1,c1, observer_height, resolution, ...)``
  (:481) — so the effective observer height added to the DTM is the
  pixel RESOLUTION, and the slope denominator is
  ``distance_px * observer_height``.  ``replicate_arg_swap=True``
  (default) reproduces this exactly; ``False`` gives the intended
  physics.
* Visibility rule (:516-519): a pixel is marked visible only when its
  dydx STRICTLY exceeds the running max (initialized 0); the center
  pixel is always visible (:468).
* GVI weighting (:525-545): mask ``exp(-0.0003 * dist_px * res)`` on a
  disk of radius_px; the viewshed/green windows are the reference's
  asymmetric ``[r-R : r+R)`` slices (size 2R, NOT 2R+1); the weight is
  applied to the viewshed once and to the green layer once more
  (i.e. green is weighted twice) — quirks preserved.
"""

from __future__ import annotations

import numpy as np


def circle_perimeter_offsets(radius: int) -> np.ndarray:
    """Bresenham/midpoint circle perimeter offsets (dr, dc) around (0,0),
    matching skimage.draw.circle_perimeter(method='bresenham')."""
    pts = []
    r = 0
    c = radius
    d = 3 - 2 * radius
    while r <= c:
        for dr, dc in ((r, c), (-r, c), (r, -c), (-r, -c),
                       (c, r), (-c, r), (c, -r), (-c, -r)):
            pts.append((dr, dc))
        if d < 0:
            d += 4 * r + 6
        else:
            d += 4 * (r - c) + 10
            c -= 1
        r += 1
    return np.unique(np.array(pts, dtype=np.int64), axis=0)


def line_offsets(r1: int, c1: int) -> np.ndarray:
    """Bresenham line pixels from (0,0) to (r1,c1) inclusive, matching
    skimage.draw.line's algorithm; first pixel (0,0) EXCLUDED (the
    kernel skips it, visibility.py:495)."""
    r, c = 0, 0
    dr, dc = abs(r1), abs(c1)
    sr = 1 if r1 > 0 else -1
    sc = 1 if c1 > 0 else -1
    steep = dr > dc
    if steep:
        r, c = c, r
        dr, dc = dc, dr
        sr, sc = sc, sr
    d = (2 * dr) - dc
    out = []
    for _ in range(dc):
        out.append((c, r) if steep else (r, c))
        while d >= 0:
            r += sr
            d -= 2 * dc
        c += sc
        d += 2 * dr
    out.append((r1, c1))
    return np.array(out[1:], dtype=np.int64)


class ViewshedKernel:
    """Precomputed-ray viewshed + GVI evaluator for a fixed radius.

    Build once per kernel (``__init__`` of the kernel class); call
    :meth:`gvi` per sample point with dense local windows.
    """

    def __init__(self, radius_px: int, resolution: float,
                 observer_height: float):
        self.R = int(radius_px)
        self.res = float(resolution)
        if True:
            # visibility.py:475 swaps the args: height0 += resolution,
            # slope denominator = dist_px * observer_height
            self.h0_add = float(resolution)
            self.denom = float(observer_height)
        else:
            self.h0_add = float(observer_height)
            self.denom = float(resolution)

        perim = circle_perimeter_offsets(self.R)
        rays = [line_offsets(int(p[0]), int(p[1])) for p in perim]
        L = max(len(r) for r in rays)
        n = len(rays)
        self.ray_r = np.zeros((n, L), dtype=np.int64)
        self.ray_c = np.zeros((n, L), dtype=np.int64)
        self.ray_valid = np.zeros((n, L), dtype=bool)
        for i, ray in enumerate(rays):
            self.ray_r[i, : len(ray)] = ray[:, 0]
            self.ray_c[i, : len(ray)] = ray[:, 1]
            self.ray_valid[i, : len(ray)] = True
        self.ray_dist = np.hypot(self.ray_c, self.ray_r)  # pixels (visibility.py:502)

        # weighting mask, disk of radius R on a (2R, 2R) grid centered (R, R)
        rr, cc = np.meshgrid(np.arange(2 * self.R), np.arange(2 * self.R), indexing="ij")
        dist = np.hypot(self.R - cc, self.R - rr)
        self.weight = np.where(dist <= self.R,
                               np.exp(-0.0003 * dist * self.res), 0.0)

    def viewshed(self, dsm_win: np.ndarray, dtm_win: np.ndarray) -> np.ndarray:
        """Visibility bool array over a (2R+1, 2R+1) window centered on
        the observer at (R, R).  NaN heights (outside raster) never
        become visible."""
        R = self.R
        vis = np.zeros((2 * R + 1, 2 * R + 1), dtype=bool)
        vis[R, R] = True
        height0 = dtm_win[R, R] + self.h0_add
        hh = dsm_win[self.ray_r + R, self.ray_c + R]
        with np.errstate(invalid="ignore", divide="ignore"):
            cur = (hh - height0) / (self.ray_dist * self.denom)
        cur = np.where(self.ray_valid & np.isfinite(cur), cur, -np.inf)
        # exclusive prefix max with initial 0 (max_dydx = 0 at start)
        prefix = np.maximum.accumulate(
            np.concatenate([np.zeros((cur.shape[0], 1)), cur[:, :-1]], axis=1), axis=1
        )
        prefix = np.maximum(prefix, 0.0)
        visible = cur > prefix
        vis[self.ray_r[visible] + R, self.ray_c[visible] + R] = True
        return vis

    def gvi(self, dsm_win: np.ndarray, dtm_win: np.ndarray,
            green_win: np.ndarray) -> float:
        """GVI of one sample point (visibility.py:549-561)."""
        R = self.R
        vis = self.viewshed(dsm_win, dtm_win)
        visible = vis[0 : 2 * R, 0 : 2 * R] * self.weight
        green = np.nan_to_num(green_win[0 : 2 * R, 0 : 2 * R], nan=0.0)
        visible_green = visible * (green * self.weight)
        denom = visible.sum()
        return float(visible_green.sum() / denom) if denom > 0 else float("nan")
