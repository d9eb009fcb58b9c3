"""Geostatistical stages: IDW interpolation and great-circle kNN.

Two classic per-point exposure operators the reference's availability /
accessibility pillars imply but never ship as standalone stages:

* **Inverse-distance-weighted interpolation** — estimate a field value
  at every PoI from a small set of irregular sample stations (the
  standard fallback when no raster covers an AoI; see e.g. the zonal
  path `/root/reference/GreenExp/availability.py:90-140` which assumes a
  gridded NDVI — IDW is what you do when you only have station
  measurements).  Physical plan: the station table is small and
  shipped to every kernel, which indexes it in a ``GridIndex``; each
  batch takes its (point, station) pairs within the radius from one
  vectorized grid gather and sums per-pair terms.  No shuffle.

* **Great-circle (haversine) nearest-facility** — the geodesic twin of
  ``stages/access.NearestGreenspace`` (accessibility.py:277-320) for
  lon/lat inputs where a euclidean planar distance is wrong.  Same
  small-side plan, over a lon/lat grid of the facilities.

Cross-engine determinism (the DuckDB gate hashes values):

* IDW uses smoothed power-2 weights ``w = 1/(d² + 1)`` — no ``pow``/
  ``sqrt`` in the weight, only +,*,/ which are IEEE-exact in both
  engines — and **integer-quantized partial sums**: each term is
  rounded to a fixed grid (``round(w * 1e12)`` / ``round(w*v * 1e9)``)
  and summed as int64, so summation order cannot change the result.
* haversine ranks candidates by ``round(d_km, 6), facility_id`` so a
  last-ulp libm difference between numpy and DuckDB cannot flip the
  argmin unless two stations are within a millimetre of equidistant.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray

from ..cells import cell_indices, pack_cell, unpack_cell
from ..functions.exchange import bucket_exchange
from ..sidefiles import side_table
from ..state.index import GridIndex, _ranges, _seg_argmin
from .stencil import (HEX_RING, QUEEN, ROOK, cell_counts, col, moments,
                      stencil)

#: integer quantization grids for the order-independent IDW sums
IDW_DEN_Q = 1e12
IDW_NUM_Q = 1e9
EARTH_R_KM = 6371.0


class IDWInterpolator:
    """Kernel: smoothed power-2 IDW from broadcast stations.

    ``stations_ref``: (ObjectRef of) a pyarrow Table with columns
    ``sx, sy, val``.  Appends per input point:

    * ``n_within`` — stations with ``d² <= radius²``;
    * ``idw`` — ``round(Σ w·v / Σ w, 6)`` over those stations with
      ``w = 1/(d² + 1)``, computed through the int64-quantized sums
      described in the module docstring (NULL when ``n_within == 0``).

    The (point, station) pairs come from one grid gather over stations
    in ``radius``-sized cells; the grid only prunes.
    """

    def __init__(self, stations_ref, radius: float):
        t = side_table(stations_ref)
        self.sx = t.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        self.sy = t.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        self.val = t.column("val").to_numpy(zero_copy_only=False).astype(np.float64)
        self.radius = float(radius)
        self.r2 = float(radius) * float(radius)
        self.x_col, self.y_col = "x", "y"
        self.grid = GridIndex(self.sx, self.sy,
                              cell_size=max(self.radius, 1e-9))

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        pq, pc = self.grid._pairs(x, y, self.radius)
        dx = x[pq] - self.sx[pc]
        dy = y[pq] - self.sy[pc]
        d2 = dx * dx + dy * dy
        hit = d2 <= self.r2
        pq, pc, d2 = pq[hit], pc[hit], d2[hit]
        w = 1.0 / (d2 + 1.0)
        # int64-quantized terms -> order-independent exact sums
        den = np.zeros(len(x), dtype=np.int64)
        num = np.zeros(len(x), dtype=np.int64)
        np.add.at(den, pq, np.round(w * IDW_DEN_Q).astype(np.int64))
        np.add.at(num, pq,
                  np.round(w * self.val[pc] * IDW_NUM_Q).astype(np.int64))
        n_within = np.bincount(pq, minlength=len(x)).astype(np.int64)
        safe_den = np.where(den > 0, den, 1)
        # num/den = (num/1e9)/(den/1e12) = num * 1e3 / den
        idw = np.round(num * (IDW_DEN_Q / IDW_NUM_Q) / safe_den, 6)
        idw_arr = pa.array(idw, pa.float64(),
                           mask=(n_within == 0))
        return (batch.append_column("n_within", pa.array(n_within))
                .append_column("idw", idw_arr))


def haversine_km(lon1, lat1, lon2, lat2):
    """Great-circle distance in km (vectorized, broadcasting inputs).

    Formula written to match the SQL oracle term-for-term:
    ``2R · asin(sqrt(sin²(Δφ/2) + cosφ₁·cosφ₂·sin²(Δλ/2)))``.
    """
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1) / 2.0
    dlam = np.radians(lon2 - lon1) / 2.0
    a = np.sin(dphi) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlam) ** 2
    return 2.0 * EARTH_R_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


#: degree cell of :class:`HaversineNearest`'s lon/lat facility grid
HAVERSINE_CELL_DEG = 0.5


class HaversineNearest:
    """Kernel: nearest broadcast facility by great-circle km.

    ``facilities_ref``: (ObjectRef of) a pyarrow Table with columns
    ``fid, flon, flat``.  Appends ``fid`` (nearest facility id, ties by
    smaller id on the round-6 distance) and ``dist_km`` (round 3); a
    query without finite coordinates, or with no facility at all, gets
    fid -1 and a NaN distance.

    The search runs ``GridIndex.nearest``-style passes over a lon/lat
    grid of the facilities: every still-open query cell gathers its
    square of cells, all cells at once, and each query takes its
    minimum ``(round(d, 6), fid)`` over the square.  A cell is done
    when a chord lower bound on every facility outside its square
    clears each query's best (or the square covers every facility);
    see :meth:`_needed`.  Lon in [-180, 180], lat in [-90, 90].
    """

    def __init__(self, facilities_ref):
        t = side_table(facilities_ref)
        self.fid = t.column("fid").to_numpy(zero_copy_only=False).astype(np.int64)
        self.flon = t.column("flon").to_numpy(zero_copy_only=False).astype(np.float64)
        self.flat = t.column("flat").to_numpy(zero_copy_only=False).astype(np.float64)
        # ties on the quantized distance break by ascending fid: presort,
        # so the lowest facility row among ties has the smallest fid
        order = np.argsort(self.fid, kind="stable")
        self.fid = self.fid[order]
        self.flon = self.flon[order]
        self.flat = self.flat[order]
        self.lon_col, self.lat_col = "lon", "lat"
        self.grid = GridIndex(self.flon, self.flat,
                              cell_size=HAVERSINE_CELL_DEG)
        self.cos_lat_max = np.cos(np.radians(
            min(89.9, float(np.abs(self.flat).max(initial=0.0)))))
        self.lon_lo = float(self.flon.min(initial=0.0))
        self.lon_hi = float(self.flon.max(initial=0.0))

    def _needed(self, lon, lat, dq):
        """Per query: the smallest square radius (cells) that settles
        its best round-6 distance ``dq``, or -1 if none can.

        A facility outside a square of ``R`` cells is more than
        ``sep = R·cs`` degrees away in lat or lon.  With haversine term
        a, the distance is 2E·asin(sqrt(a)) >= 2E·sqrt(a) (a chord), and
        a >= sin²(Δφ/2) for a lat separation, a >= cosφq·cosφf·sin²(Δλ/2)
        for a lon separation.  So 2E·sqrt(cosφq·cos(lat_max))·sin(sep/2)
        bounds both (cosφf >= cos(lat_max); the factor is <= 1).  Across
        the antimeridian a lon separation is only ``360 - D`` degrees,
        D the query's widest lon gap to the facility extent, so sep
        is capped there (and at 180).  2e-6 is the round-6 tie slack."""
        cos_pair = np.sqrt(np.maximum(np.cos(np.radians(lat)), 0.0)
                           * self.cos_lat_max)
        wrap = 360.0 - np.maximum(np.abs(lon - self.lon_lo),
                                  np.abs(lon - self.lon_hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (dq + 2e-6) / (2.0 * EARTH_R_KM * cos_pair)
        reach = np.sin(np.radians(np.minimum(wrap, 180.0)) / 2.0)
        ok = np.isfinite(t) & (t <= reach)
        need = np.full(len(dq), -1, dtype=np.int64)
        sep = 2.0 * np.degrees(np.arcsin(t[ok]))
        # the 1e-9-cell slack absorbs float rounding in cell assignment
        need[ok] = np.floor(sep / HAVERSINE_CELL_DEG + 1e-9).astype(np.int64) + 1
        return need

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column(self.lon_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        lat = batch.column(self.lat_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        best = np.full(len(lon), -1, dtype=np.int64)
        ok = np.flatnonzero(np.isfinite(lon) & np.isfinite(lat))
        g = self.grid
        if len(ok) and len(self.fid):
            order, starts, nq, cx, cy = g._cells(lon[ok], lat[ok])
            order = ok[order]
            gap, cap = g._reach(cx, cy)
            radius = np.minimum(gap + 1, cap)
            active = np.arange(len(starts))
            while len(active):
                r = radius[active]
                nqa = nq[active]
                qsel = order[_ranges(starts[active], nqa)]
                pq, pc, qn = g._square_pairs(qsel, nqa, cx[active],
                                             cy[active], r)
                d = haversine_km(lon[pq], lat[pq],
                                 self.flon[pc], self.flat[pc])
                dq, best[qsel] = _seg_argmin(np.round(d, 6), pc, qn)
                need = self._needed(lon[qsel], lat[qsel], dq)
                first = np.cumsum(nqa) - nqa
                need_cell = np.maximum.reduceat(need, first)
                unsettled = np.minimum.reduceat(need, first) < 0
                found = qn[first] > 0
                done = (r >= cap[active]) | (found & ~unsettled
                                             & (need_cell <= r))
                grow = np.where(~found, 2 * r,
                                np.where(unsettled, cap[active],
                                         np.maximum(need_cell, r + 1)))
                radius[active] = np.minimum(grow, cap[active])
                active = active[~done]
        hit = best >= 0
        draw = np.full(len(lon), np.nan)
        draw[hit] = haversine_km(lon[hit], lat[hit], self.flon[best[hit]],
                                 self.flat[best[hit]])
        fid = np.where(hit, self.fid[np.maximum(best, 0)], -1)
        return (batch.append_column("fid", pa.array(fid))
                .append_column("dist_km",
                               pa.array(np.round(draw, 3),
                                        pa.float64())))


#: KDE weight quantization grid (int64 nano-weights)
KDE_Q = 1e9


class KDEPartial:
    """map_batches stage: per-batch partial Gaussian kernel density.

    Each point spreads ``w = exp(-d2 / denom)`` (``denom = 2σ²``, a
    precomputed literal so both engines divide by the identical double)
    onto every grid cell whose CENTER lies within ``radius``; weights
    quantize to int64 nano-weights so the downstream groupby sum is
    order-independent.  The batch collapses to distinct touched cells
    before the shuffle (classic partial-aggregate: shuffle payload is
    O(touched cells), not O(points × kernel width²)).

    Emits ``(ix, iy, n_contrib, density_q)`` partials; finish with
    ``groupby(['ix','iy']).sum`` — see :func:`kde_grid`.
    """

    def __init__(self, cell_size: float, sigma: float, radius: float,
                 nx: int, ny: int, x_col: str = "x", y_col: str = "y"):
        self.cs = float(cell_size)
        self.denom = 2.0 * float(sigma) * float(sigma)
        self.r = float(radius)
        self.nx, self.ny = int(nx), int(ny)
        self.x_col, self.y_col = x_col, y_col
        k = int(np.floor(self.r / self.cs)) + 1
        self.offs = np.arange(-k, k + 1, dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        n = len(x)
        base_ix = np.floor(x / self.cs).astype(np.int64)
        base_iy = np.floor(y / self.cs).astype(np.int64)
        # (n, k, k) neighborhood of candidate cells per point
        ix = base_ix[:, None, None] + self.offs[None, :, None]
        iy = base_iy[:, None, None] + self.offs[None, None, :]
        cx = ix * self.cs + self.cs / 2.0
        cy = iy * self.cs + self.cs / 2.0
        dx = cx - x[:, None, None]
        dy = cy - y[:, None, None]
        d2 = dx * dx + dy * dy
        ok = ((d2 <= self.r * self.r) & (ix >= 0) & (ix < self.nx)
              & (iy >= 0) & (iy < self.ny))
        ixb = np.broadcast_to(ix, d2.shape)
        iyb = np.broadcast_to(iy, d2.shape)
        q = np.round(np.exp(-d2[ok] / self.denom) * KDE_Q).astype(np.int64)
        key = ixb[ok] * self.ny + iyb[ok]
        uk, inv = np.unique(key, return_inverse=True)
        dens = np.zeros(len(uk), dtype=np.int64)
        cnt = np.zeros(len(uk), dtype=np.int64)
        np.add.at(dens, inv, q)
        np.add.at(cnt, inv, 1)
        return pa.table({
            "ix": pa.array(uk // self.ny), "iy": pa.array(uk % self.ny),
            "n_contrib": pa.array(cnt), "density_q": pa.array(dens),
        })


def kde_grid(ds: "ray.data.Dataset", cell_size: float, sigma: float,
             radius: float, nx: int, ny: int) -> "ray.data.Dataset":
    """Gaussian heatmap over an ``nx × ny`` grid: per-batch partial
    densities → one O(touched-cells) groupby sum."""
    from ray.data.aggregate import Sum

    part = ds.map_batches(
        KDEPartial(cell_size, sigma, radius, nx, ny, "x", "y"),
        batch_format="pyarrow", zero_copy_batch=True)
    out = part.groupby(["ix", "iy"]).aggregate(
        Sum("n_contrib", alias_name="n_contrib"),
        Sum("density_q", alias_name="density_q"))
    return out


def hex_axial(x: np.ndarray, y: np.ndarray,
              size: float) -> tuple[np.ndarray, np.ndarray]:
    """Pointy-top axial hex coordinates (Red Blob Games' public
    pixel→hex formula: fractional axial transform + cube rounding).
    Every arithmetic step mirrors the SQL oracle's expression tree
    token for token — only IEEE +,-,*,/,sqrt,floor,abs — so the bin
    ids are bit-identical across engines."""
    c = np.sqrt(3.0) / 3.0
    q = (c * x - y / 3.0) / size
    r = (y * (2.0 / 3.0)) / size
    s = -q - r
    rq = np.floor(q + 0.5)
    rr = np.floor(r + 0.5)
    rs = np.floor(s + 0.5)
    dq = np.abs(rq - q)
    dr = np.abs(rr - r)
    ds_ = np.abs(rs - s)
    fix_q = (dq > ds_) & (dq > dr)
    fix_r = (~fix_q) & (dr > ds_)
    hq = np.where(fix_q, -rr - rs, rq).astype(np.int64)
    hr = np.where(fix_r, -rq - rs, rr).astype(np.int64)
    return hq, hr


def hexbin(ds: "ray.data.Dataset", size: float) -> "ray.data.Dataset":
    """Hexagonal binning: one output row per touched hex with the
    point count — the hex partition key a density map / spatial
    shuffle uses where squares alias along diagonals.

    Scale shape: per-batch partial counts collapse each batch to its
    distinct hexes (one ``cells.pack_cell`` key each) before the
    groupby, so the shuffle payload is O(#touched hexes), not
    O(#points) (see :mod:`.stencil`)."""

    def decode(batch: pa.Table) -> pa.Table:
        hq, hr = unpack_cell(col(batch, "ck"))
        return pa.table({"hq": hq, "hr": hr, "n": batch.column("n")})

    return cell_counts(ds, partial(hex_axial, size=size)).map_batches(
        decode, batch_format="pyarrow", zero_copy_batch=True)


def hex_kring(ds: "ray.data.Dataset", size: float) -> "ray.data.Dataset":
    """K-ring (k=1) neighborhood aggregation on the hex lattice — the
    H3-style density smooth: per occupied hex, its own count plus the
    counts of its 6 axial neighbors (ring_n), and how many of those
    neighbors are occupied (n_nbr).  The plan is :func:`hexbin`'s
    counts and one :func:`.stencil.stencil` over the 7-hex ring:
    O(7·touched hexes) shuffle payload, never the points.  Only
    occupied hexes appear in the output (the emission join is inner on
    the occupied set)."""

    def decode(batch: pa.Table) -> pa.Table:
        hq, hr = unpack_cell(col(batch, "ck"))
        return pa.table({"hq": hq, "hr": hr, "n": batch.column("n"),
                         "ring_n": batch.column("nx"),
                         "n_nbr": col(batch, "w") - 1})

    cells = cell_counts(ds, partial(hex_axial, size=size))
    return stencil(cells, HEX_RING).map_batches(
        decode, batch_format="pyarrow", zero_copy_batch=True)


def tile_pyramid(ds: "ray.data.Dataset", base_cell: float,
                 levels: int = 3) -> "ray.data.Dataset":
    """Multi-zoom tile-count pyramid: point counts per cell at
    ``levels`` zooms, each zoom doubling the cell size (the
    pre-aggregation a map renderer / density service reads instead of
    rescanning points).

    Zoom ``levels-1`` is the finest (cell = ``base_cell``); each parent
    cell id is the child's ``>> 1``.  One batch pass emits partial
    counts for EVERY zoom (child batch collapses 4:1 per level up), so
    a single groupby ships O(touched cells × 4/3) rows total — one
    shuffle for the whole pyramid, not one per level."""
    from ray.data.aggregate import Sum

    def partial_counts(batch: pa.Table) -> pa.Table:
        cx, cy = cell_indices(col(batch, "x"), col(batch, "y"), base_cell)
        zs, ks, ns = [], [], []
        for z in range(levels - 1, -1, -1):
            uk, cnt = np.unique(pack_cell(cx, cy), return_counts=True)
            zs.append(np.full(len(uk), z, dtype=np.int64))
            ks.append(uk)
            ns.append(cnt.astype(np.int64))
            # arithmetic >> floors toward -inf — exactly floor(c/2),
            # matching the SQL parent derivation for negative cells too
            cx, cy = cx >> 1, cy >> 1
        cx, cy = unpack_cell(np.concatenate(ks))
        return pa.table({"zoom": pa.array(np.concatenate(zs)),
                         "cx": pa.array(cx), "cy": pa.array(cy),
                         "n": pa.array(np.concatenate(ns))})

    part = ds.map_batches(partial_counts, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.groupby(["zoom", "cx", "cy"]).aggregate(
        Sum("n", alias_name="n"))


def morans_i(ds: "ray.data.Dataset", cell_size: float) -> "ray.data.Dataset":
    """Global Moran's I spatial autocorrelation of the point-density
    surface: bin points to a square grid, value = count per occupied
    cell, weights = rook adjacency (w=1 for occupied cells sharing an
    edge).  The canonical "is this clustered or random" diagnostic a
    geospatial QA pass runs before trusting a density model.

    Exactness: with integer cell counts x_i, let n = #cells and
    S = Σx_i; the *n-scaled* centered value z_i = n·x_i − S is an exact
    int64, and

        I = n·Σ_ij w_ij z_i z_j / (W · Σ_i z_i²)

    equals the textbook (n/W)·Σw(x−x̄)(x−x̄)/Σ(x−x̄)² because the n²
    factors cancel.  With NX_i = Σ_j w_ij x_j and W_i = Σ_j w_ij from the
    rook stencil, Σ_j w_ij z_j = n·NX_i − S·W_i, and
    Σ_i z_i² = n·(n·Σx² − S²).  Every sum is an exact int64; the single
    closed-form double division is replayed token-for-token by the SQL
    oracle.

    Scale shape: :func:`.stencil.cell_counts` over O(touched cells),
    then one rook :func:`.stencil.stencil` — never a driver-side
    O(cells²) pass.  Returns ONE row: (n_cells, w_pairs, moran_i).
    """
    from ray.data.aggregate import Sum

    cells = cell_counts(ds, partial(cell_indices, cell_size=cell_size))
    ncells, s_total, sxx = moments(cells)

    def cross_part(batch: pa.Table) -> pa.Table:
        w = col(batch, "w")
        z = ncells * col(batch, "n") - s_total
        zn = ncells * col(batch, "nx") - s_total * w
        return pa.table({"cross": pa.array([int((z * zn).sum())]),
                         "w": pa.array([int(w.sum())])})

    tot = stencil(cells, ROOK).map_batches(
        cross_part, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(Sum("cross", alias_name="cross"), Sum("w", alias_name="w"))
    cross = int(tot["cross"])
    w_pairs = int(tot["w"])
    ss = ncells * (ncells * sxx - s_total * s_total)
    moran = (np.float64(ncells) * np.float64(cross)) / (
        np.float64(w_pairs) * np.float64(ss))
    import ray.data as _rd
    return _rd.from_arrow(pa.table({
        "n_cells": pa.array([ncells], pa.int64()),
        "w_pairs": pa.array([w_pairs], pa.int64()),
        "moran_i": pa.array([float(moran)], pa.float64()),
    }))


def _queen_scores(ds: "ray.data.Dataset", cell_size: float, what: str,
                  name: str, score) -> "ray.data.Dataset":
    """Per occupied square cell ``(ix, iy, n_nbr, <name>)`` from the 3×3
    queen stencil (self included): ``score(n, nx, w, ncells, sx, var)``
    gives ``(n_nbr, value)`` from the cell's count, its window sums and
    the moments (``var = ncells·Σn² − (Σn)²``).  Refuses fewer than 2
    cells, and zero variance, where numpy's ±inf/NaN and the SQL
    oracle's NULL would disagree."""
    cells = cell_counts(ds, partial(cell_indices, cell_size=cell_size))
    ncells, sx, sxx = moments(cells)
    if ncells < 2:
        raise ValueError(f"{what} needs at least 2 occupied cells")
    var = float(ncells * sxx - sx * sx)
    if var == 0.0:
        raise ValueError(f"{what} undefined: zero variance "
                         "(all occupied cells have equal counts)")

    def finish(batch: pa.Table) -> pa.Table:
        ix, iy = unpack_cell(col(batch, "ck"))
        n_nbr, v = score(col(batch, "n"), col(batch, "nx"), col(batch, "w"),
                         ncells, sx, var)
        return pa.table({"ix": ix, "iy": iy, "n_nbr": n_nbr,
                         name: pa.array(v, pa.float64())})

    return stencil(cells, QUEEN).map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True)


def getis_ord_gi_star(ds: "ray.data.Dataset",
                      cell_size: float) -> "ray.data.Dataset":
    """Getis–Ord Gi* hot-spot statistic of the point-density surface:
    bin points to a square grid (value = count per occupied cell),
    weights = queen contiguity INCLUDING self (w_ij = 1 for the 3×3
    window, the * variant), one z-score per occupied cell — the
    standard "where are the statistically hot cells" companion to the
    global Moran's I above.

    Exactness (same discipline as :func:`morans_i`): with integer
    counts x, n = #occupied cells, Sx = Σx, Sxx = Σx², per cell let
    NX_i = Σ_j w_ij x_j and W_i = Σ_j w_ij (both exact int64).  The
    textbook Gi* = (NX − x̄W) / (S·sqrt((nW − W²)/(n−1))) multiplied
    through by n gives

        Gi* = (n·NX − Sx·W) / sqrt((n·Sxx − Sx²) · (n·W − W²) / (n−1))

    — every operand an exact int64, ONE closed-form double expression
    replayed token-for-token by the SQL oracle.  Plan: see
    :func:`_queen_scores`."""

    def score(n, nx, w, ncells, sx, var):
        a = (ncells * nx - sx * w).astype(np.float64)
        c = (ncells * w - w * w).astype(np.float64)
        return w, a / np.sqrt(var * c / float(ncells - 1))

    return _queen_scores(ds, cell_size, "Gi*", "gi_star", score)


# ---------------------------------------------------------------------------
# Per-group convex hull
# ---------------------------------------------------------------------------

def _hull_points(x: np.ndarray, y: np.ndarray):
    """Monotone-chain convex hull over distinct INTEGER points, KEEPING
    collinear boundary points (pop only on strictly-right turns) — so
    the kept set is exactly the boundary-point set of the halfplane
    characterization the SQL oracle replays: p is on the hull iff some
    edge p→q has every other point on its left (cross >= 0).

    Integer coordinates make every orientation test EXACT (int64 cross
    products, |coord| ≤ 2e7 ⇒ |cross| ≤ 8e14 ≪ 2^63), which is what
    lets two independent hull algorithms (this chain, the oracle's
    all-pairs support test) agree on degenerate collinear triples —
    float crosses round ±1e-10 differently per expression tree and
    flip knife-edge keeps (observed on the hash-lattice world).

    Returns (hx, hy) of the hull point SET (unordered semantics)."""
    pts = np.unique(np.stack([x, y], axis=1), axis=0)
    n = len(pts)
    if n <= 2:
        return pts[:, 0], pts[:, 1]

    def chain(p):
        out = []
        for i in range(len(p)):
            while len(out) >= 2:
                ox, oy = p[out[-2]]
                ax, ay = p[out[-1]]
                bx, by = p[i]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) < 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    keep = np.zeros(n, dtype=bool)
    keep[np.asarray(lower)] = True
    keep[n - 1 - np.asarray(upper)] = True
    return pts[keep, 0], pts[keep, 1]


def group_convex_hull(ds: "ray.data.Dataset",
                      key_col: str = "cell") -> "ray.data.Dataset":
    """Convex hull vertex set per group, over ``floor(coord * 1000)``
    integer coordinates (exact orientation tests — see
    :func:`_hull_points`).  Output columns ``xq``/``yq`` are the
    quantized int64 coordinates.

    Scale shape: ``hull(A ∪ B) = hull(hull(A) ∪ hull(B))``, so each
    batch collapses every group to its LOCAL hull before the shuffle —
    the payload per (group, batch) is O(hull size), not O(points) —
    then a hash-bucketed ``map_groups`` computes the final hull per
    group.  Collinear boundary points are kept (see
    :func:`_hull_points`), so partial hulls are supersets of the final
    hull's support and the two-level combine is exact."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(zero_copy_only=False)
        x = np.floor(batch.column("x").to_numpy(zero_copy_only=False)
                     * 1000.0).astype(np.int64)
        y = np.floor(batch.column("y").to_numpy(zero_copy_only=False)
                     * 1000.0).astype(np.int64)
        order = np.argsort(k, kind="stable")
        k, x, y = k[order], x[order], y[order]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        ends = np.r_[starts[1:], len(k)]
        ko, xo, yo = [], [], []
        for s, e in zip(starts, ends):
            hx, hy = _hull_points(x[s:e], y[s:e])
            ko.append(np.full(len(hx), k[s]))
            xo.append(hx)
            yo.append(hy)
        return pa.table({
            key_col: pa.array(np.concatenate(ko) if ko else
                              np.empty(0, k.dtype)),
            "xq": pa.array(np.concatenate(xo) if xo else
                           np.empty(0, np.int64)),
            "yq": pa.array(np.concatenate(yo) if yo else
                           np.empty(0, np.int64)),
        })

    def final(grp: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, g in grp.groupby(key_col, sort=False):
            hx, hy = _hull_points(g["xq"].to_numpy(),
                                  g["yq"].to_numpy())
            out.append(pd.DataFrame({
                key_col: np.full(len(hx), key),
                "xq": hx, "yq": hy,
            }))
        return (pd.concat(out, ignore_index=True) if out else
                pd.DataFrame({key_col: [], "xq": [], "yq": []}))

    return bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        key_col, final, 32, "pandas")


# ---------------------------------------------------------------------------
# Ripley's K pair counts
# ---------------------------------------------------------------------------

def ripley_pair_counts(ds: "ray.data.Dataset",
                       radii: list[float]) -> "ray.data.Dataset":
    """Global ordered-pair counts ``|{(i, j) : i ≠ j, d_ij <= r}|`` for
    each radius — the numerator of Ripley's K point-pattern statistic
    (``K(r) = A/n² · Σ_{i≠j} 1[d_ij <= r]``; the caller scales by area
    and n).

    Plan: PBSM over a grid of ``cell = max(radii)``: every point goes
    NATIVE to its own cell and GHOST to the 8 neighbors, so each
    ordered pair (i, j) with ``d <= max(radii)`` meets exactly once —
    in i's native cell.  The per-cell kernel is one vectorized
    (natives × all) distance matrix; per-cell count partials (integer)
    collapse through one tiny groupby.  A pathologically hot cell is
    O(m²) — cap density upstream (``sampling.cap_per_group``) when the
    pattern is spiked."""
    from ray.data.aggregate import Sum

    rmax = float(max(radii))
    r2s = [float(r) * float(r) for r in radii]

    def expand(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        cx = np.floor(x / rmax).astype(np.int64)
        cy = np.floor(y / rmax).astype(np.int64)
        xs, ys, cs, gs = [], [], [], []
        # bias both indices positive before packing — a raw pack would
        # alias (cx, -1) with (cx-1, 2^21 - 1)
        bias = np.int64(1 << 20)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                xs.append(x)
                ys.append(y)
                cs.append((cx + dx + bias) * (1 << 21) + (cy + dy + bias))
                gs.append(np.full(len(x), dx != 0 or dy != 0,
                                  dtype=bool))
        return pa.table({
            "x": pa.array(np.concatenate(xs)),
            "y": pa.array(np.concatenate(ys)),
            "cell": pa.array(np.concatenate(cs)),
            "ghost": pa.array(np.concatenate(gs)),
        })

    def kernel(grp) -> "pa.Table":
        import pandas as pd

        x = grp["x"].to_numpy()
        y = grp["y"].to_numpy()
        ghost = grp["ghost"].to_numpy()
        nat = np.flatnonzero(~ghost)
        if not len(nat):
            return pd.DataFrame({"r_ix": pd.Series([], dtype=np.int64),
                                 "n_pairs": pd.Series([], dtype=np.int64)})
        dx = x[nat][:, None] - x[None, :]
        dy = y[nat][:, None] - y[None, :]
        d2 = dx * dx + dy * dy
        # exclude self-pairs: a native row vs its own (native) column
        d2[np.arange(len(nat)), nat] = np.inf
        out = [(ix, int((d2 <= r2).sum())) for ix, r2 in enumerate(r2s)]
        return pd.DataFrame({"r_ix": [o[0] for o in out],
                             "n_pairs": [o[1] for o in out]})

    part = (ds.map_batches(expand, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("cell").map_groups(kernel, batch_format="pandas"))
    agg = part.groupby("r_ix").aggregate(Sum("n_pairs",
                                             alias_name="n_pairs"))

    def attach_r(batch: pa.Table) -> pa.Table:
        ix = batch.column("r_ix").to_numpy(zero_copy_only=False)
        return pa.table({
            "r": pa.array(np.asarray(radii, dtype=np.float64)[ix]),
            "n_pairs": batch.column("n_pairs"),
        })

    return agg.map_batches(attach_r, batch_format="pyarrow",
                           zero_copy_batch=True)


def local_morans_i(ds: "ray.data.Dataset",
                   cell_size: float) -> "ray.data.Dataset":
    """Local Moran's I (LISA, Anselin 1995) of the point-density
    surface: per occupied grid cell,
    ``I_i = z_i · Σ_j w_ij z_j / m2`` with queen weights EXCLUDING
    self — the cluster/outlier companion to :func:`getis_ord_gi_star`
    (which includes self).

    Exactness: multiplying through by n² gives

        I_i = (n·x_i − Sx) · (n·NXᵉ_i − Sx·Wᵉ_i) / (n·Sxx − Sx²)

    with NXᵉ/Wᵉ the self-EXCLUDED neighbor sums — every operand exact
    int64, ONE closed-form double division replayed token-for-token in
    SQL.  Same plan as Gi* (:func:`_queen_scores`); self-exclusion is a
    subtraction of the cell's own (x, 1) from the inclusive window sum."""

    def score(n, nx, w, ncells, sx, var):
        a = (ncells * n - sx).astype(np.float64)
        b = (ncells * (nx - n) - sx * (w - 1)).astype(np.float64)
        return w - 1, a * b / var

    return _queen_scores(ds, cell_size, "local Moran", "local_i", score)
