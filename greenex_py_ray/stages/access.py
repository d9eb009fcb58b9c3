"""Accessibility stages: nearest-greenspace distance (euclidean path).

Reimplements ``accessibility.get_shortest_distance_greenspace``'s
euclidean/centroids branch
(`/root/reference/GreenExp/accessibility.py:277-284,312-320`):

* per PoI, distance to the nearest greenspace centroid, ``round(d, 0)``;
* ``outcome = distance <= target_dist``;
* miss (no centroid found / beyond target) → distance set to
  ``target_dist`` and outcome False.

Physical plan: the greenspace side is SMALL relative to the documents —
it is broadcast once (``ray.put`` on the driver), each actor builds a
:class:`~greenex_py_ray.state.index.GridIndex` in ``__init__``, and the
per-batch body is an exact cell-local kNN with ring expansion.  No
shuffle at all on the big side (vs. the reference's per-row cKDTree
rebuild).  The network-distance branch lives in ``stages/netaccess.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..state.index import GridIndex, RectIndex


def _resolve(ref):
    return ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref


class NearestGreenspace:
    """Kernel: nearest greenspace centroid per PoI, its distance rounded
    to 0 decimals, and the within-``target_dist`` flag.

    One :meth:`GridIndex.nearest` call per batch does the search: a few
    vectorized passes over all of the batch's query cells, exact, with
    ties going to the lowest centroid row.  The index is built once per
    worker, in ``__init__``.
    """

    def __init__(self, centroids_ref, target_dist: float, key_col: str = "doc_id",
                 index_cell: float = 500.0,
                 dist_name: str = "distance_to_greenspace",
                 flag_name: str = "greenspace_within_target"):
        t = _resolve(centroids_ref)  # pa.Table {gs_id, cx, cy}
        self.index = GridIndex(
            t.column("cx").to_numpy(zero_copy_only=False),
            t.column("cy").to_numpy(zero_copy_only=False),
            cell_size=index_cell,
        )
        self.gs_ids = t.column("gs_id").to_numpy(zero_copy_only=False)
        self.target = float(target_dist)
        self.key_col = key_col
        self.dist_name = dist_name
        self.flag_name = flag_name

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        d, idx = self.index.nearest(x, y)
        d = np.round(d, 0)  # accessibility.py:282
        outcome = d <= self.target  # accessibility.py:312-316
        # miss or beyond target → distance := target_dist (accessibility.py:318-320)
        dist = np.where(np.isfinite(d) & (d <= self.target), d, self.target)
        nearest_id = np.where(idx >= 0, self.gs_ids[np.maximum(idx, 0)], -1)
        return pa.table(
            {
                self.key_col: batch.column(self.key_col),
                self.dist_name: pa.array(dist),
                self.flag_name: pa.array(outcome),
                "nearest_gs_id": pa.array(nearest_id.astype(np.int64)),
            }
        )


class PointsInRects:
    """map_batches actor: semi-join of points against broadcast rectangles
    (the cell-refined point-in-polygon join of SURVEY J2/J6, restricted
    to axis-aligned AoIs so the DuckDB oracle is a BETWEEN join).

    Emits one row per (point, containing rect): (key, gs_id).
    """

    def __init__(self, rects_ref, key_col: str = "doc_id", index_cell: float = 1000.0):
        t = _resolve(rects_ref)  # pa.Table {gs_id, x0, y0, x1, y1}
        self.index = RectIndex(
            t.column("x0").to_numpy(zero_copy_only=False),
            t.column("y0").to_numpy(zero_copy_only=False),
            t.column("x1").to_numpy(zero_copy_only=False),
            t.column("y1").to_numpy(zero_copy_only=False),
            t.column("gs_id").to_numpy(zero_copy_only=False),
            cell_size=index_cell,
        )
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        qi, rj = self.index.containing(x, y)
        return pa.table(
            {
                self.key_col: batch.column(self.key_col).take(pa.array(qi)),
                "gs_id": pa.array(self.index.ids[rj].astype(np.int64)),
            }
        )


#: 2SFCA ratio quantization: R_j = supply_q * FCA_SCALE // demand_j
FCA_SCALE = 1_000_000_000

#: facility count above which the dense (batch x F) matrix paths
#: switch to a per-actor uniform-grid candidate gather (the
#: SegmentSnapper pattern): a (4096-row batch x 10^6 facilities)
#: dense bool matrix is ~4 GB — the grid path touches only the cells
#: within the catchment radius.  Results are bit-identical: the grid
#: yields a SUPERSET of candidates and every per-pair term repeats the
#: dense path's arithmetic; all reductions are int64 (order-exact).
DENSE_FAC_MAX = 4096


def _fac_grid(fx, fy, radius: float, dense_max: int):
    """GridIndex over facility centroids when the dense path would
    blow up; None keeps the dense matrix path (small F)."""
    if len(fx) <= dense_max:
        return None
    return GridIndex(fx, fy, cell_size=max(float(radius), 1e-9))


class FCADemandCount:
    """Step-1 map_batches stage of the two-step floating catchment:
    per-batch partial demand counts per facility.  Facilities (fx, fy)
    broadcast once; each batch computes the (points × facilities)
    within-``radius`` boolean and collapses to ONE count row per
    facility — the shuffle ships O(F) integers per batch, never the
    points."""

    def __init__(self, fac_ref, radius: float,
                 x_col: str = "x", y_col: str = "y",
                 dense_max: int = DENSE_FAC_MAX):
        t = _resolve(fac_ref)
        self.fx = t.column("centroid_x").to_numpy(zero_copy_only=False)
        self.fy = t.column("centroid_y").to_numpy(zero_copy_only=False)
        self.fid = t.column("gs_id").to_numpy(zero_copy_only=False)
        self.radius = float(radius)
        self.r2 = float(radius) * float(radius)
        self.x_col, self.y_col = x_col, y_col
        self.grid = _fac_grid(self.fx, self.fy, radius, dense_max)

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        if self.grid is None:
            dx = x[:, None] - self.fx[None, :]
            dy = y[:, None] - self.fy[None, :]
            within = (dx * dx + dy * dy) <= self.r2
            n = within.sum(axis=0).astype(np.int64)
        else:
            n = np.zeros(len(self.fx), dtype=np.int64)
            for sel, cand in self.grid.candidate_groups(x, y, self.radius):
                dx = x[sel][:, None] - self.fx[cand][None, :]
                dy = y[sel][:, None] - self.fy[cand][None, :]
                within = (dx * dx + dy * dy) <= self.r2
                np.add.at(n, cand, within.sum(axis=0).astype(np.int64))
        nz = np.flatnonzero(n)
        return pa.table({"gs_id": pa.array(self.fid[nz]),
                         "n": pa.array(n[nz])})


class FCAAccess:
    """Step-2 map_batches actor: per demand point, sum the broadcast
    facility ratios ``R_j`` (int64 ``supply_q·SCALE // demand_j`` —
    exact under any summation order) over facilities within
    ``radius``."""

    def __init__(self, fac_ref, radius: float, key_col: str = "doc_id",
                 x_col: str = "x", y_col: str = "y",
                 dense_max: int = DENSE_FAC_MAX):
        t = _resolve(fac_ref)
        self.fx = t.column("centroid_x").to_numpy(zero_copy_only=False)
        self.fy = t.column("centroid_y").to_numpy(zero_copy_only=False)
        self.rq = t.column("rq").to_numpy(zero_copy_only=False).astype(np.int64)
        self.radius = float(radius)
        self.r2 = float(radius) * float(radius)
        self.key_col = key_col
        self.x_col, self.y_col = x_col, y_col
        self.grid = _fac_grid(self.fx, self.fy, radius, dense_max)

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        if self.grid is None:
            dx = x[:, None] - self.fx[None, :]
            dy = y[:, None] - self.fy[None, :]
            within = (dx * dx + dy * dy) <= self.r2
            n_fac = within.sum(axis=1).astype(np.int64)
            access_q = (within * self.rq[None, :]).sum(axis=1).astype(np.int64)
        else:
            n_fac = np.zeros(len(x), dtype=np.int64)
            access_q = np.zeros(len(x), dtype=np.int64)
            for sel, cand in self.grid.candidate_groups(x, y, self.radius):
                dx = x[sel][:, None] - self.fx[cand][None, :]
                dy = y[sel][:, None] - self.fy[cand][None, :]
                within = (dx * dx + dy * dy) <= self.r2
                n_fac[sel] = within.sum(axis=1).astype(np.int64)
                access_q[sel] = (within * self.rq[cand][None, :]) \
                    .sum(axis=1).astype(np.int64)
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "n_fac": pa.array(n_fac),
            "access_q": pa.array(access_q),
        })


def two_step_fca(poi: "ray.data.Dataset", facilities: "pa.Table",
                 radius: float, key_col: str = "doc_id",
                 concurrency=(1, 8),
                 dense_max: int = DENSE_FAC_MAX) -> "ray.data.Dataset":
    """Two-step floating catchment area accessibility (2SFCA, Luo &
    Wang 2003) with a binary catchment: step 1 computes each
    facility's supply-to-demand ratio ``R_j = S_j / |{i : d_ij <= r}|``;
    step 2 scores each demand point ``A_i = Σ_{j : d_ij <= r} R_j``.

    Facilities: the greenspace table (supply = rect area,
    ``round((x1-x0)·(y1-y0))`` int64 m²).  Ratios are int64
    ``supply_q·1e9 // demand_j`` so both the ratio and the final sum
    are exact integers in any order / any engine.  The facility side
    is tiny (broadcast twice); demand streams through both passes —
    the step-1 shuffle is O(F) per batch."""
    import ray as _ray

    # floor(x + 0.5), not np.round: np.round is ties-to-even while SQL
    # round() is ties-away; exact .5 areas are reachable on the integer
    # rect lattice, so both engines evaluate the identical floor(x+0.5)
    # double expression instead (ADVICE r4).
    sup = np.floor(
        (facilities.column("x1").to_numpy(zero_copy_only=False)
         - facilities.column("x0").to_numpy(zero_copy_only=False))
        * (facilities.column("y1").to_numpy(zero_copy_only=False)
           - facilities.column("y0").to_numpy(zero_copy_only=False))
        + 0.5
    ).astype(np.int64)
    fac = pa.table({
        "gs_id": facilities.column("gs_id"),
        "centroid_x": facilities.column("centroid_x"),
        "centroid_y": facilities.column("centroid_y"),
        "supply_q": pa.array(sup),
    })
    ref = _ray.put(fac)

    from ..functions.aggregates import bucket_group_reduce

    # bucketed combiner, not groupby.aggregate: step-1 partials are
    # O(F) rows per batch and F can be 10^6 — the generic sort-based
    # groupby was 48x slower at that cardinality (round-4 finding)
    counts = (bucket_group_reduce(
                  poi.map_batches(
                      FCADemandCount,
                      fn_constructor_kwargs=dict(fac_ref=ref, radius=radius,
                                                 dense_max=dense_max),
                      batch_format="pyarrow", zero_copy_batch=True,
                      concurrency=concurrency, num_cpus=0.5),
                  "gs_id", ["n"], ["sum"])
              .to_pandas())
    # O(F) driver table: attach ratios, drop zero-demand facilities
    merged = fac.to_pandas().merge(counts, on="gs_id", how="inner")
    rq = (merged["supply_q"].to_numpy(dtype=np.int64) * FCA_SCALE
          // merged["n"].to_numpy(dtype=np.int64))
    fac2 = pa.table({
        "gs_id": pa.array(merged["gs_id"].to_numpy(dtype=np.int64)),
        "centroid_x": pa.array(merged["centroid_x"].to_numpy()),
        "centroid_y": pa.array(merged["centroid_y"].to_numpy()),
        "rq": pa.array(rq),
    })
    ref2 = _ray.put(fac2)
    return poi.map_batches(
        FCAAccess,
        fn_constructor_kwargs=dict(fac_ref=ref2, radius=radius,
                                   key_col=key_col, dense_max=dense_max),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency, num_cpus=0.5,
    )


#: gravity weight quantization (micro-units per supply unit)
GRAVITY_Q = 1_000_000


class GravityAccess:
    """map_batches actor: Hansen (1959) gravity / potential
    accessibility with an inverse-quadratic impedance —
    ``A_i = Σ_j round(S_j · 1e6 / (1 + d_ij²/θ²))`` over facilities
    within ``cutoff``.  No exp/pow: the weight is one +,*,/ chain over
    doubles both engines evaluate identically, rounded to int64 BEFORE
    the sum, so the score is exact under any order.  Facilities
    broadcast (small side); demand streams."""

    def __init__(self, fac_ref, theta: float, cutoff: float,
                 key_col: str = "doc_id",
                 x_col: str = "x", y_col: str = "y",
                 dense_max: int = DENSE_FAC_MAX):
        t = _resolve(fac_ref)
        self.fx = t.column("centroid_x").to_numpy(zero_copy_only=False)
        self.fy = t.column("centroid_y").to_numpy(zero_copy_only=False)
        self.sup = t.column("supply_q").to_numpy(
            zero_copy_only=False).astype(np.float64)
        self.t2 = float(theta) * float(theta)
        self.cutoff = float(cutoff)
        self.r2 = float(cutoff) * float(cutoff)
        self.key_col = key_col
        self.x_col, self.y_col = x_col, y_col
        self.grid = _fac_grid(self.fx, self.fy, cutoff, dense_max)

    def _score(self, x, y, fsel):
        """(len(x), len(fsel)) within mask + int64 weights with the
        identical per-pair arithmetic on both the dense and grid
        paths (fsel = slice of facilities under consideration)."""
        dx = x[:, None] - self.fx[fsel][None, :]
        dy = y[:, None] - self.fy[fsel][None, :]
        d2 = dx * dx + dy * dy
        within = d2 <= self.r2
        # floor(x+0.5) tie rule (matches SQL; d2/theta2 is exact
        # rational arithmetic, so .5 ties are reachable — ADVICE r4)
        w = np.floor(self.sup[fsel][None, :] * GRAVITY_Q
                     / (1.0 + d2 / self.t2) + 0.5).astype(np.int64)
        return within, w

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        if self.grid is None:
            within, w = self._score(x, y, slice(None))
            n_fac = within.sum(axis=1).astype(np.int64)
            access_q = np.where(within, w, 0).sum(axis=1).astype(np.int64)
        else:
            n_fac = np.zeros(len(x), dtype=np.int64)
            access_q = np.zeros(len(x), dtype=np.int64)
            for sel, cand in self.grid.candidate_groups(x, y, self.cutoff):
                within, w = self._score(x[sel], y[sel], cand)
                n_fac[sel] = within.sum(axis=1).astype(np.int64)
                access_q[sel] = np.where(within, w, 0) \
                    .sum(axis=1).astype(np.int64)
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "n_fac": pa.array(n_fac),
            "access_q": pa.array(access_q),
        })


def gravity_access(poi: "ray.data.Dataset", facilities: "pa.Table",
                   theta: float = 400.0, cutoff: float = 1500.0,
                   key_col: str = "doc_id",
                   concurrency=(1, 8),
                   dense_max: int = DENSE_FAC_MAX) -> "ray.data.Dataset":
    """Gravity/potential accessibility (see :class:`GravityAccess`);
    supply = greenspace rect area like :func:`two_step_fca`."""
    import ray as _ray

    # floor(x + 0.5), not np.round: np.round is ties-to-even while SQL
    # round() is ties-away; exact .5 areas are reachable on the integer
    # rect lattice, so both engines evaluate the identical floor(x+0.5)
    # double expression instead (ADVICE r4).
    sup = np.floor(
        (facilities.column("x1").to_numpy(zero_copy_only=False)
         - facilities.column("x0").to_numpy(zero_copy_only=False))
        * (facilities.column("y1").to_numpy(zero_copy_only=False)
           - facilities.column("y0").to_numpy(zero_copy_only=False))
        + 0.5
    ).astype(np.int64)
    fac = pa.table({
        "gs_id": facilities.column("gs_id"),
        "centroid_x": facilities.column("centroid_x"),
        "centroid_y": facilities.column("centroid_y"),
        "supply_q": pa.array(sup),
    })
    ref = _ray.put(fac)
    return poi.map_batches(
        GravityAccess,
        fn_constructor_kwargs=dict(fac_ref=ref, theta=theta,
                                   cutoff=cutoff, key_col=key_col,
                                   dense_max=dense_max),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency, num_cpus=0.5,
    )


#: E2SFCA decay-weight quantization (micro-units)
E2_WQ = 1_000_000
#: E2SFCA ratio quantization
E2_RQ = 1_000_000_000


class E2DemandWeight:
    """Step-1 stage of the ENHANCED 2SFCA (Luo & Qi 2009): per-batch
    partial Gaussian-decayed demand weight sums per facility.
    ``w_ij = round(exp(−d²/denom)·1e6)`` int64 (the KDE precedent:
    both engines round the same exp double), zero outside ``cutoff``;
    each batch collapses to O(F) rows."""

    def __init__(self, fac_ref, denom: float, cutoff: float,
                 x_col: str = "x", y_col: str = "y",
                 dense_max: int = DENSE_FAC_MAX):
        t = _resolve(fac_ref)
        self.fx = t.column("centroid_x").to_numpy(zero_copy_only=False)
        self.fy = t.column("centroid_y").to_numpy(zero_copy_only=False)
        self.fid = t.column("gs_id").to_numpy(zero_copy_only=False)
        self.denom = float(denom)
        self.cutoff = float(cutoff)
        self.r2 = float(cutoff) * float(cutoff)
        self.x_col, self.y_col = x_col, y_col
        self.grid = _fac_grid(self.fx, self.fy, cutoff, dense_max)

    def _weights(self, x, y, fsel=slice(None)):
        dx = x[:, None] - self.fx[fsel][None, :]
        dy = y[:, None] - self.fy[fsel][None, :]
        d2 = dx * dx + dy * dy
        w = np.round(np.exp(-d2 / self.denom) * E2_WQ).astype(np.int64)
        return np.where(d2 <= self.r2, w, 0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        if self.grid is None:
            tot = self._weights(x, y).sum(axis=0)
        else:
            tot = np.zeros(len(self.fx), dtype=np.int64)
            for sel, cand in self.grid.candidate_groups(x, y, self.cutoff):
                np.add.at(tot, cand,
                          self._weights(x[sel], y[sel], cand).sum(axis=0))
        nz = np.flatnonzero(tot)
        return pa.table({"gs_id": pa.array(self.fid[nz]),
                         "wsum": pa.array(tot[nz])})


class E2Access(E2DemandWeight):
    """Step-2 actor: ``A_i = Σ_j round(w_ij · R_j / 1e6)`` over the
    broadcast facility ratios (``R_j = supply_q·1e9 // Σw`` int64) —
    the per-term product is rounded on a double ≤ ~1e12, so the sum is
    exact int64 in any order."""

    def __init__(self, fac_ref, denom: float, cutoff: float,
                 key_col: str = "doc_id",
                 x_col: str = "x", y_col: str = "y",
                 dense_max: int = DENSE_FAC_MAX):
        super().__init__(fac_ref, denom, cutoff, x_col, y_col,
                         dense_max=dense_max)
        t = _resolve(fac_ref)
        self.rq = t.column("rq").to_numpy(
            zero_copy_only=False).astype(np.float64)
        self.key_col = key_col

    def _score(self, x, y, fsel):
        w = self._weights(x, y, fsel)
        # floor(x+0.5) tie rule: w*rq/1e6 is exact rational arithmetic
        # on integers, so exact .5 ties ARE reachable here (ADVICE r4)
        terms = np.floor(w * self.rq[fsel][None, :] / E2_WQ
                         + 0.5).astype(np.int64)
        return ((w > 0).sum(axis=1).astype(np.int64),
                terms.sum(axis=1).astype(np.int64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        if self.grid is None:
            n_fac, access_q = self._score(x, y, slice(None))
        else:
            n_fac = np.zeros(len(x), dtype=np.int64)
            access_q = np.zeros(len(x), dtype=np.int64)
            for sel, cand in self.grid.candidate_groups(x, y, self.cutoff):
                n_fac[sel], access_q[sel] = self._score(x[sel], y[sel], cand)
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "n_fac": pa.array(n_fac),
            "access_q": pa.array(access_q),
        })


def enhanced_two_step_fca(poi: "ray.data.Dataset", facilities: "pa.Table",
                          sigma: float = 500.0, cutoff: float = 1500.0,
                          key_col: str = "doc_id",
                          concurrency=(1, 8),
                          dense_max: int = DENSE_FAC_MAX) -> "ray.data.Dataset":
    """E2SFCA (Luo & Qi 2009): 2SFCA with a Gaussian distance decay in
    BOTH steps.  ``denom = 2σ²`` is precomputed once so both engines
    divide by the identical double; weights and ratios are int64 (see
    the step classes), so every aggregate is order-exact."""
    import ray as _ray

    from ..functions.aggregates import bucket_group_reduce

    denom = 2.0 * float(sigma) * float(sigma)
    # floor(x + 0.5), not np.round: np.round is ties-to-even while SQL
    # round() is ties-away; exact .5 areas are reachable on the integer
    # rect lattice, so both engines evaluate the identical floor(x+0.5)
    # double expression instead (ADVICE r4).
    sup = np.floor(
        (facilities.column("x1").to_numpy(zero_copy_only=False)
         - facilities.column("x0").to_numpy(zero_copy_only=False))
        * (facilities.column("y1").to_numpy(zero_copy_only=False)
           - facilities.column("y0").to_numpy(zero_copy_only=False))
        + 0.5
    ).astype(np.int64)
    fac = pa.table({
        "gs_id": facilities.column("gs_id"),
        "centroid_x": facilities.column("centroid_x"),
        "centroid_y": facilities.column("centroid_y"),
        "supply_q": pa.array(sup),
    })
    ref = _ray.put(fac)
    # bucketed combiner (see two_step_fca): O(F)-row partials per
    # batch, 10^6 distinct gs_id keys
    wsums = (bucket_group_reduce(
                 poi.map_batches(
                     E2DemandWeight,
                     fn_constructor_kwargs=dict(fac_ref=ref, denom=denom,
                                                cutoff=cutoff,
                                                dense_max=dense_max),
                     batch_format="pyarrow", zero_copy_batch=True,
                     concurrency=concurrency, num_cpus=0.5),
                 "gs_id", ["wsum"], ["sum"])
             .to_pandas())
    merged = fac.to_pandas().merge(wsums, on="gs_id", how="inner")
    merged = merged[merged["wsum"] > 0]
    rq = (merged["supply_q"].to_numpy(dtype=np.int64) * E2_RQ
          // merged["wsum"].to_numpy(dtype=np.int64))
    fac2 = pa.table({
        "gs_id": pa.array(merged["gs_id"].to_numpy(dtype=np.int64)),
        "centroid_x": pa.array(merged["centroid_x"].to_numpy()),
        "centroid_y": pa.array(merged["centroid_y"].to_numpy()),
        "rq": pa.array(rq),
    })
    ref2 = _ray.put(fac2)
    return poi.map_batches(
        E2Access,
        fn_constructor_kwargs=dict(fac_ref=ref2, denom=denom,
                                   cutoff=cutoff, key_col=key_col,
                                   dense_max=dense_max),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency, num_cpus=0.5,
    )
