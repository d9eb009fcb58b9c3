"""Accessibility stages: nearest greenspace and floating catchments.

Reimplements ``accessibility.get_shortest_distance_greenspace``'s
euclidean/centroids branch
(`/root/reference/GreenExp/accessibility.py:277-284,312-320`):

* per PoI, distance to the nearest greenspace centroid, ``round(d, 0)``;
* ``outcome = distance <= target_dist``;
* miss (no centroid found / beyond target) → distance set to
  ``target_dist`` and outcome False.

Physical plan: the greenspace side is SMALL relative to the documents.
The API derives it on the driver (read, dissolve, area threshold) and
puts it in the object store once per file version
(:func:`~greenex_py_ray.sidefiles.shared`); each kernel builds a
:class:`~greenex_py_ray.state.index.GridIndex` in ``__init__``, once
per worker process and file version, and the per-batch body is one
exact :meth:`~greenex_py_ray.state.index.GridIndex.nearest` call.  No
shuffle at all on the big side (vs. the reference's per-row cKDTree
rebuild).  The network-distance branch lives in ``stages/netaccess.py``.

The floating-catchment family (2SFCA, gravity, E2SFCA) runs as
:class:`~greenex_py_ray.functions.joins.KernelStage` tasks over the
same kind of facility index: each batch takes its (point, facility)
pairs within the catchment radius from one vectorized grid gather and
reduces per-pair int64 terms, so every score is exact in any order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.joins import KernelStage
from ..sidefiles import shipped, side_table
from ..state.index import GridIndex, RectIndex


class NearestGreenspace:
    """Kernel: nearest greenspace centroid per PoI, its distance rounded
    to 0 decimals, and the within-``target_dist`` flag.

    One :meth:`GridIndex.nearest` call per batch does the search: a few
    vectorized passes over all of the batch's query cells, exact, with
    ties going to the lowest centroid row.  The index is built once per
    worker, in ``__init__``.
    """

    def __init__(self, centroids_ref, target_dist: float,
                 flag_name: str = "greenspace_within_target"):
        t = side_table(centroids_ref)  # pa.Table {gs_id, cx, cy}
        self.index = GridIndex(
            t.column("cx").to_numpy(zero_copy_only=False),
            t.column("cy").to_numpy(zero_copy_only=False))
        self.gs_ids = t.column("gs_id").to_numpy(zero_copy_only=False)
        self.target = float(target_dist)
        self.key_col = "doc_id"
        self.dist_name = "distance_to_greenspace"
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
    """Kernel: semi-join of points against broadcast rectangles
    (the cell-refined point-in-polygon join of SURVEY J2/J6, restricted
    to axis-aligned AoIs so the DuckDB oracle is a BETWEEN join).

    Emits one row per (point, containing rect): (key, gs_id).
    """

    def __init__(self, rects_ref):
        t = side_table(rects_ref)  # pa.Table {gs_id, x0, y0, x1, y1}
        self.index = RectIndex(
            t.column("x0").to_numpy(zero_copy_only=False),
            t.column("y0").to_numpy(zero_copy_only=False),
            t.column("x1").to_numpy(zero_copy_only=False),
            t.column("y1").to_numpy(zero_copy_only=False),
            t.column("gs_id").to_numpy(zero_copy_only=False))
        self.key_col = "doc_id"

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


class _Catchment:
    """Base of the floating-catchment kernels: the broadcast facility
    centroids in a :class:`GridIndex` with ``radius``-sized cells, and
    the (point, facility, d²) pairs of a batch with ``d² <= radius²``.
    The grid only prunes: every pair term repeats the ``(batch × F)``
    arithmetic, and every reduction is an int64 sum (order-exact)."""

    def __init__(self, fac_ref, radius: float,
                 x_col: str = "x", y_col: str = "y"):
        self.fac = side_table(fac_ref)
        self.fx = self.fac.column("centroid_x").to_numpy(zero_copy_only=False)
        self.fy = self.fac.column("centroid_y").to_numpy(zero_copy_only=False)
        self.radius = float(radius)
        self.r2 = self.radius * self.radius
        self.x_col, self.y_col = x_col, y_col
        self.grid = GridIndex(self.fx, self.fy,
                              cell_size=max(self.radius, 1e-9))

    def _within(self, batch: pa.Table):
        """(point, facility, d²) of every pair within the radius."""
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        pq, pc = self.grid._pairs(x, y, self.radius)
        dx = x[pq] - self.fx[pc]
        dy = y[pq] - self.fy[pc]
        d2 = dx * dx + dy * dy
        hit = d2 <= self.r2
        return pq[hit], pc[hit], d2[hit]

    def _per_point(self, batch: pa.Table, pq: np.ndarray,
                   terms: np.ndarray, counted: np.ndarray) -> pa.Table:
        """Step-2 output: per demand point, the int64 sum of its pair
        ``terms`` and the number of its pairs in ``counted`` (the
        points of the pairs that count as facilities in reach)."""
        n = batch.num_rows
        access_q = np.zeros(n, dtype=np.int64)
        np.add.at(access_q, pq, terms)
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "n_fac": pa.array(np.bincount(counted, minlength=n)
                              .astype(np.int64)),
            "access_q": pa.array(access_q),
        })

    def _per_facility(self, pc: np.ndarray, terms: np.ndarray,
                      name: str) -> pa.Table:
        """Step-1 output: one row per facility with a nonzero int64 sum
        of its pair ``terms`` — the shuffle ships O(F) integers per
        batch, never the points."""
        tot = np.zeros(len(self.fx), dtype=np.int64)
        np.add.at(tot, pc, terms)
        nz = np.flatnonzero(tot)
        return pa.table({"gs_id": self.fac.column("gs_id").take(nz),
                         name: pa.array(tot[nz])})


class FCADemandCount(_Catchment):
    """Step-1 stage of the two-step floating catchment: per-batch
    partial demand counts (points within ``radius``) per facility."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        _, pc, _ = self._within(batch)
        return self._per_facility(pc, np.ones(len(pc), np.int64), "n")


class FCAAccess(_Catchment):
    """Step-2 stage: per demand point, sum the broadcast facility ratios
    ``R_j`` (int64 ``supply_q·SCALE // demand_j`` — exact under any
    summation order) over facilities within ``radius``."""

    def __init__(self, fac_ref, radius: float, key_col: str = "doc_id",
                 x_col: str = "x", y_col: str = "y"):
        super().__init__(fac_ref, radius, x_col, y_col)
        self.rq = self.fac.column("rq").to_numpy(
            zero_copy_only=False).astype(np.int64)
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        pq, pc, _ = self._within(batch)
        return self._per_point(batch, pq, self.rq[pc], pq)


def _supply_table(facilities: pa.Table) -> pa.Table:
    """The catchment facilities: gs_id, centroid and int64 supply, the
    greenspace rect area.  floor(x + 0.5), not np.round: np.round is
    ties-to-even while SQL round() is ties-away; exact .5 areas are
    reachable on the integer rect lattice, so both engines evaluate
    the identical floor(x+0.5) double expression instead (ADVICE r4)."""
    def col(name):
        return facilities.column(name).to_numpy(zero_copy_only=False)

    sup = np.floor((col("x1") - col("x0")) * (col("y1") - col("y0"))
                   + 0.5).astype(np.int64)
    return pa.table({
        "gs_id": facilities.column("gs_id"),
        "centroid_x": facilities.column("centroid_x"),
        "centroid_y": facilities.column("centroid_y"),
        "supply_q": pa.array(sup),
    })


def _catchment_stage(cls: type, fac: pa.Table, kwargs: dict) -> KernelStage:
    """A catchment kernel over the facility table ``fac`` as a
    :class:`KernelStage`."""
    return KernelStage(cls, dict(fac_ref=shipped(fac), **kwargs),
                       dict(num_cpus=0.5))


def _ratio_table(poi: "ray.data.Dataset", fac: pa.Table, step1: type,
                 kwargs: dict, name: str, scale: int) -> pa.Table:
    """Step 1 of a floating catchment: the ``step1`` kernel's per-batch
    facility sums ``name`` over ``poi``, summed per gs_id, and the
    int64 ratio ``rq = supply_q·scale // sum`` of every facility with a
    positive sum (an O(F) driver table)."""
    from ..functions.aggregates import bucket_group_reduce

    # bucketed combiner, not groupby.aggregate: step-1 partials are
    # O(F) rows per batch and F can be 10^6 — the generic sort-based
    # groupby was 48x slower at that cardinality (round-4 finding)
    part = _catchment_stage(step1, fac, kwargs).on(poi)
    sums = bucket_group_reduce(part, "gs_id", [name], ["sum"]).to_pandas()
    merged = fac.to_pandas().merge(sums, on="gs_id", how="inner")
    merged = merged[merged[name] > 0]
    rq = (merged["supply_q"].to_numpy(dtype=np.int64) * scale
          // merged[name].to_numpy(dtype=np.int64))
    return pa.table({
        "gs_id": pa.array(merged["gs_id"].to_numpy(dtype=np.int64)),
        "centroid_x": pa.array(merged["centroid_x"].to_numpy()),
        "centroid_y": pa.array(merged["centroid_y"].to_numpy()),
        "rq": pa.array(rq),
    })


def two_step_fca(poi: "ray.data.Dataset", facilities: "pa.Table",
                 radius: float) -> "ray.data.Dataset":
    """Two-step floating catchment area accessibility (2SFCA, Luo &
    Wang 2003) with a binary catchment: step 1 computes each
    facility's supply-to-demand ratio ``R_j = S_j / |{i : d_ij <= r}|``;
    step 2 scores each demand point ``A_i = Σ_{j : d_ij <= r} R_j``.

    Facilities: the greenspace table (supply = rect area,
    ``round((x1-x0)·(y1-y0))`` int64 m²).  Ratios are int64
    ``supply_q·1e9 // demand_j`` so both the ratio and the final sum
    are exact integers in any order / any engine.  The facility side
    is tiny (shipped to both passes); demand streams through both —
    the step-1 shuffle is O(F) per batch."""
    fac = _ratio_table(poi, _supply_table(facilities), FCADemandCount,
                       dict(radius=radius), "n", FCA_SCALE)
    return _catchment_stage(FCAAccess, fac,
                            dict(radius=radius, key_col="doc_id")).on(poi)


#: gravity weight quantization (micro-units per supply unit)
GRAVITY_Q = 1_000_000


class GravityAccess(_Catchment):
    """Hansen (1959) gravity / potential accessibility with an
    inverse-quadratic impedance — ``A_i = Σ_j round(S_j · 1e6 / (1 +
    d_ij²/θ²))`` over facilities within ``cutoff``.  No exp/pow: the
    weight is one +,*,/ chain over doubles both engines evaluate
    identically, rounded to int64 BEFORE the sum, so the score is
    exact under any order.  Facilities broadcast (small side); demand
    streams."""

    def __init__(self, fac_ref, theta: float, cutoff: float,
                 key_col: str = "doc_id",
                 x_col: str = "x", y_col: str = "y"):
        super().__init__(fac_ref, cutoff, x_col, y_col)
        self.sup = self.fac.column("supply_q").to_numpy(
            zero_copy_only=False).astype(np.float64)
        self.t2 = float(theta) * float(theta)
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        pq, pc, d2 = self._within(batch)
        # floor(x+0.5) tie rule (matches SQL; d2/theta2 is exact
        # rational arithmetic, so .5 ties are reachable — ADVICE r4)
        w = np.floor(self.sup[pc] * GRAVITY_Q / (1.0 + d2 / self.t2)
                     + 0.5).astype(np.int64)
        return self._per_point(batch, pq, w, pq)


def gravity_access(poi: "ray.data.Dataset", facilities: "pa.Table",
                   theta: float = 400.0,
                   cutoff: float = 1500.0) -> "ray.data.Dataset":
    """Gravity/potential accessibility (see :class:`GravityAccess`);
    supply = greenspace rect area like :func:`two_step_fca`."""
    return _catchment_stage(GravityAccess, _supply_table(facilities),
                            dict(theta=theta, cutoff=cutoff,
                                 key_col="doc_id")).on(poi)


#: E2SFCA decay-weight quantization (micro-units)
E2_WQ = 1_000_000
#: E2SFCA ratio quantization
E2_RQ = 1_000_000_000


class E2DemandWeight(_Catchment):
    """Step-1 stage of the ENHANCED 2SFCA (Luo & Qi 2009): per-batch
    partial Gaussian-decayed demand weight sums per facility.
    ``w_ij = round(exp(−d²/denom)·1e6)`` int64 (the KDE precedent:
    both engines round the same exp double), zero outside ``cutoff``;
    each batch collapses to O(F) rows."""

    def __init__(self, fac_ref, denom: float, cutoff: float,
                 x_col: str = "x", y_col: str = "y"):
        super().__init__(fac_ref, cutoff, x_col, y_col)
        self.denom = float(denom)

    def _weights(self, batch: pa.Table):
        pq, pc, d2 = self._within(batch)
        w = np.round(np.exp(-d2 / self.denom) * E2_WQ).astype(np.int64)
        return pq, pc, w

    def __call__(self, batch: pa.Table) -> pa.Table:
        _, pc, w = self._weights(batch)
        return self._per_facility(pc, w, "wsum")


class E2Access(E2DemandWeight):
    """Step-2 stage: ``A_i = Σ_j round(w_ij · R_j / 1e6)`` over the
    broadcast facility ratios (``R_j = supply_q·1e9 // Σw`` int64) —
    the per-term product is rounded on a double ≤ ~1e12, so the sum is
    exact int64 in any order."""

    def __init__(self, fac_ref, denom: float, cutoff: float,
                 key_col: str = "doc_id",
                 x_col: str = "x", y_col: str = "y"):
        super().__init__(fac_ref, denom, cutoff, x_col, y_col)
        self.rq = self.fac.column("rq").to_numpy(
            zero_copy_only=False).astype(np.float64)
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        pq, pc, w = self._weights(batch)
        # floor(x+0.5) tie rule: w*rq/1e6 is exact rational arithmetic
        # on integers, so exact .5 ties ARE reachable here (ADVICE r4)
        terms = np.floor(w * self.rq[pc] / E2_WQ + 0.5).astype(np.int64)
        return self._per_point(batch, pq, terms, pq[w > 0])


def enhanced_two_step_fca(poi: "ray.data.Dataset", facilities: "pa.Table",
                          sigma: float = 500.0,
                          cutoff: float = 1500.0) -> "ray.data.Dataset":
    """E2SFCA (Luo & Qi 2009): 2SFCA with a Gaussian distance decay in
    BOTH steps.  ``denom = 2σ²`` is precomputed once so both engines
    divide by the identical double; weights and ratios are int64 (see
    the step classes), so every aggregate is order-exact."""
    denom = 2.0 * float(sigma) * float(sigma)
    fac = _ratio_table(poi, _supply_table(facilities), E2DemandWeight,
                       dict(denom=denom, cutoff=cutoff), "wsum", E2_RQ)
    return _catchment_stage(E2Access, fac,
                            dict(denom=denom, cutoff=cutoff,
                                 key_col="doc_id")).on(poi)
