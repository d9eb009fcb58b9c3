"""Distributed graph analytics over edge tables.

The reference repo has no graph operators; these support the
LLM-data-pipeline family (web-graph domain ranking for crawl curation,
link-graph dedup clusters).  PageRank here is *exact fixed-point
integer* arithmetic — rank is carried as an int64 in ``scale`` units
and every iteration is

    contrib(u)  = rank(u) // outdeg(u)                 (floor division)
    rank'(v)    = (15·scale + 85·Σ_{u→v} contrib(u)) // 100

so partial sums commute under any partitioning/reduction order and a
SQL oracle can replay the identical integers — no float drift across
engines or cluster sizes.

Two physical plans, size-gated on the node count (the near_dedup
``driver_threshold`` discipline):

* **Broadcast plan** (nodes ≤ ``broadcast_threshold``, default 20M ≈
  320 MB of rank state): the (sorted node, outdeg, rank) vectors live
  on the driver and ship once per iteration to the object store; each
  iteration is ONE ``map_batches`` pass over the (never reshuffled)
  edge table emitting per-batch pre-combined contributions + ONE
  bucketed O(active nodes) reduce (``functions/aggregates.py`` — the
  generic ``groupby(node)`` exchange measured 56 s/iteration at 10M
  edges / 1M nodes vs ~1 s bucketed; whole 3-iteration stress 948 s →
  53 s on 32 CPUs, identical integers).
* **Join plan** (beyond driver memory): the rank table stays a Dataset,
  attached to the edge stream by a bucket hash-join each iteration and
  re-materialized per round so lineage does not compound (same
  discipline as :func:`~greenex_py_ray.stages.dedup
  .connected_components`).

Dangling nodes (no out-edges) keep their mass un-redistributed; nodes
with no in-edges settle at the base ``15·scale // 100``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Sum

from ..functions.exchange import bucket_exchange
from ..functions.joins import bucket_join_attach
from ..sidefiles import shipped, side_table


def _distinct_nodes(edges: "ray.data.Dataset", src_col: str,
                    dst_col: str) -> "ray.data.Dataset":
    """(node) dataset = distinct(src) ∪ distinct(dst), via per-batch
    partial dedup + one bucketed shuffle (ships O(distinct per batch)
    rows; the generic ``groupby(node)`` exchange measured 125 s on a
    10M-edge graph, the bucket path ~2 s)."""
    from ..functions.aggregates import bucket_distinct

    def both(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col).to_numpy(zero_copy_only=False)
        d = batch.column(dst_col).to_numpy(zero_copy_only=False)
        return pa.table({"node": np.unique(np.concatenate([s, d]))})

    part = edges.map_batches(both, batch_format="pyarrow",
                             zero_copy_batch=True)
    return bucket_distinct(part, "node")


def _collect_column(ds: "ray.data.Dataset", col: str) -> np.ndarray:
    parts = [t.column(col).to_numpy(zero_copy_only=False)
             for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _collect_columns(ds: "ray.data.Dataset", cols) -> dict:
    """One execution for several columns — calling ``_collect_column``
    per column executed the WHOLE upstream pipeline once per call
    (measured: half of pagerank's gate wall)."""
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    out = {}
    for c in cols:
        parts = [t.column(c).to_numpy(zero_copy_only=False) for t in tabs]
        out[c] = (np.concatenate(parts) if parts
                  else np.empty(0, dtype=np.int64))
    return out


class _BroadcastContrib:
    """Per-batch step of the broadcast plan: resolve each edge's
    source rank/outdeg by binary search over the broadcast sorted node
    vector, floor-divide, pre-combine by dst within the batch."""

    def __init__(self, state_ref, src_col: str, dst_col: str):
        keys, ranks, deg = side_table(state_ref)
        self.keys, self.ranks, self.deg = keys, ranks, deg
        self.src_col, self.dst_col = src_col, dst_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        src = batch.column(self.src_col).to_numpy(zero_copy_only=False)
        dst = batch.column(self.dst_col).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(self.keys, src)
        c = self.ranks[idx] // self.deg[idx]
        uniq, inv = np.unique(dst, return_inverse=True)
        # int64-exact per-batch reduce (bincount goes through float64;
        # partials can approach 2^53 on dense graphs)
        s = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table({"node": uniq, "c": s})


def _pagerank_broadcast(edges, nodes, iters, scale, src_col, dst_col):
    import ray.data as _rd

    from ..functions.aggregates import bucket_group_reduce

    keys = np.sort(_collect_column(nodes, "node"))

    def out_deg(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch.column(src_col).to_numpy(
            zero_copy_only=False), return_counts=True)
        return pa.table({src_col: pa.array(u),
                         "deg": pa.array(c.astype(np.int64))})

    deg_ds = bucket_group_reduce(
        edges.map_batches(out_deg, batch_format="pyarrow",
                          zero_copy_batch=True),
        src_col, ["deg"], ["sum"])
    deg = np.ones(len(keys), dtype=np.int64)  # 1 for dangling: r//1
    dcols = _collect_columns(deg_ds, [src_col, "deg"])
    dk, dv = dcols[src_col], dcols["deg"].astype(np.int64)
    deg[np.searchsorted(keys, dk)] = dv
    ranks = np.full(len(keys), scale, dtype=np.int64)
    base = (15 * scale) // 100

    edges = edges.materialize()  # scanned once per iteration, never shuffled
    for _ in range(iters):
        ref = shipped((keys, ranks, deg))

        def contrib(batch: pa.Table, _ref=ref) -> pa.Table:
            # plain tasks: ray.get on the broadcast ref inside a task
            # is a zero-copy plasma read
            return _BroadcastContrib(_ref, src_col, dst_col)(batch)

        parts = edges.map_batches(contrib, batch_format="pyarrow",
                                  zero_copy_batch=True, num_cpus=0.5)
        # contrib batches are already key-combined; bucket-reduce the
        # O(uniq-per-batch) partials (the generic groupby here measured
        # 56 s/iteration at 10M edges, the bucket path ~1 s)
        summed = bucket_group_reduce(parts, "node", ["c"], ["sum"],
                                     pre_reduce=False)
        new = np.full(len(keys), base, dtype=np.int64)
        scols = _collect_columns(summed, ["node", "c"])
        ck, cv = scols["node"], scols["c"]
        if len(ck):
            new[np.searchsorted(keys, ck)] = (15 * scale + 85 * cv) // 100
        ranks = new

    return _rd.from_arrow(pa.table({"node": pa.array(keys),
                                    "rank": pa.array(ranks)}))


def _pagerank_join(edges, nodes, iters, scale, src_col, dst_col):
    from ..functions.aggregates import bucket_group_reduce

    def out_deg(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch.column(src_col).to_numpy(
            zero_copy_only=False), return_counts=True)
        return pa.table({src_col: pa.array(u),
                         "deg": pa.array(c.astype(np.int64))})

    deg = bucket_group_reduce(
        edges.map_batches(out_deg, batch_format="pyarrow",
                          zero_copy_batch=True),
        src_col, ["deg"], ["sum"])
    # (src, dst, deg) — joined once, reused by every iteration
    edges_deg = bucket_join_attach(edges, deg, key=src_col).materialize()

    def seed(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"node": batch.column("node"),
                         "r": np.full(n, scale, dtype=np.int64)})

    ranks = nodes.map_batches(seed, batch_format="pyarrow",
                              zero_copy_batch=True)

    def contrib(batch: pa.Table) -> pa.Table:
        r = batch.column("r").to_numpy(zero_copy_only=False)
        dg = batch.column("deg").to_numpy(zero_copy_only=False)
        dst = batch.column(dst_col).to_numpy(zero_copy_only=False)
        c = r // dg
        uniq, inv = np.unique(dst, return_inverse=True)
        s = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(s, inv, c)
        return pa.table({"node": uniq, "c": s})

    def zeros(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "c": np.zeros(batch.num_rows, dtype=np.int64)})

    def damp(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False)
        return pa.table({"node": batch.column("node"),
                         "r": (15 * scale + 85 * c) // 100})

    for _ in range(iters):
        ranks_src = ranks.map_batches(
            lambda b: pa.table({src_col: b.column("node"),
                                "r": b.column("r")}),
            batch_format="pyarrow", zero_copy_batch=True)
        ed = bucket_join_attach(edges_deg, ranks_src, key=src_col)
        parts = ed.map_batches(contrib, batch_format="pyarrow",
                               zero_copy_batch=True)
        seeded = parts.union(nodes.map_batches(
            zeros, batch_format="pyarrow", zero_copy_batch=True))
        summed = bucket_group_reduce(seeded, "node", ["c"], ["sum"],
                                     pre_reduce=False)
        ranks = summed.map_batches(
            damp, batch_format="pyarrow", zero_copy_batch=True).materialize()

    return ranks.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "rank": b.column("r")}),
        batch_format="pyarrow", zero_copy_batch=True)


def pagerank(edges: "ray.data.Dataset", iters: int = 3,
             scale: int = 1_000_000, src_col: str = "src",
             dst_col: str = "dst",
             broadcast_threshold: int = 20_000_000) -> "ray.data.Dataset":
    """Integer-exact PageRank (damping 0.85 as the 85/100 rational).

    ``edges`` is a (src, dst) int64 multigraph — parallel edges carry
    proportional weight, matching ``GROUP BY`` semantics in the oracle.
    Returns (node, rank) with rank in ``scale`` fixed-point units.
    Both physical plans produce identical integers (asserted by the
    10M-edge stress oracle in ``tools/stress_graph_clustering.py``).
    """
    nodes = _distinct_nodes(edges, src_col, dst_col).materialize()
    if nodes.count() <= broadcast_threshold:
        return _pagerank_broadcast(edges, nodes, iters, scale,
                                   src_col, dst_col)
    return _pagerank_join(edges, nodes, iters, scale, src_col, dst_col)


def triangle_count(edges: "ray.data.Dataset", u_col: str = "u",
                   v_col: str = "v",
                   num_buckets: int = 64) -> "ray.data.Dataset":
    """Global triangle + wedge count over an undirected edge table with
    ``u < v`` and no duplicates — the clustering-coefficient numerator
    (graph QA: how cliquey is the link graph).

    Node-iterator plan: wedges (v, w) with v < w are generated per
    apex u by a HASH-BUCKETED self-merge (one vectorized pandas merge
    per bucket, blowup bounded by Σ deg(u)²), then closed by an inner
    bucket hash-join of the wedge key against the edge-key table — no
    ``Dataset.join`` and no driver-side adjacency.  Each triangle
    (a < b < c) is counted exactly once (apex = a, closing edge (b, c)).
    Returns ONE row: (n_wedges = Σ_v C(deg v, 2), n_triangles) — the
    global clustering coefficient is 3·triangles / wedges.
    """
    import pandas as pd

    from ray.data.aggregate import Sum as _Sum

    # three consumers (wedge groups, closing-edge keys, degree counts)
    # would each re-execute the caller's edge lineage — pin the edge
    # list in the object store once (same rationale as pagerank's
    # per-iteration scan; distributed blocks, no driver copy)
    edges = edges.materialize()

    def key_of(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a << np.int64(32)) + b  # valid for ids < 2^31

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"u": batch.column(u_col), "v": batch.column(v_col)})

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="u")
        m = m[m["v_x"] < m["v_y"]]
        return pd.DataFrame(
            {"wk": key_of(m["v_x"].to_numpy(), m["v_y"].to_numpy())})

    wedge_ds = bucket_exchange(
        edges.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True),
        "u", wedges, num_buckets, "pandas")

    ekeys = edges.map_batches(
        lambda b: pa.table({
            "wk": key_of(b.column(u_col).to_numpy(zero_copy_only=False),
                         b.column(v_col).to_numpy(zero_copy_only=False)),
            "closed": np.ones(b.num_rows, np.int64)}),
        batch_format="pyarrow", zero_copy_batch=True)

    # known schemas: probing the lazy wedge side would run its exchange
    closed = bucket_join_attach(
        wedge_ds, ekeys, key="wk", left_fields=[pa.field("wk", pa.int64())],
        right_fields=[pa.field("wk", pa.int64()),
                      pa.field("closed", pa.int64())])

    def ones(name: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({name: pa.array([batch.num_rows],
                                            pa.int64())})
        return fn

    # standard wedge count Σ_v C(deg(v), 2) over FULL degree (the
    # apex-ordered merge above only generates greater-neighbor pairs —
    # correct and non-redundant for triangle closure, but not the
    # clustering-coefficient denominator)
    def endpoints(batch: pa.Table) -> pa.Table:
        u = batch.column(u_col)
        v = batch.column(v_col)
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        return pa.table({"node": pa.concat_arrays([u, v])})

    from ..functions.aggregates import bucket_group_reduce

    def end_counts(batch: pa.Table) -> pa.Table:
        t = endpoints(batch)
        u, c = np.unique(t.column("node").to_numpy(
            zero_copy_only=False), return_counts=True)
        return pa.table({"node": pa.array(u),
                         "cnt": pa.array(c.astype(np.int64))})

    deg = bucket_group_reduce(
        edges.map_batches(end_counts, batch_format="pyarrow",
                          zero_copy_batch=True),
        "node", ["cnt"], ["sum"])
    n_w = deg.map_batches(
        lambda b: pa.table({"n": pa.array([int(
            (lambda d: (d * (d - 1) // 2).sum())(
                b.column("cnt").to_numpy(
                    zero_copy_only=False).astype(np.int64)))],
            pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).aggregate(
        _Sum("n", alias_name="n"))["n"] or 0
    n_t = closed.map_batches(ones("n"), batch_format="pyarrow",
                             zero_copy_batch=True).aggregate(
        _Sum("n", alias_name="n"))["n"] or 0
    import ray.data as _rd
    return _rd.from_arrow(pa.table({
        "n_wedges": pa.array([int(n_w)], pa.int64()),
        "n_triangles": pa.array([int(n_t)], pa.int64()),
    }))
