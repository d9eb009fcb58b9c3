"""Gate queries: Ray pipelines over the driver testdata + DuckDB oracles.

Every entry here returns a Ray Dataset (or small pyarrow Table) over
``{sf_dir}`` and, where SQL-expressible, has a matching oracle in
:data:`ORACLE_SQL` producing identical column names and values (the
driver hashes values after sorting columns by name).

Arithmetic determinism rules used throughout (see
``sources/driver_tables.py``): coordinates derive from integer keys via
integer-mod + float division expressions that numpy and DuckDB evaluate
to bit-identical doubles; raster values come from the closed-form
``sources/synth`` fields whose sin/cos match DuckDB's libm calls
bit-for-bit (verified in tests); aggregated floats are rounded (3–6
decimals) so summation-order jitter cannot flip the hash.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from .. import cells
from ..functions.joins import (KernelStage, append_metrics, cluster_cpus,
                               drop_zero_count)
from ..sidefiles import shipped
from ..sources import documents as doc_src
from ..sources import driver_tables as dt
from ..sources import synth
from ..stages import dedup as dedup_stage
from ..stages import similarity, text
from ..stages.access import PointsInRects
from . import availability

CELL_SIZE = 500.0
KNN_TARGET = 500.0
COMPOSITE_POIS = 300
NDVI_RADIUS = 300.0
LULC_RADIUS = 500.0
TOPK_K = 10
TOPK_QUERY_IDS = (0, 1, 2)
EMB_DIM = 64
IVF_CENTROIDS = 16
IVF_NPROBE = 4

_X = dt.SQL_X.format(k="doc_id")
_Y = dt.SQL_Y.format(k="doc_id")
_GX = dt.SQL_X.format(k="p_partkey")
_GY = dt.SQL_Y.format(k="p_partkey")
_CELL = dt.SQL_CELL.format(k="doc_id", cs=CELL_SIZE)
_CX = dt.SQL_X.format(k="c_custkey")
_CY = dt.SQL_Y.format(k="c_custkey")

#: world pixel index bounds of the synthetic tile store (8×8 tiles of
#: 256 px → indices 0..2047); SQL pixel loops are clamped to this range
#: exactly like missing-tile skipping on the Ray side.
_NPIX = 8 * synth.TILE_PX - 1


def _world_docs_n() -> int:
    """Synthetic-world size knob: the correctness gate uses the small
    default; bench.py raises it via env to exercise parallelism."""
    return int(os.environ.get("GREENEX_WORLD_DOCS", "2000"))


def _zonal_batch_size(n_rows: int) -> int:
    """Batch size for the fused SAT-chord zonal stage: as large as
    possible (big per-tile point groups amortize numpy dispatch, +40 %
    single-thread at 16384) while still producing ≥4 batches for each
    of the cluster's CPUs, so the stream keeps every worker fed."""
    per_task = max(1, n_rows // (4 * cluster_cpus()))
    return int(min(16384, max(2048, per_task)))


def _world_tiles_root() -> str:
    """Lazily materialize the shared synthetic tile store under /tmp
    (idempotent, driver-side, ~30 MB/band)."""
    root = f"/tmp/greenex_world_{_world_docs_n()}"
    synth.ensure_world(root, n_docs=_world_docs_n())
    return os.path.join(root, "tiles")


# ---------------------------------------------------------------------------
# Spatial queries (coordinates derived from doc_id / p_partkey)
# ---------------------------------------------------------------------------


def q_cell_assignment(sf_dir: str):
    """Tile/cell assignment: doc → grid cell, docs per cell (the north
    rule's 'tile assignments' check)."""
    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return ds.groupby("cell").aggregate(Count(alias_name="n_docs"))


def q_bbox(sf_dir: str):
    """Global bounds aggregate (SURVEY M7/A7: total_bounds)."""
    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    res = ds.aggregate(
        Min("x", alias_name="min_x"), Max("x", alias_name="max_x"),
        Min("y", alias_name="min_y"), Max("y", alias_name="max_y"),
    )
    return pa.table({k: [v] for k, v in res.items()})


def q_knn_greenspace(sf_dir: str):
    """Nearest greenspace centroid per doc (SURVEY J5 + accessibility
    semantics: round 0, miss→target, flag)."""
    from .accessibility import nearest_greenspace_stage

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    centroids = dt.greenspace_centroids_from_part(sf_dir)
    return nearest_greenspace_stage(centroids, KNN_TARGET,
                                    "greenspace_within_target").on(ds)


def _rects_from_part(sf_dir: str) -> pa.Table:
    t = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    k = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    cx, cy = dt.derive_xy(k)
    w = 100.0 + (k * 13 % 400).astype(np.float64)
    h = 100.0 + (k * 29 % 500).astype(np.float64)
    return pa.table(
        {"gs_id": pa.array(k), "x0": pa.array(cx - w), "y0": pa.array(cy - h),
         "x1": pa.array(cx + w), "y1": pa.array(cy + h)}
    )


def q_pip_count(sf_dir: str):
    """Point-in-polygon (axis-aligned) join: docs per greenspace rect
    (SURVEY J2/J6 cell-refined containment join)."""
    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    pairs = KernelStage(
        PointsInRects, dict(rects_ref=shipped(_rects_from_part(sf_dir))),
        dict(num_cpus=0.25)).on(ds)
    return pairs.groupby("gs_id").aggregate(Count(alias_name="n_docs"))


def q_pip_count_shuffle(sf_dir: str):
    """Same join as q_pip_count but via the salted groupby-cell SHUFFLE
    path (stages/spatial_join.cell_pip_join) — thresholds forced low so
    the salting machinery actually engages at gate scale; the SQL oracle
    is identical to q_pip_count's."""
    from ..stages.spatial_join import cell_pip_join

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    pairs = cell_pip_join(
        ds.select_columns(["doc_id", "x", "y"]), _rects_from_part(sf_dir),
        cell_size=CELL_SIZE, hot_threshold=20, target_per_salt=10,
    )
    return pairs.groupby("gs_id").aggregate(Count(alias_name="n_docs"))


def _stac_catalog_from_supplier(sf_dir: str) -> pa.Table:
    """Synthetic STAC item catalog derived from ``supplier`` (small side —
    broadcast): footprint bbox, cloud cover and acquisition year all
    arithmetic in s_suppkey.  Pre-filtered to year == 2021, mirroring the
    reference's datetime search window (availability.py:158-163)."""
    t = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"])
    k = t.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    year = 2020 + (k * 13 % 2)
    k = k[year == 2021]
    cx, cy = dt.derive_xy(k)
    hw = 3000.0 + (k * 17 % 4000).astype(np.float64)
    hh = 3000.0 + (k * 31 % 4000).astype(np.float64)
    cloud = (k * 7919 % 997) / 25.0
    return pa.table({
        "item_id": pa.array(k), "x0": pa.array(cx - hw), "y0": pa.array(cy - hh),
        "x1": pa.array(cx + hw), "y1": pa.array(cy + hh),
        "cloud_cover": pa.array(cloud),
    })


def q_stac_lowest_cloud(sf_dir: str):
    """Lowest-cloud STAC item per AoI (SURVEY A9: the reference's
    planetary-computer argmin selection, availability.py:157-175, made
    per-AoI).  Catalog broadcast; AoIs stream; no shuffle."""
    from ..stages.stac import LowestCloudSelector

    ds = dt.read_table(sf_dir, "customer", columns=["c_custkey"])

    def aoi(batch: pa.Table) -> pa.Table:
        k = batch.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        cx, cy = dt.derive_xy(k)
        half = 50.0 + (k * 11 % 200).astype(np.float64)
        return pa.table({
            "aoi_id": pa.array(k), "x0": pa.array(cx - half), "y0": pa.array(cy - half),
            "x1": pa.array(cx + half), "y1": pa.array(cy + half),
        })

    a = ds.map_batches(aoi, batch_format="pyarrow", zero_copy_batch=True)
    return KernelStage(
        LowestCloudSelector,
        dict(catalog_ref=shipped(_stac_catalog_from_supplier(sf_dir))),
        dict(num_cpus=0.25)).on(a)


def q_line_buffer_ndvi(sf_dir: str):
    """Street-edges-as-PoI zonal NDVI (S2 place-query flow,
    availability.py:52-61,134): each edge's AoI is its buffered segment
    (capsule).  Edges derived arithmetically from supplier keys so the
    DuckDB oracle reproduces the pixel set bit-for-bit."""
    t = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"])
    k = t.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    ax, ay = dt.derive_xy(k)
    bx = ax + ((k * 7561) % 300).astype(np.float64) - 150.0
    by = ay + ((k * 631) % 300).astype(np.float64) - 150.0
    edges = pa.table({"edge_id": pa.array(k), "ax": pa.array(ax),
                      "ay": pa.array(ay), "bx": pa.array(bx),
                      "by": pa.array(by)})
    return availability.mean_ndvi_line_aoi(
        ray.data.from_arrow(edges), _world_tiles_root(), buffer_dist=50.0)


def q_canopy_pct_rect(sf_dir: str):
    """Rect-canopy % of a square AoI — the VALUE-VERIFIED form of the
    coverage family (M16/A3/J2): sum of clip areas over a broadcast rect
    table, mirroring the reference's ``clip(aoi).area.sum()``
    (availability.py:764) with arithmetic DuckDB can reproduce exactly."""
    from ..stages.coverage import RectCoverage

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE).select_columns(["doc_id", "x", "y"])
    return KernelStage(
        RectCoverage,
        dict(rects_ref=shipped(_rects_from_part(sf_dir)), half=250.0),
        dict(num_cpus=0.25)).on(ds)


def q_cosine_pairs_exact(sf_dir: str):
    """Exact cosine similarity self-join (pairs >= 0.4) — the oracle-
    verified exact baseline of the embedding near-dup family."""
    ds = dt.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return similarity.cosine_pairs_exact(ds, EMB_DIM, 0.4)


def q_zonal_mean_ndvi(sf_dir: str):
    """Zonal NDVI mean/std per doc against the synthetic tile store
    (SURVEY M14/A1: clamp ≥0, population std, round 3)."""
    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return availability.mean_ndvi_stage(_world_tiles_root(), NDVI_RADIUS).on(
        ds.select_columns(["doc_id", "x", "y"]))


def q_landcover_pct(sf_dir: str):
    """Zonal landcover class percentages per doc (SURVEY M15/A2)."""
    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return availability.landcover_stage(_world_tiles_root(), LULC_RADIUS).on(
        ds.select_columns(["doc_id", "x", "y"]))


# ---------------------------------------------------------------------------
# Text / dedup / similarity (training-data operators)
# ---------------------------------------------------------------------------


def q_dedup_exact(sf_dir: str):
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_stage.exact_dedup(ds)
    return out.select_columns(["doc_id"])


def q_token_count(sf_dir: str):
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(text.token_count_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.select_columns(["doc_id", "n_tokens"])


def q_quality(sf_dir: str):
    """Quality scores (rows-only check: regex-token ratios are not
    reproduced in SQL)."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(text.quality_score_batch, batch_format="pyarrow")
    return out.select_columns(
        ["doc_id", "q_n_chars", "q_n_tokens", "q_mean_word_len",
         "q_punct_ratio", "q_stopword_ratio", "q_upper_ratio"]
    )


def q_langid(sf_dir: str):
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = KernelStage(text.LangId, {},
                      dict(batch_format="pandas", num_cpus=0.25)).on(ds)
    return out.select_columns(["doc_id", "lang_pred", "lang_score"])


def q_fingerprint(sf_dir: str):
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(text.fingerprint_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint"])


def q_minhash_lsh(sf_dir: str):
    """MinHash+LSH near-dup candidate pairs (rows-only check; verified
    against exact n-gram Jaccard in tests)."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_stage.minhash_lsh_candidates(ds)


def q_near_dedup(sf_dir: str):
    """End-to-end near-dup removal: LSH candidates → Jaccard verify →
    components → keep min-key per cluster (rows-only; pieces verified
    in tests)."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_stage.near_dedup(ds, threshold=0.7)
    return out.select_columns(["doc_id"])


def q_simhash(sf_dir: str):
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = KernelStage(dedup_stage.SimHasher, {}, dict(num_cpus=0.25)).on(ds)
    return out.select_columns(["doc_id", "simhash"])


def q_embedding_topk(sf_dir: str):
    """Brute-force cosine top-k per query vector (broadcast query
    matrix, per-batch local top-k, global reduce)."""
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = emb.column("vec_id").to_numpy(zero_copy_only=False)
    sel = np.isin(ids, TOPK_QUERY_IDS)
    Q = (
        emb.column("embedding").combine_chunks().flatten()
        .to_numpy(zero_copy_only=False).reshape(-1, EMB_DIM)[sel]
    )
    queries = {"query_id": ids[sel].tolist(), "vectors": Q}
    ds = dt.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = similarity.brute_force_topk(ds, queries, TOPK_K, EMB_DIM)
    return out.map_batches(
        lambda b: pa.table({
            "query_id": b.column("query_id"),
            "vec_id": b.column("vec_id"),
            "score": pa.array(np.round(b.column("score").to_numpy(zero_copy_only=False), 6)),
        }),
        batch_format="pyarrow",
    )


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane-LSH buckets +
    in-bucket exact verify (rows-only; recall measured in tests)."""
    ds = dt.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    bucketed = KernelStage(dedup_stage.EmbeddingLSH,
                           dict(dim=EMB_DIM, planes=10),
                           dict(num_cpus=0.25)).on(ds)
    # driver embeddings are random gaussians (max pairwise cosine ≈ 0.48)
    # so the "near-dup" threshold here is set low enough to surface the
    # distribution tail; real corpora would use ≥0.9.
    return bucketed.groupby("bucket").map_groups(
        lambda g: dedup_stage.cosine_pairs_in_group(g, 0.30, "vec_id"),
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# Relational / windowed (engine breadth: partial+final aggregation)
# ---------------------------------------------------------------------------


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window per event_type (epoch-hour key)."""
    ds = dt.read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def win(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = ts // 3_600_000_000
        return pa.table({
            "event_type": batch.column("event_type"),
            "window_hour": pa.array(hour),
            "value": batch.column("value"),
        })

    w = ds.map_batches(win, batch_format="pyarrow", zero_copy_batch=True)
    agg = w.groupby(["event_type", "window_hour"]).aggregate(
        Count(alias_name="n"), Sum("value", alias_name="sum_value_raw")
    )
    return agg.map_batches(
        lambda b: pa.table({
            "event_type": b.column("event_type"),
            "window_hour": b.column("window_hour"),
            "n": b.column("n"),
            "sum_value": pa.array(
                np.round(b.column("sum_value_raw").to_numpy(zero_copy_only=False), 6)
            ),
        }),
        batch_format="pyarrow",
    )


def q_asof_last_order(sf_dir: str):
    """As-of join: each event matched to the user's latest order at or
    before the event timestamp (bucketed merge_asof — the temporal-join
    operator class the reference lacks)."""
    from ..stages.asof import asof_join_latest

    events = dt.read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = dt.read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    return asof_join_latest(
        events, orders, left_key="user_id", right_key="o_custkey",
        left_ts="ts", right_ts="o_orderdate", left_id="event_id",
        out_col="last_order_epoch",
    )


def q_range_join_count(sf_dir: str):
    """Temporal range join: orders per user within the 3000 days before
    each event (bucketed searchsorted — the range-join operator class)."""
    from ..stages.asof import range_join_count

    events = dt.read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = dt.read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    return range_join_count(
        events, orders, left_key="user_id", right_key="o_custkey",
        left_ts="ts", right_ts="o_orderdate", left_id="event_id",
        window_us=3000 * 86400 * 1_000_000, out_col="n_orders_window",
    )


def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-shaped rollup with per-batch partial aggregation before
    the groupby shuffle (the SURVEY §2.5 partial+final pattern)."""
    ds = dt.read_table(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow/numpy partial: factorize the 2-column group key, then
        # np.add.at segment sums — no pandas round-trip
        rf = batch.column("l_returnflag").to_pylist()
        ls = batch.column("l_linestatus").to_pylist()
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        rev = (batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
               * (1.0 - batch.column("l_discount").to_numpy(zero_copy_only=False)))
        # per-row milli-unit quantization BEFORE the sum: a float
        # revenue sum's order-dependent last ulp flipped the round-3
        # output digit at sf0.001 (strict-sweep catch); int64 partials
        # are order-exact (qty are small integers-as-doubles — their
        # float sum is exact at any order, no quantization needed)
        rev_q = np.floor(rev * 1000.0 + 0.5).astype(np.int64)
        keys = np.array([a + "\x00" + b for a, b in zip(rf, ls)])
        uniq, inv = np.unique(keys, return_inverse=True)
        sq = np.zeros(len(uniq))
        sr = np.zeros(len(uniq), dtype=np.int64)
        cn = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sq, inv, qty)
        np.add.at(sr, inv, rev_q)
        np.add.at(cn, inv, 1)
        parts = [u.split("\x00") for u in uniq]
        return pa.table({
            "l_returnflag": pa.array([p[0] for p in parts]),
            "l_linestatus": pa.array([p[1] for p in parts]),
            "pq_qty": pa.array(sq),
            "pq_rev": pa.array(sr),
            "pq_n": pa.array(cn),
        })

    p = ds.map_batches(partial, batch_format="pyarrow")
    agg = p.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("pq_qty"), Sum("pq_rev"), Sum("pq_n")
    )
    return agg.map_batches(
        lambda b: pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "l_linestatus": b.column("l_linestatus"),
            "sum_qty": pa.array(np.round(b.column("sum(pq_qty)").to_numpy(zero_copy_only=False), 3)),
            "sum_rev": pa.array(
                b.column("sum(pq_rev)").to_numpy(
                    zero_copy_only=False).astype(np.int64) / 1000.0),
            "n": b.column("sum(pq_n)"),
        }),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Oracle SQL
# ---------------------------------------------------------------------------

_NDVI_SQL = (
    "least(greatest(0.45*sin(px*0.00123)*cos(py*0.00117)"
    " + 0.30*sin((px+py)*0.00071) + 0.15, -1.0), 1.0)"
)

_LULC_SQL = f"""
CASE WHEN {_NDVI_SQL} > 0.45 THEN 10
     WHEN {_NDVI_SQL} > 0.25 THEN 30
     WHEN {_NDVI_SQL} > 0.05 THEN 40
     WHEN ((CAST(floor(px/400.0) AS BIGINT) * 2654435761
            + CAST(floor(py/400.0) AS BIGINT) * 40503) % 10) < 3 THEN 50
     WHEN ((CAST(floor(px/400.0) AS BIGINT) * 2654435761
            + CAST(floor(py/400.0) AS BIGINT) * 40503) % 10) < 6 THEN 60
     ELSE 80 END
"""

#: pixel-disk expansion over an existing ``docs(doc_id, x, y)`` CTE —
#: shared by the sf-table zonal oracles and the world-docs span oracles
_PIX_BODY = f"""
pixidx AS (SELECT i AS idx FROM range(0, {_NPIX} + 1) t(i)),
pix AS (
  SELECT d.doc_id, d.x, d.y,
         (gx.idx * 10.0 + 5.0) AS px, (gy.idx * 10.0 + 5.0) AS py
  FROM docs d
  JOIN pixidx gx ON gx.idx >= floor((d.x - {{r}}) / 10.0)
                AND gx.idx <= floor((d.x + {{r}}) / 10.0)
  JOIN pixidx gy ON gy.idx >= floor((d.y - {{r}}) / 10.0)
                AND gy.idx <= floor((d.y + {{r}}) / 10.0)
  WHERE (gx.idx * 10.0 + 5.0 - d.x) * (gx.idx * 10.0 + 5.0 - d.x)
      + (gy.idx * 10.0 + 5.0 - d.y) * (gy.idx * 10.0 + 5.0 - d.y) <= {{r}} * {{r}}
)
"""

_PIXELS_CTE = f"""
docs AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),""" + _PIX_BODY

#: SQL IN-lists of the per-language stopword sets (quality/langid oracles)
_SW_SQL = {
    lang: "(" + ", ".join(f"'{w}'" for w in sorted(ws)) + ")"
    for lang, ws in text.STOPWORDS.items()
}


def _embedding_lsh_bucket_sql(vec_expr: str) -> str:
    """SQL expression for the hyperplane-LSH bucket id of ``vec_expr`` —
    the same seed-13 gaussian planes every EmbeddingLSH kernel draws,
    embedded as literals (full-precision repr round-trips exactly)."""
    H = dedup_stage.EmbeddingLSH(dim=EMB_DIM, planes=10).H
    terms = []
    for p in range(H.shape[1]):
        lit = "[" + ", ".join(repr(float(v)) for v in H[:, p]) + "]"
        terms.append(
            f"(CASE WHEN list_dot_product({vec_expr}, {lit}) > 0 "
            f"THEN {1 << p} ELSE 0 END)"
        )
    return "(" + "\n + ".join(terms) + ")"


def _minhash_perms_sql() -> str:
    """(perm, a, b) VALUES rows of the seed-7 MinHash permutation
    constants — the same numbers every MinHasher kernel draws."""
    mh = dedup_stage.MinHasher()
    return ",".join(
        f"({p},{int(mh.a[p])}::HUGEINT,{int(mh.b[p])}::HUGEINT)"
        for p in range(64)
    )

_MINHASH_CTES = r"""
padded AS (
          SELECT doc_id,
                 CASE WHEN length(text) < 5 THEN text || repeat(' ', 5)
                      ELSE text END AS t
          FROM documents
        ),
        shingles AS (
          -- 5-gram byte-dot-product hashes (ASCII text: ascii == byte),
          -- identical to MinHasher.shingle_hashes; DISTINCT == np.unique
          SELECT DISTINCT doc_id,
                 (ascii(substring(t, CAST(p.i AS INTEGER) + 1, 1)) * 923521
                  + ascii(substring(t, CAST(p.i AS INTEGER) + 2, 1)) * 29791
                  + ascii(substring(t, CAST(p.i AS INTEGER) + 3, 1)) * 961
                  + ascii(substring(t, CAST(p.i AS INTEGER) + 4, 1)) * 31
                  + ascii(substring(t, CAST(p.i AS INTEGER) + 5, 1)))::HUGEINT AS sh
          FROM padded CROSS JOIN range(0, 100000) p(i)
          WHERE p.i <= length(t) - 5
        ),
        perms(perm, pa, pb) AS (VALUES __MINHASH_PERMS__),
        mins AS (
          -- (a*x + b) with uint64 wraparound, then mod the Mersenne
          -- prime — the engine's exact arithmetic
          SELECT s.doc_id, p.perm,
                 min(((p.pa * s.sh) % 18446744073709551616::HUGEINT + p.pb)
                     % 18446744073709551616::HUGEINT
                     % 2305843009213693951::HUGEINT) AS mh
          FROM shingles s CROSS JOIN perms p
          GROUP BY s.doc_id, p.perm
        ),
        bands AS (
          SELECT doc_id, perm // 4 AS band_id, list(mh ORDER BY perm) AS vals
          FROM mins GROUP BY doc_id, perm // 4
        ),
        bh AS (
          SELECT doc_id, band_id,
                 list_reduce(list_prepend(1469598103934665603::HUGEINT, vals),
                   (acc, v) -> ((acc * 1099511628211)
                                % 18446744073709551616::HUGEINT + v)
                               % 18446744073709551616::HUGEINT) AS h
          FROM bands
        ),
        sized AS (
          SELECT doc_id, band_id, h,
                 count(*) OVER (PARTITION BY band_id, h) AS bs,
                 min(doc_id) OVER (PARTITION BY band_id, h) AS mk
          FROM bh
        )
"""

ORACLE_SQL: dict[str, str] = {
    "cell_assignment": f"""
        SELECT {_CELL} AS cell, count(*) AS n_docs
        FROM documents GROUP BY 1
    """,
    "bbox": f"""
        SELECT min({_X}) AS min_x, max({_X}) AS max_x,
               min({_Y}) AS min_y, max({_Y}) AS max_y
        FROM documents
    """,
    "knn_greenspace": f"""
        WITH docs AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
        gs AS (SELECT p_partkey AS gs_id, {_GX} AS cx, {_GY} AS cy FROM part),
        d AS (
          SELECT doc_id, gs_id,
                 sqrt((x-cx)*(x-cx) + (y-cy)*(y-cy)) AS rawd,
                 row_number() OVER (
                   PARTITION BY doc_id
                   ORDER BY sqrt((x-cx)*(x-cx) + (y-cy)*(y-cy)) ASC, gs_id ASC
                 ) AS rn
          FROM docs CROSS JOIN gs
        )
        SELECT doc_id,
               CASE WHEN round(rawd, 0) <= {KNN_TARGET} THEN round(rawd, 0)
                    ELSE {KNN_TARGET} END AS distance_to_greenspace,
               round(rawd, 0) <= {KNN_TARGET} AS greenspace_within_target,
               gs_id AS nearest_gs_id
        FROM d WHERE rn = 1
    """,
    "stac_lowest_cloud": f"""
        WITH items AS (
          SELECT s_suppkey AS item_id,
                 {dt.SQL_X.format(k="s_suppkey")} - (3000.0 + (s_suppkey * 17) % 4000) AS x0,
                 {dt.SQL_X.format(k="s_suppkey")} + (3000.0 + (s_suppkey * 17) % 4000) AS x1,
                 {dt.SQL_Y.format(k="s_suppkey")} - (3000.0 + (s_suppkey * 31) % 4000) AS y0,
                 {dt.SQL_Y.format(k="s_suppkey")} + (3000.0 + (s_suppkey * 31) % 4000) AS y1,
                 ((s_suppkey * 7919) % 997) / 25.0 AS cloud_cover
          FROM supplier
          WHERE (2020 + (s_suppkey * 13) % 2) = 2021
            AND ((s_suppkey * 7919) % 997) / 25.0 < 20.0
        ),
        aoi AS (
          SELECT c_custkey AS aoi_id,
                 {_CX} - (50.0 + (c_custkey * 11) % 200) AS x0,
                 {_CX} + (50.0 + (c_custkey * 11) % 200) AS x1,
                 {_CY} - (50.0 + (c_custkey * 11) % 200) AS y0,
                 {_CY} + (50.0 + (c_custkey * 11) % 200) AS y1
          FROM customer
        ),
        j AS (
          SELECT aoi.aoi_id, items.item_id, items.cloud_cover,
                 row_number() OVER (
                   PARTITION BY aoi.aoi_id
                   ORDER BY items.cloud_cover ASC, items.item_id ASC
                 ) AS rn
          FROM aoi JOIN items
            ON aoi.x0 >= items.x0 AND aoi.x1 <= items.x1
           AND aoi.y0 >= items.y0 AND aoi.y1 <= items.y1
        )
        SELECT aoi_id, item_id, cloud_cover FROM j WHERE rn = 1
    """,
    "pip_count_shuffle": f"""
        WITH docs AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
        rects AS (
          SELECT p_partkey AS gs_id,
                 {_GX} - (100.0 + (p_partkey * 13) % 400) AS x0,
                 {_GX} + (100.0 + (p_partkey * 13) % 400) AS x1,
                 {_GY} - (100.0 + (p_partkey * 29) % 500) AS y0,
                 {_GY} + (100.0 + (p_partkey * 29) % 500) AS y1
          FROM part
        )
        SELECT gs_id, count(*) AS n_docs
        FROM rects JOIN docs
          ON docs.x >= rects.x0 AND docs.x <= rects.x1
         AND docs.y >= rects.y0 AND docs.y <= rects.y1
        GROUP BY gs_id
    """,
    "pip_count": f"""
        WITH docs AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
        rects AS (
          SELECT p_partkey AS gs_id,
                 {_GX} - (100.0 + (p_partkey * 13) % 400) AS x0,
                 {_GX} + (100.0 + (p_partkey * 13) % 400) AS x1,
                 {_GY} - (100.0 + (p_partkey * 29) % 500) AS y0,
                 {_GY} + (100.0 + (p_partkey * 29) % 500) AS y1
          FROM part
        )
        SELECT gs_id, count(*) AS n_docs
        FROM rects JOIN docs
          ON docs.x >= rects.x0 AND docs.x <= rects.x1
         AND docs.y >= rects.y0 AND docs.y <= rects.y1
        GROUP BY gs_id
    """,
    "zonal_mean_ndvi": "WITH " + _PIXELS_CTE.format(r=NDVI_RADIUS) + f"""
        , vals AS (SELECT doc_id, greatest({_NDVI_SQL}, 0.0) AS v FROM pix)
        SELECT doc_id,
               round(avg(v), 3) AS mean_NDVI,
               round(sqrt(greatest(avg(v*v) - avg(v)*avg(v), 0.0)), 3) AS std_NDVI
        FROM vals GROUP BY doc_id
    """,
    "landcover_pct": "WITH " + _PIXELS_CTE.format(r=LULC_RADIUS) + f"""
        , vals AS (SELECT doc_id, {_LULC_SQL} AS cls FROM pix)
        SELECT doc_id,
               round(100.0 * sum(CASE WHEN cls = 10 THEN 1 ELSE 0 END) / count(*), 3) AS pct_tree,
               round(100.0 * sum(CASE WHEN cls = 30 THEN 1 ELSE 0 END) / count(*), 3) AS pct_grass,
               round(100.0 * sum(CASE WHEN cls = 40 THEN 1 ELSE 0 END) / count(*), 3) AS pct_crop,
               round(100.0 * sum(CASE WHEN cls = 50 THEN 1 ELSE 0 END) / count(*), 3) AS pct_builtup,
               round(100.0 * sum(CASE WHEN cls = 60 THEN 1 ELSE 0 END) / count(*), 3) AS pct_bare,
               round(100.0 * sum(CASE WHEN cls = 80 THEN 1 ELSE 0 END) / count(*), 3) AS pct_water
        FROM vals GROUP BY doc_id
    """,
    "dedup_exact": """
        SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
    """,
    "quality": r"""
        WITH base AS (
          SELECT doc_id, text,
                 CAST(length(text) AS BIGINT) AS nc,
                 CAST(CASE WHEN trim(text) = '' THEN 0
                      ELSE array_length(string_split_regex(trim(text), '\s+'))
                      END AS BIGINT) AS nt,
                 CAST(length(text)
                      - length(regexp_replace(text, '[!"''(),\-.:;?\[\]{}]', '', 'g'))
                      AS BIGINT) AS np,
                 CAST(length(regexp_replace(text, '[^A-Z]', '', 'g'))
                      AS BIGINT) AS nu,
                 CAST(length(list_filter(
                        string_split_regex(trim(text), '\s+'),
                        t -> lower(t) IN """ + _SW_SQL["en"] + r"""))
                      AS BIGINT) AS ns
          FROM documents
        )
        SELECT doc_id,
               nc AS q_n_chars,
               nt AS q_n_tokens,
               CASE WHEN nt > 0
                    THEN CAST(nc - greatest(nt - 1, 0) AS DOUBLE)
                         / CAST(greatest(nt, 1) AS DOUBLE)
                    ELSE 0.0 END AS q_mean_word_len,
               CASE WHEN nc > 0 THEN CAST(np AS DOUBLE) / CAST(nc AS DOUBLE)
                    ELSE 0.0 END AS q_punct_ratio,
               CASE WHEN nt > 0
                    THEN CAST(ns AS DOUBLE) / CAST(greatest(nt, 1) AS DOUBLE)
                    ELSE 0.0 END AS q_stopword_ratio,
               CASE WHEN nc > 0 THEN CAST(nu AS DOUBLE) / CAST(nc AS DOUBLE)
                    ELSE 0.0 END AS q_upper_ratio
        FROM base
    """,
    "langid": r"""
        WITH toks AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[a-z'']+') AS ws
          FROM documents
        ),
        scores AS (
          SELECT doc_id,
            CAST(length(list_filter(ws, t -> t IN """ + _SW_SQL["en"] + r""")) AS DOUBLE)
              / CAST(greatest(1, length(ws)) AS DOUBLE) AS s_en,
            CAST(length(list_filter(ws, t -> t IN """ + _SW_SQL["es"] + r""")) AS DOUBLE)
              / CAST(greatest(1, length(ws)) AS DOUBLE) AS s_es,
            CAST(length(list_filter(ws, t -> t IN """ + _SW_SQL["de"] + r""")) AS DOUBLE)
              / CAST(greatest(1, length(ws)) AS DOUBLE) AS s_de,
            CAST(length(list_filter(ws, t -> t IN """ + _SW_SQL["fr"] + r""")) AS DOUBLE)
              / CAST(greatest(1, length(ws)) AS DOUBLE) AS s_fr
          FROM toks
        )
        SELECT doc_id,
               CASE WHEN s_en >= s_es AND s_en >= s_de AND s_en >= s_fr THEN 'en'
                    WHEN s_es >= s_de AND s_es >= s_fr THEN 'es'
                    WHEN s_de >= s_fr THEN 'de'
                    ELSE 'fr' END AS lang_pred,
               greatest(s_en, s_es, s_de, s_fr) AS lang_score
        FROM scores
    """,
    "canopy_pct_rect": f"""
        WITH docs AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
        rects AS (
          SELECT p_partkey AS gs_id,
                 {_GX} - (100.0 + (p_partkey * 13) % 400) AS x0,
                 {_GX} + (100.0 + (p_partkey * 13) % 400) AS x1,
                 {_GY} - (100.0 + (p_partkey * 29) % 500) AS y0,
                 {_GY} + (100.0 + (p_partkey * 29) % 500) AS y1
          FROM part
        ),
        ov AS (
          -- NB: DuckDB's least/greatest SKIP nulls, so the unmatched
          -- LEFT JOIN row must be zeroed explicitly
          SELECT d.doc_id,
                 CASE WHEN r.gs_id IS NULL THEN 0.0 ELSE
                 greatest(0.0, least(r.x1, d.x + 250.0)
                               - greatest(r.x0, d.x - 250.0))
                 * greatest(0.0, least(r.y1, d.y + 250.0)
                                 - greatest(r.y0, d.y - 250.0)) END AS a
          FROM docs d LEFT JOIN rects r
            ON r.x0 <= d.x + 250.0 AND r.x1 >= d.x - 250.0
           AND r.y0 <= d.y + 250.0 AND r.y1 >= d.y - 250.0
        )
        SELECT doc_id,
               round(100.0 * sum(coalesce(a, 0.0)) / (500.0 * 500.0), 6)
                 AS rect_cover
        FROM ov GROUP BY doc_id
    """,
    "minhash_lsh": "WITH " + _MINHASH_CTES + r"""
        -- all-pairs per bucket; buckets over the 256 star cap emit only
        -- (min-key ↔ member) pairs, exactly like the engine
        SELECT DISTINCT a.doc_id AS key_a, b.doc_id AS key_b
        FROM sized a JOIN sized b
          ON a.band_id = b.band_id AND a.h = b.h AND a.doc_id < b.doc_id
         AND (a.bs <= 256 OR a.doc_id = a.mk)
    """,
    # end-to-end near-dedup: the MinHash candidate CTEs + exact shingle
    # Jaccard verify (0.7) + connected components via a recursive CTE +
    # survivors = all docs minus non-representative cluster members
    "near_dedup": "WITH RECURSIVE " + _MINHASH_CTES + r""",
        cand AS (
          SELECT DISTINCT a.doc_id AS key_a, b.doc_id AS key_b
          FROM sized a JOIN sized b
            ON a.band_id = b.band_id AND a.h = b.h AND a.doc_id < b.doc_id
           AND (a.bs <= 256 OR a.doc_id = a.mk)
        ),
        ssize AS (SELECT doc_id, count(*) AS n FROM shingles GROUP BY doc_id),
        inter AS (
          SELECT c.key_a, c.key_b, count(*) AS ni
          FROM cand c
          JOIN shingles sa ON sa.doc_id = c.key_a
          JOIN shingles sb ON sb.doc_id = c.key_b AND sb.sh = sa.sh
          GROUP BY c.key_a, c.key_b
        ),
        dup AS (
          SELECT c.key_a, c.key_b
          FROM cand c
          JOIN ssize za ON za.doc_id = c.key_a
          JOIN ssize zb ON zb.doc_id = c.key_b
          LEFT JOIN inter i ON i.key_a = c.key_a AND i.key_b = c.key_b
          WHERE coalesce(i.ni, 0)::DOUBLE
                / (za.n + zb.n - coalesce(i.ni, 0)) >= 0.7
        ),
        eset AS (SELECT key_a AS a, key_b AS b FROM dup
                 UNION ALL SELECT key_b, key_a FROM dup),
        walk(node, comp) AS (
          SELECT a, a FROM eset
          UNION
          SELECT e.b, w.comp FROM walk w JOIN eset e ON e.a = w.node
        ),
        comp AS (SELECT node, min(comp) AS component FROM walk GROUP BY node)
        SELECT doc_id FROM documents
        WHERE doc_id NOT IN (SELECT node FROM comp WHERE node <> component)
    """,
    "simhash": r"""
        WITH toks AS (
          SELECT doc_id, unnest(string_split_regex(lower(trim(text)), '\s+')) AS tok
          FROM documents WHERE trim(text) <> ''
        ),
        h AS (
          SELECT doc_id, list_reduce(
            list_prepend(1469598103934665603::HUGEINT,
              list_transform(regexp_extract_all(tok, '.'),
                             c -> ascii(c)::HUGEINT)),
            (a, b) -> (a * 1000003 + b) % 18446744073709551616::HUGEINT) AS th
          FROM toks
        ),
        bits AS (
          SELECT doc_id, b.i AS bit,
                 sum(CASE WHEN (th // (1::HUGEINT << CAST(b.i AS INTEGER))) % 2 = 1
                     THEN 1 ELSE -1 END) AS score
          FROM h CROSS JOIN range(0, 64) b(i)
          GROUP BY doc_id, b.i
        ),
        sv AS (
          SELECT doc_id,
                 sum(CASE WHEN score > 0
                     THEN (1::HUGEINT << CAST(bit AS INTEGER))
                     ELSE 0::HUGEINT END) AS v
          FROM bits GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(CASE WHEN coalesce(sv.v, 0::HUGEINT)
                              >= 9223372036854775808::HUGEINT
                    THEN coalesce(sv.v, 0::HUGEINT)
                         - 18446744073709551616::HUGEINT
                    ELSE coalesce(sv.v, 0::HUGEINT) END AS BIGINT) AS simhash
        FROM documents d LEFT JOIN sv ON sv.doc_id = d.doc_id
    """,
    "fingerprint": """
        SELECT doc_id,
               CAST(CASE WHEN h >= 9223372036854775808::HUGEINT
                    THEN h - 18446744073709551616::HUGEINT
                    ELSE h END AS BIGINT) AS fingerprint
        FROM (
          -- rolling 64-bit Horner hash h = h*B + byte (mod 2^64) in
          -- HUGEINT, seeded with the FNV offset like the engine; driver
          -- texts are ASCII so ascii(char) == utf8 byte
          SELECT doc_id, list_reduce(
            list_prepend(1469598103934665603::HUGEINT,
              list_transform(regexp_extract_all(text, '.'),
                             c -> ascii(c)::HUGEINT)),
            (a, b) -> (a * 1000003 + b) % 18446744073709551616::HUGEINT) AS h
          FROM documents)
    """,
    "line_buffer_ndvi": f"""
        WITH edges AS (
          SELECT s_suppkey AS edge_id,
                 {dt.SQL_X.format(k="s_suppkey")} AS ax,
                 {dt.SQL_Y.format(k="s_suppkey")} AS ay,
                 {dt.SQL_X.format(k="s_suppkey")}
                   + (((s_suppkey * 7561) % 300) - 150.0) AS bx,
                 {dt.SQL_Y.format(k="s_suppkey")}
                   + (((s_suppkey * 631) % 300) - 150.0) AS by
          FROM supplier
        ),
        pixidx AS (SELECT i AS idx FROM range(0, {_NPIX} + 1) t(i)),
        pix AS (
          SELECT e.edge_id, e.ax, e.ay, e.bx, e.by,
                 (gx.idx * 10.0 + 5.0) AS px, (gy.idx * 10.0 + 5.0) AS py
          FROM edges e
          JOIN pixidx gx ON gx.idx >= floor((least(e.ax, e.bx) - 50.0) / 10.0)
                        AND gx.idx <= floor((greatest(e.ax, e.bx) + 50.0) / 10.0)
          JOIN pixidx gy ON gy.idx >= floor((least(e.ay, e.by) - 50.0) / 10.0)
                        AND gy.idx <= floor((greatest(e.ay, e.by) + 50.0) / 10.0)
        ),
        dist AS (
          SELECT edge_id, px, py, ax, ay, bx, by,
                 least(greatest(CASE
                   WHEN ((bx-ax)*(bx-ax) + (by-ay)*(by-ay)) > 0
                   THEN ((px-ax)*(bx-ax) + (py-ay)*(by-ay))
                        / ((bx-ax)*(bx-ax) + (by-ay)*(by-ay))
                   ELSE 0.0 END, 0.0), 1.0) AS t
          FROM pix
        ),
        inpix AS (
          SELECT edge_id, px, py FROM dist
          WHERE ((px-ax) - t*(bx-ax)) * ((px-ax) - t*(bx-ax))
              + ((py-ay) - t*(by-ay)) * ((py-ay) - t*(by-ay)) <= 2500.0
        ),
        vals AS (SELECT edge_id, greatest({_NDVI_SQL}, 0.0) AS v FROM inpix)
        SELECT edge_id,
               round(avg(v), 3) AS mean_NDVI,
               round(sqrt(greatest(avg(v*v) - avg(v)*avg(v), 0.0)), 3) AS std_NDVI
        FROM vals GROUP BY edge_id
    """,
    "embedding_near_dup": f"""
        WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings),
        b AS (SELECT vec_id, v,
              {_embedding_lsh_bucket_sql("v")} AS bucket FROM e)
        SELECT a.vec_id AS key_a, b2.vec_id AS key_b,
               round(list_cosine_similarity(a.v, b2.v), 6) AS cosine
        FROM b a JOIN b b2
          ON a.bucket = b2.bucket AND a.vec_id < b2.vec_id
        WHERE list_cosine_similarity(a.v, b2.v) >= 0.30
    """,
    "cosine_pairs_exact": """
        WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                   FROM embeddings)
        SELECT a.vec_id AS key_a, b.vec_id AS key_b,
               round(list_cosine_similarity(a.v, b.v), 6) AS cosine
        FROM e a JOIN e b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.v, b.v) >= 0.4
    """,
    "token_count": r"""
        SELECT doc_id,
               CAST(array_length(string_split_regex(trim(text), '\s+')) AS BIGINT) AS n_tokens
        FROM documents
    """,
    "events_window": """
        SELECT event_type,
               CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window_hour,
               count(*) AS n,
               round(sum(value), 6) AS sum_value
        FROM events GROUP BY 1, 2
    """,
    "asof_last_order": """
        SELECT e.event_id,
               epoch(max(o.o_orderdate)) AS last_order_epoch
        FROM events e LEFT JOIN orders o
          ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        GROUP BY e.event_id
    """,
    "range_join_count": """
        SELECT e.event_id,
               CAST(count(o.o_orderkey) AS BIGINT) AS n_orders_window
        FROM events e LEFT JOIN orders o
          ON o.o_custkey = e.user_id
         AND o.o_orderdate <= e.ts
         AND o.o_orderdate >= e.ts - INTERVAL 3000 DAYS
        GROUP BY e.event_id
    """,
    "pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 3) AS sum_qty,
               CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                                   * 1000.0 + 0.5) AS BIGINT))
                    AS BIGINT) / 1000.0 AS sum_rev,
               count(*) AS n
        FROM lineitem GROUP BY 1, 2
    """,
    "embedding_topk": f"""
        WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                   WHERE vec_id IN (0, 1, 2)),
        s AS (
          SELECT q.qid AS query_id, e.vec_id,
                 list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                        CAST(q.qe AS DOUBLE[])) AS rawscore,
                 row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                                   CAST(q.qe AS DOUBLE[])) DESC,
                            e.vec_id ASC
                 ) AS rn
          FROM embeddings e CROSS JOIN q
        )
        SELECT query_id, vec_id, round(rawscore, 6) AS score
        FROM s WHERE rn <= {TOPK_K}
    """,
}

for _q in ("minhash_lsh", "near_dedup"):
    ORACLE_SQL[_q] = ORACLE_SQL[_q].replace(
        "__MINHASH_PERMS__", _minhash_perms_sql())


def _ivf_topk_sql() -> str:
    """IVF top-k oracle: the fixed seed-17 quantizer embedded as
    literals; assignment = argmin over ``-2·v·c + ‖c‖²`` (the engine's
    IVFAssign expression, first-index tie-break), probes = the
    ``IVF_NPROBE`` nearest cells per query, scan = cosine top-k within
    the probed cells (score desc, vec_id asc)."""
    C = similarity.fixed_random_centroids(EMB_DIM, IVF_CENTROIDS)
    cn = (C * C).sum(1)
    qids = ", ".join(str(q) for q in TOPK_QUERY_IDS)
    rows = ",\n          ".join(
        "({}, [{}], {!r})".format(
            c, ", ".join(repr(float(v)) for v in C[c]), float(cn[c]))
        for c in range(IVF_CENTROIDS)
    )
    return f"""
        WITH cents(cid, c, cn) AS (VALUES {rows}),
        e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
        d AS (
          SELECT e.vec_id, e.v, cents.cid,
                 -2.0 * list_dot_product(e.v, cents.c) + cents.cn AS dist
          FROM e CROSS JOIN cents
        ),
        assigned AS (
          SELECT vec_id, v, cid AS cell FROM (
            SELECT vec_id, v, cid,
                   row_number() OVER (PARTITION BY vec_id
                                      ORDER BY dist ASC, cid ASC) AS rn
            FROM d) WHERE rn = 1
        ),
        probes AS (
          SELECT vec_id AS qid, cid FROM (
            SELECT vec_id, cid,
                   row_number() OVER (PARTITION BY vec_id
                                      ORDER BY dist ASC, cid ASC) AS rn
            FROM d WHERE vec_id IN ({qids})) WHERE rn <= {IVF_NPROBE}
        ),
        qv AS (SELECT vec_id AS qid, v AS q FROM e WHERE vec_id IN ({qids})),
        scan AS (
          SELECT p.qid AS query_id, a.vec_id,
                 list_cosine_similarity(a.v, qv.q) AS s,
                 row_number() OVER (
                   PARTITION BY p.qid
                   ORDER BY list_cosine_similarity(a.v, qv.q) DESC,
                            a.vec_id ASC
                 ) AS rn
          FROM assigned a JOIN probes p ON a.cell = p.cid
          JOIN qv ON qv.qid = p.qid
        )
        SELECT query_id, vec_id, round(s, 6) AS score
        FROM scan WHERE rn <= {TOPK_K}
    """


ORACLE_SQL["ivf_topk"] = _ivf_topk_sql()


# ---------------------------------------------------------------------------
# CRS projection gates (M2 / M7+M8) — the geoproj kernels re-derived in
# ANSI SQL.  DuckDB lacks hyperbolic functions, so atanh/sinh/asinh/cosh
# are spelled via ln/exp; ellipsoid and Krüger-series constants are
# interpolated as exact float64 reprs of the geoproj module constants.
# Measured numpy-vs-DuckDB deltas: ≤4e-9 m (projections, rounded to
# 1e-4 m) and ≤3e-15 deg (bbox, rounded to 1e-9 deg).
# ---------------------------------------------------------------------------

def _crs_sql_entries() -> dict[str, str]:
    from .. import geoproj as gp

    A = repr(gp._A)
    E = repr(gp._E)
    E2 = repr(gp._E2)
    A1 = repr(gp._A1)
    K0 = repr(gp._UTM_K0)
    alpha = [repr(a) for a in gp._ALPHA]

    project_3395 = f"""
        WITH pts AS (
          SELECT doc_id, ({_X} / 20000.0 * 360.0 - 180.0) AS lon,
                         ({_Y} / 20000.0 * 160.0 - 80.0)  AS lat
          FROM documents),
        s AS (SELECT doc_id, radians(lon) AS lam, sin(radians(lat)) AS sp
              FROM pts)
        SELECT doc_id,
               round({A} * lam, 4) AS mx,
               round({A} * (0.5*ln((1+sp)/(1-sp))
                            - {E} * 0.5*ln((1+{E}*sp)/(1-{E}*sp))), 4) AS my
        FROM s
    """

    # Krüger forward series: xi += a_j sin(2j xi') cosh(2j eta'),
    # eta += a_j cos(2j xi') sinh(2j eta')   (Karney 2011 eq. 11)
    terms_xi = " + ".join(
        f"{alpha[j]} * sin({2 * (j + 1)}.0*xip)"
        f" * ((exp({2 * (j + 1)}.0*etap)+exp(-{2 * (j + 1)}.0*etap))/2)"
        for j in range(6))
    terms_eta = " + ".join(
        f"{alpha[j]} * cos({2 * (j + 1)}.0*xip)"
        f" * ((exp({2 * (j + 1)}.0*etap)-exp(-{2 * (j + 1)}.0*etap))/2)"
        for j in range(6))
    project_utm = f"""
        WITH pts AS (
          SELECT doc_id, radians({_X} / 20000.0 * 5.0 + 0.5) AS lam,
                         radians({_Y} / 20000.0 * 70.0 + 10.0) AS phi
          FROM documents),
        -- conformal latitude: t = sinh(atanh(sin phi) - e atanh(e sin phi))
        c AS (SELECT doc_id, lam - radians(3.0) AS dl, sin(phi) AS sp
              FROM pts),
        t AS (SELECT doc_id, dl,
                (exp(0.5*ln((1+sp)/(1-sp)) - {E}*0.5*ln((1+{E}*sp)/(1-{E}*sp)))
               - exp(-(0.5*ln((1+sp)/(1-sp))
                       - {E}*0.5*ln((1+{E}*sp)/(1-{E}*sp)))))/2 AS tt
              FROM c),
        b AS (SELECT doc_id,
                atan2(tt, cos(dl)) AS xip,
                -- asinh(sin dl / hypot(t, cos dl))
                ln(sin(dl)/sqrt(tt*tt + cos(dl)*cos(dl))
                   + sqrt(sin(dl)*sin(dl)/(tt*tt + cos(dl)*cos(dl)) + 1.0))
                  AS etap
              FROM t),
        ser AS (SELECT doc_id,
                       xip + {terms_xi} AS xi,
                       etap + {terms_eta} AS eta
                FROM b)
        SELECT doc_id,
               round({K0} * ({A1} * eta) + 500000.0, 4) AS utm_e,
               round({K0} * ({A1} * xi), 4) AS utm_n
        FROM ser
    """

    # inverse Mercator latitude: Newton on the isometric latitude,
    # 6 unrolled iterations (matches geoproj.mercator_inverse exactly)
    newton = (
        "lat{i1} AS (SELECT lon0, lon1, psi0, psi1,"
        " l0 - (0.5*ln((1+sin(l0))/(1-sin(l0)))"
        "       - {E}*0.5*ln((1+{E}*sin(l0))/(1-{E}*sin(l0))) - psi0)"
        "    / (cos(l0)/(1-sin(l0)*sin(l0))"
        "       - {E2}*cos(l0)/(1-{E2}*sin(l0)*sin(l0))) AS l0,"
        " l1 - (0.5*ln((1+sin(l1))/(1-sin(l1)))"
        "       - {E}*0.5*ln((1+{E}*sin(l1))/(1-{E}*sin(l1))) - psi1)"
        "    / (cos(l1)/(1-sin(l1)*sin(l1))"
        "       - {E2}*cos(l1)/(1-{E2}*sin(l1)*sin(l1))) AS l1"
        " FROM lat{i})")
    chain = ",\n        ".join(
        newton.format(i=i, i1=i + 1, E=E, E2=E2) for i in range(6))
    bbox_wgs84 = f"""
        WITH bb AS (SELECT min({_X}) AS x0, min({_Y}) AS y0,
                           max({_X}) AS x1, max({_Y}) AS y1 FROM documents),
        lat0 AS (SELECT x0/{A} AS lon0, x1/{A} AS lon1,
                        y0/{A} AS psi0, y1/{A} AS psi1,
                        2*atan(exp(y0/{A})) - pi()/2 AS l0,
                        2*atan(exp(y1/{A})) - pi()/2 AS l1 FROM bb),
        {chain}
        SELECT round(degrees(lon0), 9) AS lon_min,
               round(degrees(l0), 9)   AS lat_min,
               round(degrees(lon1), 9) AS lon_max,
               round(degrees(l1), 9)   AS lat_max
        FROM lat6
    """
    return {"project_3395": project_3395, "project_utm": project_utm,
            "bbox_wgs84": bbox_wgs84}


ORACLE_SQL.update(_crs_sql_entries())


# ---------------------------------------------------------------------------
# Geometry-kernel gates (M6 euclidean buffer, M3/M11 polygon centroid)
# ---------------------------------------------------------------------------

#: buffer gate radius (meters) — scalar like every reference buffer call
BUFFER_GATE_R = 250.0

ORACLE_SQL["buffer_vertices"] = f"""
    WITH pts AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
    ang AS (SELECT i, i * (2.0*pi()/64.0) AS a FROM range(0, 64) t(i))
    SELECT doc_id, i AS vi,
           round(x + {BUFFER_GATE_R!r}*cos(a), 6) AS vx,
           round(y + {BUFFER_GATE_R!r}*sin(a), 6) AS vy
    FROM pts CROSS JOIN ang
"""

# L-shaped hexagon per doc (notch corner at the derived point): the
# shoelace area-weighted centroid is genuinely interior-off-center, so
# the oracle checks the full centroid formula, not a rect midpoint.
ORACLE_SQL["polygon_centroid"] = f"""
    WITH d AS (SELECT doc_id, {_X} AS x, {_Y} AS y,
               {_X} - (50.0 + doc_id*3 % 100) AS x0,
               {_X} + (60.0 + doc_id*7 % 120) AS x1,
               {_Y} - (40.0 + doc_id*11 % 90) AS y0,
               {_Y} + (70.0 + doc_id*5 % 110) AS y1
               FROM documents),
    v AS (
      SELECT doc_id, 0 AS i, x0 AS vx, y0 AS vy FROM d UNION ALL
      SELECT doc_id, 1, x1, y0 FROM d UNION ALL
      SELECT doc_id, 2, x1, y FROM d UNION ALL
      SELECT doc_id, 3, x, y FROM d UNION ALL
      SELECT doc_id, 4, x, y1 FROM d UNION ALL
      SELECT doc_id, 5, x0, y1 FROM d),
    p AS (SELECT a.doc_id, a.vx AS x, a.vy AS y, b.vx AS xn, b.vy AS yn
          FROM v a JOIN v b ON a.doc_id = b.doc_id AND b.i = (a.i+1) % 6),
    s AS (SELECT doc_id, sum(x*yn - xn*y)/2.0 AS area,
                 sum((x+xn)*(x*yn - xn*y)) AS sx,
                 sum((y+yn)*(x*yn - xn*y)) AS sy
          FROM p GROUP BY doc_id)
    SELECT doc_id, round(sx/(6.0*area), 4) AS cx,
           round(sy/(6.0*area), 4) AS cy
    FROM s
"""

# deterministic Lehmer-hash split — bucket/split SQL derived from the
# stages/sampling constants so the two gates can't drift from the op
SPLIT_TRAIN_PCT, SPLIT_VAL_PCT = 80, 10


def _bucket_split_sql() -> tuple[str, str]:
    from ..stages import sampling as sp

    bucket = f"((doc_id * {sp._MULT}) % {sp._MOD}) % 100"
    split = (f"CASE WHEN bucket < {SPLIT_TRAIN_PCT} THEN 'train' "
             f"WHEN bucket < {SPLIT_TRAIN_PCT + SPLIT_VAL_PCT} THEN 'val' "
             f"ELSE 'test' END")
    return bucket, split


_BUCKET_SQL, _SPLIT_SQL = _bucket_split_sql()

# TF-IDF query ranking — same tokenization as the langid oracle; idf
# quantized to integer micro-units exactly like stages/tfidf.py.
# These constants drive BOTH the Ray query defs below and the SQL
# literals here, so the two sides cannot drift.
TFIDF_TERMS = ("join", "vector", "spark", "window", "hash")
TFIDF_K = 20
STRATIFIED_N = 20
QUANTILE_QS = (0.25, 0.5, 0.9, 0.99)
BIGRAM_K = 30
BM25_K = 20
#: sessionization gap (6 h) in integer microseconds — exact in both engines
SESSION_GAP_US = 21_600 * 1_000_000
_TFIDF_VALUES = ", ".join(f"('{t}')" for t in TFIDF_TERMS)

# BM25 ranking (stages/tfidf.bm25_topk) — Lucene idf form; every float
# expression below is written in the SAME associativity order as
# BM25Scorer so the two engines agree to the last ulp before the
# 6-decimal rounding that drives the rank
ORACLE_SQL["bm25_topk"] = (r"""
    WITH toks AS (SELECT doc_id,
                         regexp_extract_all(lower(text), '[a-z'']+') AS ws
                  FROM documents),
    docs AS (SELECT doc_id, ws,
                    CAST(array_length(ws) AS DOUBLE) AS dl FROM toks),
    q AS (SELECT * FROM (VALUES """ + _TFIDF_VALUES + r""") t(term)),
    tf AS (SELECT docs.doc_id, q.term, dl,
             CAST(length(list_filter(ws, w -> w = q.term)) AS DOUBLE)
               AS tf
           FROM docs CROSS JOIN q),
    stats AS (SELECT term, sum(CASE WHEN tf > 0 THEN 1 ELSE 0 END) AS df
              FROM tf GROUP BY term),
    tot AS (SELECT count(*) AS n,
                   CAST(sum(array_length(ws)) AS DOUBLE) / count(*)
                     AS avgdl
            FROM docs),
    w AS (SELECT term,
                 ln((tot.n - stats.df + 0.5) / (stats.df + 0.5) + 1.0)
                   AS idf
          FROM stats, tot),
    parts AS (SELECT tf.doc_id,
                CASE WHEN tf.tf > 0
                     THEN tf.tf * (1.2 + 1.0)
                          / (tf.tf + 1.2 * (1.0 - 0.75
                                            + 0.75 * tf.dl / tot.avgdl))
                          * w.idf
                     ELSE 0.0 END AS p
              FROM tf JOIN w USING (term), tot),
    sc AS (SELECT doc_id, round(sum(p), 6) AS score_r6
           FROM parts GROUP BY doc_id),
    r AS (SELECT doc_id, score_r6, row_number() OVER (
            ORDER BY score_r6 DESC, doc_id ASC) AS "rank" FROM sc)
    SELECT doc_id, score_r6, "rank" FROM r WHERE "rank" <= {K}
""").replace("{K}", str(BM25_K))

# gap-based sessionization over events (stages/asof.sessionize)
ORACLE_SQL["sessionize"] = f"""
    WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, event_id, value
               FROM events),
    l AS (SELECT *, lag(ts_us) OVER (
            PARTITION BY user_id ORDER BY ts_us, event_id) AS pts FROM e),
    b AS (SELECT *, CASE WHEN pts IS NULL
                         OR ts_us - pts > {SESSION_GAP_US}
                    THEN 1 ELSE 0 END AS brk FROM l),
    s AS (SELECT *, CAST(sum(brk) OVER (
            PARTITION BY user_id ORDER BY ts_us, event_id
            ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
          FROM b)
    SELECT user_id, session_id, count(*) AS n_events,
           min(ts_us) AS start_us, max(ts_us) AS end_us,
           round(sum(value), 6) AS sum_value
    FROM s GROUP BY user_id, session_id
"""

#: conversion-funnel step sequence (stages/windows.funnel)
FUNNEL_STEPS = ("signup", "click", "purchase")
# per-user funnel: t1 = min ts of step1; t_k = min ts of step_k
# STRICTLY after t_{k-1} — integer microsecond comparisons throughout
ORACLE_SQL["funnel"] = f"""
    WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, event_type
               FROM events),
    u AS (SELECT DISTINCT user_id FROM e),
    s1 AS (SELECT user_id, min(ts_us) AS t1 FROM e
           WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id),
    s2 AS (SELECT e.user_id, min(e.ts_us) AS t2
           FROM e JOIN s1 USING (user_id)
           WHERE e.event_type = '{FUNNEL_STEPS[1]}' AND e.ts_us > s1.t1
           GROUP BY e.user_id),
    s3 AS (SELECT e.user_id, min(e.ts_us) AS t3
           FROM e JOIN s2 USING (user_id)
           WHERE e.event_type = '{FUNNEL_STEPS[2]}' AND e.ts_us > s2.t2
           GROUP BY e.user_id)
    SELECT u.user_id,
           CAST(CASE WHEN s3.t3 IS NOT NULL THEN 3
                     WHEN s2.t2 IS NOT NULL THEN 2
                     WHEN s1.t1 IS NOT NULL THEN 1
                     ELSE 0 END AS BIGINT) AS steps_completed,
           s3.t3 AS complete_us
    FROM u LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
           LEFT JOIN s3 USING (user_id)
"""

#: trailing row-frame width (stages/windows.rolling_window)
ROLL_WINDOW = 5
# values quantized to int64 micro-units BEFORE the frame sum so the
# window aggregate is exact-integer in both engines
ORACLE_SQL["rolling_window"] = f"""
    WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                      CAST(round(value * 1000000.0, 0) AS BIGINT) AS vq
               FROM events)
    SELECT user_id, event_id,
           CAST(count(*) OVER w AS BIGINT) AS n_frame,
           CAST(sum(vq) OVER w AS BIGINT) AS sum_q
    FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id
                        ROWS BETWEEN {ROLL_WINDOW - 1} PRECEDING
                        AND CURRENT ROW)
"""

# top-k word-bigram collocations (stages/text.bigram_topk) — same
# tokenization as langid/tfidf; counts aggregate over distinct bigrams
ORACLE_SQL["bigram_topk"] = r"""
    WITH toks AS (SELECT regexp_extract_all(lower(text), '[a-z'']+') AS ws
                  FROM documents),
    ex AS (SELECT ws, unnest(generate_series(1, array_length(ws) - 1)) AS i
           FROM toks),
    bg AS (SELECT ws[i] || ' ' || ws[i + 1] AS bigram FROM ex),
    c AS (SELECT bigram, count(*) AS c FROM bg GROUP BY bigram),
    r AS (SELECT bigram, c, row_number() OVER (
            ORDER BY c DESC, bigram ASC) AS "rank" FROM c)
    SELECT bigram, c, "rank" FROM r WHERE "rank" <= {K}
""".replace("{K}", str(BIGRAM_K))
ORACLE_SQL["tfidf_topk"] = r"""
    WITH toks AS (SELECT doc_id,
                         regexp_extract_all(lower(text), '[a-z'']+') AS ws
                  FROM documents),
    q AS (SELECT * FROM (VALUES """ + _TFIDF_VALUES + r""") t(term)),
    tf AS (SELECT toks.doc_id, q.term,
             CAST(length(list_filter(ws, w -> w = q.term)) AS BIGINT) AS tf
           FROM toks CROSS JOIN q),
    df AS (SELECT term, sum(CASE WHEN tf > 0 THEN 1 ELSE 0 END) AS df
           FROM tf GROUP BY term),
    tot AS (SELECT count(*) AS n FROM documents),
    w AS (SELECT term,
                 CAST(round(round(ln((tot.n + 1.0) / (df.df + 1.0)) + 1.0,
                                  6) * 1000000.0, 0) AS BIGINT) AS w
          FROM df, tot),
    sc AS (SELECT tf.doc_id,
             CAST(sum(tf.tf * w.w) AS BIGINT) AS score_q6
           FROM tf JOIN w USING (term) GROUP BY tf.doc_id),
    r AS (SELECT doc_id, score_q6, row_number() OVER (
            ORDER BY score_q6 DESC, doc_id ASC) AS "rank" FROM sc)
    SELECT doc_id, score_q6, "rank" FROM r WHERE "rank" <= {TFIDF_K}
"""
ORACLE_SQL["tfidf_topk"] = ORACLE_SQL["tfidf_topk"].replace(
    "{TFIDF_K}", str(TFIDF_K))

# exact discrete quantiles: smallest v with cumulative count >= ceil(q*n)
# (the same explicit definition stages/quantiles.py uses — no reliance
# on an engine-specific quantile builtin)
ORACLE_SQL["token_quantiles"] = r"""
    WITH tc AS (
      SELECT CAST(array_length(string_split_regex(trim(text), '\s+'))
                  AS BIGINT) AS n_tokens
      FROM documents),
    h AS (SELECT n_tokens AS v, count(*) AS c FROM tc GROUP BY 1),
    tot AS (SELECT sum(c) AS n FROM h),
    cum AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM h)
    SELECT q,
           (SELECT min(v) FROM cum
            WHERE cum >= ceil(q * (SELECT n FROM tot))) AS value
    FROM (VALUES {QS}) qs(q)
""".replace("{QS}", ", ".join(f"({q})" for q in QUANTILE_QS))

# per-group winsorized stats (stages/quantiles.group_winsorize) —
# exact discrete quantiles (smallest v with cum ≥ ceil(q·n)), int64
# clipped sums, no float interpolation anywhere
ORACLE_SQL["winsorize"] = r"""
    WITH h AS (SELECT source AS grp, n_chars AS v, count(*) AS c
               FROM documents GROUP BY 1, 2),
    tot AS (SELECT grp, sum(c) AS n FROM h GROUP BY 1),
    cum AS (SELECT grp, v, c,
                   sum(c) OVER (PARTITION BY grp ORDER BY v) AS cum
            FROM h),
    b AS (SELECT t.grp, CAST(t.n AS BIGINT) AS n,
            (SELECT min(v) FROM cum
             WHERE cum.grp = t.grp AND cum >= ceil(0.1 * t.n)) AS lo,
            (SELECT min(v) FROM cum
             WHERE cum.grp = t.grp AND cum >= ceil(0.9 * t.n)) AS hi
          FROM tot t)
    SELECT b.grp AS source, b.n, b.lo AS lo, b.hi AS hi,
           CAST(sum(h.c * least(greatest(h.v, b.lo), b.hi)) AS BIGINT)
             AS sum_winsor,
           CAST(coalesce(sum(CASE WHEN h.v < b.lo THEN h.c END), 0)
                AS BIGINT) AS n_lo,
           CAST(coalesce(sum(CASE WHEN h.v > b.hi THEN h.c END), 0)
                AS BIGINT) AS n_hi
    FROM h JOIN b ON h.grp = b.grp
    GROUP BY b.grp, b.n, b.lo, b.hi
"""


def q_winsorize(sf_dir: str):
    """Per-source winsorized n_chars stats (stages/quantiles
    .group_winsorize): exact p10/p90 discrete quantiles, clipped sum
    and tail-clip counts per group — distinct-value partials bound the
    shuffle at O(groups × distinct values)."""
    from ..stages.quantiles import group_winsorize

    ds = dt.read_table(sf_dir, "documents", columns=["source", "n_chars"])
    return group_winsorize(ds, "source", "n_chars", 0.1, 0.9)


ORACLE_SQL["hash_split"] = f"""
    WITH b AS (SELECT doc_id, {_BUCKET_SQL} AS bucket FROM documents)
    SELECT doc_id, bucket, {_SPLIT_SQL} AS split
    FROM b
"""

# stratified sample: n rows per split, ranked by the full Lehmer hash
# (hrank = the pre-%100 residue of the same hash _BUCKET_SQL buckets)
def _hrank_sql() -> str:
    from ..stages import sampling as sp

    return f"(doc_id * {sp._MULT}) % {sp._MOD}"


ORACLE_SQL["stratified_sample"] = f"""
    WITH b AS (SELECT doc_id, {_BUCKET_SQL} AS bucket,
                      {_hrank_sql()} AS hrank
               FROM documents),
    sc AS (SELECT doc_id, {_SPLIT_SQL} AS split, hrank FROM b),
    r AS (SELECT doc_id, split, row_number() OVER (
            PARTITION BY split ORDER BY hrank ASC, doc_id ASC) AS rn
          FROM sc)
    SELECT doc_id, split FROM r WHERE rn <= {{N}}
""".replace("{N}", str(STRATIFIED_N))

# grouped top-k over the split assignment (stages/topk.topk_per_group)
ORACLE_SQL["topk_per_split"] = f"""
    WITH b AS (SELECT doc_id, text, {_BUCKET_SQL} AS bucket
               FROM documents),
    sc AS (SELECT doc_id, {_SPLIT_SQL} AS split,
                  CAST(length(text) AS BIGINT) AS n_chars
           FROM b),
    r AS (SELECT *, row_number() OVER (
            PARTITION BY split
            ORDER BY n_chars DESC, doc_id ASC) AS "rank"
          FROM sc)
    SELECT doc_id, split, n_chars, "rank" FROM r WHERE "rank" <= 5
"""

# ---------------------------------------------------------------------------
# Round-4 additions: geostatistics (IDW, great-circle kNN) and corpus
# hygiene (PII redaction, repetition scoring, benchmark decontamination)
# ---------------------------------------------------------------------------

IDW_RADIUS = 5000.0
DECON_N = 3
DECON_BENCH_MOD = 50
#: lon/lat derivation from the planar (x, y) world — same IEEE ops in
#: numpy and SQL (scale then shift)
_LON = "({x} * 0.018 - 180.0)"
_LAT = "({y} * 0.0085 - 85.0)"
_SUPX = dt.SQL_X.format(k="s_suppkey")
_SUPY = dt.SQL_Y.format(k="s_suppkey")
_NATX = dt.SQL_X.format(k="n_nationkey")
_NATY = dt.SQL_Y.format(k="n_nationkey")

# IDW (stages/geostats.IDWInterpolator): smoothed power-2 weights with
# int64-quantized terms — summation order cannot change the result, so
# the SQL join-order-free SUM matches numpy's per-pair int64 sum exactly.  Every
# float expression mirrors the numpy associativity: w = 1/(d2+1), terms
# (w * 1e12) and ((w * val) * 1e9).
ORACLE_SQL["idw_interpolation"] = f"""
    WITH pts AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
    st AS (SELECT {_SUPX} AS sx, {_SUPY} AS sy,
                  ((s_suppkey * 7919) % 1000) / 10.0 AS val
           FROM supplier),
    t AS (SELECT p.doc_id,
            CAST(round((1.0 / ((p.x - s.sx) * (p.x - s.sx)
                                + (p.y - s.sy) * (p.y - s.sy) + 1.0))
                        * 1000000000000.0, 0) AS BIGINT) AS den_t,
            CAST(round((1.0 / ((p.x - s.sx) * (p.x - s.sx)
                                + (p.y - s.sy) * (p.y - s.sy) + 1.0))
                        * s.val * 1000000000.0, 0) AS BIGINT) AS num_t
          FROM pts p JOIN st s
            ON (p.x - s.sx) * (p.x - s.sx)
               + (p.y - s.sy) * (p.y - s.sy) <= {IDW_RADIUS!r} * {IDW_RADIUS!r}),
    agg AS (SELECT doc_id, count(*) AS n_within,
                   sum(den_t) AS den, sum(num_t) AS num
            FROM t GROUP BY doc_id)
    SELECT p.doc_id,
           CAST(coalesce(a.n_within, 0) AS BIGINT) AS n_within,
           CASE WHEN a.n_within > 0
                THEN round((CAST(a.num AS DOUBLE) * 1000.0)
                           / CAST(a.den AS DOUBLE), 6) END AS idw
    FROM pts p LEFT JOIN agg a USING (doc_id)
"""

# great-circle nearest facility (stages/geostats.HaversineNearest):
# ranking uses round(d_km, 6) + fid ties so a last-ulp libm difference
# cannot flip the argmin; term-for-term haversine associativity below
# matches geostats.haversine_km.
ORACLE_SQL["haversine_nearest"] = f"""
    WITH pts AS (SELECT doc_id,
                        {_LON.format(x=_X)} AS lon,
                        {_LAT.format(y=_Y)} AS lat
                 FROM documents),
    fac AS (SELECT n_nationkey AS fid,
                   {_LON.format(x=_NATX)} AS flon,
                   {_LAT.format(y=_NATY)} AS flat
            FROM nation),
    d AS (SELECT doc_id, fid,
            2.0 * 6371.0 * asin(sqrt(least(
              sin(radians(flat - lat) / 2.0)
                * sin(radians(flat - lat) / 2.0)
              + (cos(radians(lat)) * cos(radians(flat)))
                * (sin(radians(flon - lon) / 2.0)
                   * sin(radians(flon - lon) / 2.0)), 1.0))) AS dkm
          FROM pts CROSS JOIN fac),
    r AS (SELECT doc_id, fid, dkm, row_number() OVER (
            PARTITION BY doc_id
            ORDER BY round(dkm, 6) ASC, fid ASC) AS rn FROM d)
    SELECT doc_id, fid, round(dkm, 3) AS dist_km FROM r WHERE rn = 1
"""

# PII redaction (stages/scrub.pii_redact_batch): both engines compile
# the same RE2 patterns; emails redact first, phones count on the
# email-redacted text.  The deterministic PII suffix is appended in the
# same string ops on both sides so redaction has real work to do.
ORACLE_SQL["pii_redact"] = f"""
    WITH t AS (SELECT doc_id,
        coalesce(text, '') || ' contact user' || CAST(doc_id AS VARCHAR)
          || '@example.com or +12025550'
          || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || ' now' AS tx
        FROM documents),
    s1 AS (SELECT doc_id,
             CAST(length(regexp_extract_all(tx, '{{EMAIL}}')) AS BIGINT)
               AS n_emails,
             regexp_replace(tx, '{{EMAIL}}', '<EMAIL>', 'g') AS t1
           FROM t)
    SELECT doc_id, n_emails,
           CAST(length(regexp_extract_all(t1, '{{PHONE}}')) AS BIGINT)
             AS n_phones,
           regexp_replace(t1, '{{PHONE}}', '<PHONE>', 'g') AS red_text
    FROM s1
"""


def _fill_pii_oracle() -> None:
    from ..stages import scrub

    ORACLE_SQL["pii_redact"] = (ORACLE_SQL["pii_redact"]
                                .replace("{EMAIL}", scrub.EMAIL_RE)
                                .replace("{PHONE}", scrub.PHONE_RE))


_fill_pii_oracle()

# Gopher-style repetition scoring (stages/scrub.repetition_batch):
# per-doc distinct/total/top token counts over the shared [a-z']+
# lowercased tokenization; ratios are single IEEE divisions round-6.
ORACLE_SQL["repetition"] = r"""
    WITH toks AS (SELECT doc_id,
                         regexp_extract_all(lower(text), '[a-z'']+') AS ws
                  FROM documents),
    ex AS (SELECT doc_id, unnest(ws) AS w FROM toks),
    pc AS (SELECT doc_id, w, count(*) AS c FROM ex GROUP BY doc_id, w),
    agg AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
                   CAST(count(*) AS BIGINT) AS n_distinct,
                   CAST(max(c) AS BIGINT) AS top
            FROM pc GROUP BY doc_id)
    SELECT d.doc_id,
           coalesce(a.n_tokens, 0) AS n_tokens,
           coalesce(a.n_distinct, 0) AS n_distinct,
           CASE WHEN a.n_tokens > 0
                THEN round(1.0 - CAST(a.n_distinct AS DOUBLE)
                                 / CAST(a.n_tokens AS DOUBLE), 6)
                ELSE 0.0 END AS dup_frac,
           CASE WHEN a.n_tokens > 0
                THEN round(CAST(a.top AS DOUBLE)
                           / CAST(a.n_tokens AS DOUBLE), 6)
                ELSE 0.0 END AS top_frac
    FROM documents d LEFT JOIN agg a USING (doc_id)
"""

# benchmark decontamination (stages/decon.decontaminate): word-3-gram
# overlap between the mod-50 "benchmark" slice and the rest of the
# corpus; emits contaminated corpus docs with distinct-shared-gram
# counts.  Same tokenization as bigram_topk; grams joined by ' '.
ORACLE_SQL["decontaminate"] = f"""
    WITH toks AS (SELECT doc_id,
                         regexp_extract_all(lower(text), '[a-z'']+') AS t
                  FROM documents),
    grams AS (SELECT doc_id,
                     array_to_string(t[i.i:i.i + {DECON_N - 1}], ' ') AS g
              FROM toks, unnest(range(1, len(t) - {DECON_N} + 2)) AS i(i)
              WHERE len(t) >= {DECON_N}),
    bench AS (SELECT DISTINCT g FROM grams
              WHERE doc_id % {DECON_BENCH_MOD} = 0),
    hits AS (SELECT DISTINCT doc_id, g FROM grams
             WHERE doc_id % {DECON_BENCH_MOD} <> 0)
    SELECT h.doc_id, CAST(count(*) AS BIGINT) AS n_shared
    FROM hits h JOIN bench b USING (g) GROUP BY h.doc_id
"""

SEQ_LEN = 512
PACK_BUCKET = 64
KDE_CELL = 500.0
KDE_SIGMA = 400.0
KDE_RADIUS = 1000.0
KDE_N = 40  # 40 × 40 grid over the 20 km synthetic world

# sequence packing (stages/packing.sequence_pack): concat-then-chunk
# offsets via distributed prefix sum (bucket totals + within-bucket
# cumsum); the oracle is the window-function definition of the same.
ORACLE_SQL["sequence_pack"] = f"""
    WITH tc AS (SELECT doc_id,
                  CAST(array_length(string_split_regex(trim(text), '\\s+'))
                       AS BIGINT) AS n_tokens
                FROM documents),
    o AS (SELECT doc_id, n_tokens,
            CAST(coalesce(sum(n_tokens) OVER (
              ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS "offset"
          FROM tc)
    SELECT doc_id, n_tokens, "offset",
           CASE WHEN n_tokens > 0
                THEN "offset" // {SEQ_LEN} END AS start_seq,
           CASE WHEN n_tokens > 0
                THEN ("offset" + n_tokens - 1) // {SEQ_LEN} END AS end_seq
    FROM o
"""

#: sliding-chunk plan (stages/packing.chunk_plan) window / stride
CHUNK_W = 32
CHUNK_S = 24
# one row per training chunk; k = 1 + ceil((n-W)/S) via integer
# division, identical arithmetic in both engines
ORACLE_SQL["chunk_plan"] = f"""
    WITH tc AS (SELECT doc_id,
                  CAST(array_length(string_split_regex(trim(text), '\\s+'))
                       AS BIGINT) AS n
                FROM documents),
    c AS (SELECT doc_id, n,
            CASE WHEN n <= {CHUNK_W} THEN 1
                 ELSE 1 + (n - {CHUNK_W} + {CHUNK_S} - 1) // {CHUNK_S}
            END AS k
          FROM tc WHERE n > 0),
    g AS (SELECT doc_id, n,
                 unnest(generate_series(0, k - 1)) AS chunk_id
          FROM c)
    SELECT doc_id, chunk_id, chunk_id * {CHUNK_S} AS start_tok,
           least({CHUNK_W}, n - chunk_id * {CHUNK_S}) AS n_tok
    FROM g
"""

# unigram LM scoring (stages/lm.unigram_logprob): corpus-fit token
# logprobs quantized to int64 micro-nats — per-doc sums are
# order-independent, so the unordered SQL GROUP BY matches exactly.
ORACLE_SQL["unigram_logprob"] = r"""
    WITH toks AS (SELECT doc_id,
                    unnest(regexp_extract_all(lower(text), '[a-z'']+')) AS w
                  FROM documents),
    v AS (SELECT w, count(*) AS c FROM toks GROUP BY w),
    tot AS (SELECT CAST(sum(c) AS DOUBLE) AS t FROM v),
    wq AS (SELECT w, CAST(round(ln(CAST(c AS DOUBLE) / tot.t)
                                * 1000000.0, 0) AS BIGINT) AS q
           FROM v, tot),
    s AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_words,
                 CAST(sum(q) AS BIGINT) AS sum_logp_q
          FROM toks JOIN wq USING (w) GROUP BY doc_id)
    SELECT d.doc_id, coalesce(s.n_words, 0) AS n_words,
           coalesce(s.sum_logp_q, 0) AS sum_logp_q
    FROM documents d LEFT JOIN s USING (doc_id)
"""

# Gaussian KDE heatmap (stages/geostats.kde_grid): per-batch partial
# densities in int64 nano-weights → O(touched-cells) groupby; the SQL
# candidate ranges are a superset of the kernel disk on both sides and
# the d2 <= r² filter equalizes membership.
ORACLE_SQL["kde_grid"] = f"""
    WITH pts AS (SELECT {_X} AS x, {_Y} AS y FROM documents),
    gi AS (SELECT CAST(i AS BIGINT) AS i FROM range(0, {KDE_N}) t(i)),
    cand AS (SELECT gx.i AS ix, gy.i AS iy,
               (gx.i * {KDE_CELL!r} + {KDE_CELL / 2.0!r} - p.x)
                 * (gx.i * {KDE_CELL!r} + {KDE_CELL / 2.0!r} - p.x)
               + (gy.i * {KDE_CELL!r} + {KDE_CELL / 2.0!r} - p.y)
                 * (gy.i * {KDE_CELL!r} + {KDE_CELL / 2.0!r} - p.y) AS d2
             FROM pts p
             JOIN gi gx ON gx.i >= floor((p.x - {KDE_RADIUS!r}) / {KDE_CELL!r})
                       AND gx.i <= floor((p.x + {KDE_RADIUS!r}) / {KDE_CELL!r})
             JOIN gi gy ON gy.i >= floor((p.y - {KDE_RADIUS!r}) / {KDE_CELL!r})
                       AND gy.i <= floor((p.y + {KDE_RADIUS!r}) / {KDE_CELL!r})),
    t AS (SELECT ix, iy,
            CAST(round(exp(-(d2) / {2.0 * KDE_SIGMA * KDE_SIGMA!r})
                       * 1000000000.0, 0) AS BIGINT) AS q
          FROM cand WHERE d2 <= {KDE_RADIUS!r} * {KDE_RADIUS!r})
    SELECT ix, iy, CAST(count(*) AS BIGINT) AS n_contrib,
           CAST(sum(q) AS BIGINT) AS density_q
    FROM t GROUP BY ix, iy
"""

HEX_SIZE = 750.0
SNAP_R = 1500.0
VIT_STEPS = 5
VIT_K = 4
LINE_W = 3
LINE_MIN_DOCS = 4

EDIT_MAX_CHARS = 40

# Per-group OLS trend (stages/regression.group_ols): value ~ event_id
# per event_type.  All sufficient statistics are INTEGER sums (value
# quantized ×100 → exact), so partial-combine order can't perturb a
# bit; slope/intercept are single double expressions over those ints.
ORACLE_SQL["ols_trend"] = """
    WITH q AS (SELECT event_type, event_id AS x,
                 CAST(round(value * 100.0, 0) AS BIGINT) AS yq
               FROM events),
    s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
            CAST(sum(x) AS BIGINT) AS sx, CAST(sum(yq) AS BIGINT) AS sy,
            CAST(sum(x * yq) AS BIGINT) AS sxy,
            CAST(sum(x * x) AS BIGINT) AS sxx
          FROM q GROUP BY event_type),
    f AS (SELECT event_type, n,
            CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE) AS den,
            CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE) AS num,
            CAST(sx AS DOUBLE) AS sxd, CAST(sy AS DOUBLE) AS syd,
            CAST(n AS DOUBLE) AS nd
          FROM s)
    SELECT event_type, n,
           CASE WHEN den = 0.0 THEN NULL
                ELSE num / den / 100.0 END AS slope,
           CASE WHEN den = 0.0 THEN NULL
                ELSE (syd / 100.0 - (num / den / 100.0) * sxd) / nd
           END AS intercept
    FROM f
"""

PYR_CELL = 500.0
PYR_LEVELS = 3

# Per-partition lineage checksum (lineage.partition_checksum): one row
# per spatial cell with doc count, id range, and the ORDER-FREE 64-bit
# XOR of every doc's content fingerprint — identical under any
# repartitioning/retry order; any lost/duplicated/mutated row flips it.
ORACLE_SQL["partition_checksum"] = f"""
    WITH h AS (
      SELECT doc_id, {dt.SQL_CELL.format(k="doc_id", cs=CELL_SIZE)} AS cell,
             list_reduce(
               list_prepend(1469598103934665603::HUGEINT,
                 list_transform(regexp_extract_all(text, '.'),
                                c -> ascii(c)::HUGEINT)),
               (a, b) -> (a * 1000003 + b)
                         % 18446744073709551616::HUGEINT) AS hu
      FROM documents),
    s AS (SELECT doc_id, cell,
            CAST(CASE WHEN hu >= 9223372036854775808::HUGEINT
                 THEN hu - 18446744073709551616::HUGEINT
                 ELSE hu END AS BIGINT) AS hs
          FROM h)
    SELECT cell, CAST(count(*) AS BIGINT) AS n_docs,
           CAST(bit_xor(hs) AS BIGINT) AS checksum,
           CAST(min(doc_id) AS BIGINT) AS min_doc,
           CAST(max(doc_id) AS BIGINT) AS max_doc
    FROM s GROUP BY cell
"""

# Composed quality filter chain (stages/scrub.filter_chain_batch):
# five drop rules over three per-doc kernels (quality, repetition,
# entropy), emitted as a reason bitmask.  Each rule replays its
# kernel's exact expression tree; the entropy rule is a pure INTEGER
# comparison (ent_q < 2.8e6·n), so no float threshold wobble.
ORACLE_SQL["filter_chain"] = r"""
    WITH base AS (
      SELECT doc_id,
             CAST(CASE WHEN trim(text) = '' THEN 0
                  ELSE array_length(string_split_regex(trim(text), '\s+'))
                  END AS BIGINT) AS nt,
             CAST(length(list_filter(
                    string_split_regex(trim(text), '\s+'),
                    t -> lower(t) IN """ + _SW_SQL["en"] + r""")) AS BIGINT)
               AS ns
      FROM documents),
    rtoks AS (SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z'']+') AS ws
              FROM documents),
    rex AS (SELECT doc_id, unnest(ws) AS w FROM rtoks),
    rc AS (SELECT doc_id, w, count(*) AS c FROM rex GROUP BY doc_id, w),
    ragg AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS rnt,
                    CAST(count(*) AS BIGINT) AS rnd,
                    CAST(max(c) AS BIGINT) AS rtop
             FROM rc GROUP BY doc_id),
    etoks AS (SELECT doc_id,
                     unnest(string_split_regex(trim(text), '\s+')) AS tok
              FROM documents),
    et AS (SELECT doc_id, tok FROM etoks WHERE tok <> ''),
    ec AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c
           FROM et GROUP BY doc_id, tok),
    en AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n
           FROM ec GROUP BY doc_id),
    eterm AS (SELECT ec.doc_id,
                CAST(round(ec.c * ln(CAST(ec.c AS DOUBLE) / en.n)
                           * 1000000.0, 0) AS BIGINT) AS t
              FROM ec JOIN en USING (doc_id)),
    es AS (SELECT doc_id, CAST(-sum(t) AS BIGINT) AS eq
           FROM eterm GROUP BY doc_id),
    j AS (SELECT b.doc_id, b.nt, b.ns,
            coalesce(r.rnt, 0) AS rnt, coalesce(r.rnd, 0) AS rnd,
            coalesce(r.rtop, 0) AS rtop,
            coalesce(e.eq, 0) AS eq, coalesce(en.n, 0) AS enn
          FROM base b LEFT JOIN ragg r USING (doc_id)
          LEFT JOIN es e USING (doc_id) LEFT JOIN en USING (doc_id)),
    m AS (SELECT doc_id,
            (CASE WHEN nt < 15 THEN 1 ELSE 0 END)
            + (CASE WHEN (CASE WHEN nt > 0
                          THEN CAST(ns AS DOUBLE)
                               / CAST(greatest(nt, 1) AS DOUBLE)
                          ELSE 0.0 END) < 0.02 THEN 2 ELSE 0 END)
            + (CASE WHEN (CASE WHEN rnt > 0
                          THEN round(1.0 - CAST(rnd AS DOUBLE)
                                     / CAST(rnt AS DOUBLE), 6)
                          ELSE 0.0 END) > 0.6 THEN 4 ELSE 0 END)
            + (CASE WHEN (CASE WHEN rnt > 0
                          THEN round(CAST(rtop AS DOUBLE)
                                     / CAST(rnt AS DOUBLE), 6)
                          ELSE 0.0 END) > 0.14 THEN 8 ELSE 0 END)
            + (CASE WHEN eq < 2800000 * enn THEN 16 ELSE 0 END)
              AS reasons
          FROM j)
    SELECT doc_id, CAST(reasons AS BIGINT) AS reasons,
           (reasons = 0) AS keep
    FROM m
"""

# Multi-zoom tile pyramid (stages/geostats.tile_pyramid): counts per
# cell at 3 zooms from ONE batch pass + ONE groupby (each zoom's
# partials collapse 4:1 inside the batch before the shuffle).
ORACLE_SQL["tile_pyramid"] = f"""
    WITH pts AS (SELECT {_X} AS x, {_Y} AS y FROM documents),
    c2 AS (SELECT CAST(floor(x / {PYR_CELL!r}) AS BIGINT) AS cx,
                  CAST(floor(y / {PYR_CELL!r}) AS BIGINT) AS cy
           FROM pts),
    l2 AS (SELECT CAST(2 AS BIGINT) AS zoom, cx, cy,
                  CAST(count(*) AS BIGINT) AS n
           FROM c2 GROUP BY cx, cy),
    l1 AS (SELECT CAST(1 AS BIGINT) AS zoom,
                  CAST(floor(cx / 2.0) AS BIGINT) AS cx,
                  CAST(floor(cy / 2.0) AS BIGINT) AS cy,
                  CAST(sum(n) AS BIGINT) AS n
           FROM l2 GROUP BY 2, 3),
    l0 AS (SELECT CAST(0 AS BIGINT) AS zoom,
                  CAST(floor(cx / 2.0) AS BIGINT) AS cx,
                  CAST(floor(cy / 2.0) AS BIGINT) AS cy,
                  CAST(sum(n) AS BIGINT) AS n
           FROM l1 GROUP BY 2, 3)
    SELECT * FROM l2 UNION ALL SELECT * FROM l1 UNION ALL SELECT * FROM l0
"""

# Per-doc Shannon token entropy (stages/text.token_entropy_batch):
# each token TYPE contributes integer micro-nats round(c·ln(c/n)·1e6);
# the doc entropy is the negated integer sum — no float-accumulation
# order ambiguity, purely per-doc (no shuffle at all).
ORACLE_SQL["token_entropy"] = r"""
    WITH toks AS (
      SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS tok
      FROM documents),
    tnz AS (SELECT doc_id, tok FROM toks WHERE tok <> ''),
    c AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c
          FROM tnz GROUP BY doc_id, tok),
    n AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n FROM c GROUP BY doc_id),
    term AS (SELECT c.doc_id,
               CAST(round(c.c * ln(CAST(c.c AS DOUBLE) / n.n)
                          * 1000000.0, 0) AS BIGINT) AS t
             FROM c JOIN n USING (doc_id)),
    s AS (SELECT doc_id, CAST(-sum(t) AS BIGINT) AS ent_q
          FROM term GROUP BY doc_id)
    SELECT d.doc_id, coalesce(n.n, 0) AS n_tokens,
           coalesce(s.ent_q, 0) AS ent_q
    FROM documents d LEFT JOIN n USING (doc_id) LEFT JOIN s USING (doc_id)
"""

# Schema-on-read JSON prop extraction (stages/text.extract_json_int):
# both engines run the same RE2 pattern over the props JSON string.
ORACLE_SQL["json_prop"] = r"""
    SELECT event_id,
           CAST(nullif(regexp_extract(props, '"k":\s*(-?\d+)', 1), '')
                AS BIGINT) AS k
    FROM events
"""

# Mixture sampling / data mixing (stages/sampling.mixture_sample):
# target weight of source 'srcN' is (N+1)/210; T* = min_s(avail/wt) is
# the largest corpus honouring the mixture without upsampling; each
# source keeps rate = wt·T*/avail of its rows by a wrapping LCG key
# hash (uniform from k=1 up).  Identical double ops both sides.
ORACLE_SQL["mixture_sample"] = """
    WITH n AS (SELECT source, CAST(sum(n_chars) AS DOUBLE) AS avail,
                 (CAST(substr(source, 4) AS BIGINT) + 1) / 210.0 AS wt
               FROM documents GROUP BY source),
    t AS (SELECT min(avail / wt) AS ts FROM n),
    r AS (SELECT source, (wt * t.ts) / avail AS rate FROM n, t)
    SELECT d.doc_id, d.source
    FROM documents d JOIN r USING (source)
    WHERE ((d.doc_id * 1103515245 + 12345) % 1000003) / 1000003.0 < r.rate
"""

# Edit-distance near-dup verify (stages/dedup.edit_distance_verify_batch):
# consecutive-id candidate pairs, exact Levenshtein over the first
# EDIT_MAX_CHARS chars, batch-vectorized DP (the O(L²) loops run over
# char positions; every cell update is one numpy op across all pairs).
ORACLE_SQL["edit_distance"] = f"""
    WITH t AS (SELECT doc_id, substr(text, 1, {EDIT_MAX_CHARS}) AS tx
               FROM documents),
    p AS (SELECT a.doc_id, a.tx AS ta, b.tx AS tb
          FROM t a JOIN t b ON b.doc_id = a.doc_id + 1),
    l AS (SELECT doc_id, CAST(levenshtein(ta, tb) AS BIGINT) AS lev,
                 greatest(length(ta), length(tb)) AS mx
          FROM p)
    SELECT doc_id, lev,
           round(CASE WHEN mx = 0 THEN 1.0
                      ELSE 1.0 - CAST(lev AS DOUBLE) / mx END, 6) AS sim
    FROM l
"""

# C4-style frequent-line removal (stages/scrub.line_dedup): lines =
# consecutive runs of LINE_W space-separated tokens; a line occurring
# in >= LINE_MIN_DOCS distinct documents is boilerplate and dropped
# everywhere.  The Ray side bans by 64-bit line hash (collision odds
# ~1e-10 at gate scale); the oracle bans by the line string itself —
# outputs agree unless the poly-hash collides.
ORACLE_SQL["line_dedup"] = f"""
    WITH toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
             CAST(generate_subscripts(string_split(text, ' '), 1)
                  AS BIGINT) AS o
      FROM documents),
    lines AS (
      SELECT doc_id, CAST(floor((o - 1) / {LINE_W}) AS BIGINT) AS lid,
             string_agg(tok, ' ' ORDER BY o) AS ltext
      FROM toks GROUP BY doc_id, lid),
    freq AS (SELECT ltext, count(DISTINCT doc_id) AS nd
             FROM lines GROUP BY ltext),
    flagged AS (SELECT l.doc_id, l.lid, l.ltext,
                  (f.nd >= {LINE_MIN_DOCS}) AS banned
                FROM lines l JOIN freq f USING (ltext)),
    agg AS (SELECT doc_id,
              coalesce(string_agg(CASE WHEN NOT banned THEN ltext END,
                                  ' ' ORDER BY lid), '') AS clean_text,
              CAST(count(*) AS BIGINT) AS n_lines,
              CAST(sum(CASE WHEN banned THEN 1 ELSE 0 END) AS BIGINT)
                AS n_removed
            FROM flagged GROUP BY doc_id)
    SELECT doc_id, clean_text, n_lines, n_removed FROM agg
"""

# Map matching (stages/mapmatch.snap_to_segments): road segments derived
# from supplier keys (endpoint A = derive_xy(k), endpoint B = A + a
# bounded arithmetic offset).  The SQL candidate set is the full cross
# join — a superset of the grid-index candidates on the Ray side — and
# the d2 <= R² filter plus the (d2, edge_key) argmin equalize both; the
# projection expression tree (dot/len2 clamp, ex²+ey²) is replayed
# token-for-token so distances are bit-identical.
_SX = dt.SQL_X.format(k="s_suppkey")
_SY = dt.SQL_Y.format(k="s_suppkey")
ORACLE_SQL["snap_to_road"] = f"""
    WITH pts AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
    seg0 AS (SELECT s_suppkey AS ek, {_SX} AS ax, {_SY} AS ay,
               {_SX} + ((s_suppkey * 48271) % 2001 - 1000.0) AS bxx,
               {_SY} + ((s_suppkey * 16807) % 2001 - 1000.0) AS byy
             FROM supplier),
    seg AS (SELECT ek, ax, ay, bxx - ax AS dxv, byy - ay AS dyv,
              (bxx - ax) * (bxx - ax) + (byy - ay) * (byy - ay) AS len2
            FROM seg0),
    pr AS (SELECT p.doc_id, s.ek, p.x, p.y, s.ax, s.ay, s.dxv, s.dyv,
             least(greatest(CASE WHEN s.len2 = 0.0 THEN 0.0
                                 ELSE ((p.x - s.ax) * s.dxv
                                       + (p.y - s.ay) * s.dyv) / s.len2
                            END, 0.0), 1.0) + 0.0 AS tc
           FROM pts p CROSS JOIN seg s),
    dd AS (SELECT doc_id, ek, tc,
             (x - (ax + tc * dxv)) * (x - (ax + tc * dxv))
             + (y - (ay + tc * dyv)) * (y - (ay + tc * dyv)) AS d2
           FROM pr),
    r AS (SELECT doc_id, ek, tc, d2,
            row_number() OVER (PARTITION BY doc_id ORDER BY d2, ek) AS rn
          FROM dd WHERE d2 <= {SNAP_R!r} * {SNAP_R!r})
    SELECT doc_id, ek AS edge_key, tc AS snap_t, sqrt(d2) AS snap_dist
    FROM r WHERE rn = 1
"""

# HMM map matching (stages/mapmatch.viterbi_match): the snap_to_road
# projection tree reused per (ping, segment), K-nearest candidates by
# (d2, ek), then the Viterbi DP with int64 emission floor(d2+0.5) and
# transition floor(|snap-to-snap - ping-step| + 0.5) costs — unrolled
# as one MATERIALIZED CTE per step (recursive CTEs cannot aggregate),
# the MMR-gate precedent.  Integer costs make min/sum order-exact, so
# the full DP table matches bit-for-bit.
_VXE = dt.SQL_X.format(k="eid")
_VYE = dt.SQL_Y.format(k="eid")
_vit_tail = ""
_vit_union = ("SELECT user_id, CAST(1 AS BIGINT) AS step, ek AS edge_key,"
              " cost AS cost_q FROM v1")
for _t in range(2, VIT_STEPS + 1):
    _vit_tail += f""",
    v{_t} AS MATERIALIZED (
      SELECT c.user_id, c.ek, c.sx, c.sy,
             c.eq + min(p.cost + CAST(floor(abs(
                 sqrt((c.sx - p.sx) * (c.sx - p.sx)
                    + (c.sy - p.sy) * (c.sy - p.sy)) - g.gc) + 0.5)
               AS BIGINT)) AS cost
      FROM cand c
      JOIN v{_t - 1} p USING (user_id)
      JOIN gsteps g ON g.user_id = c.user_id AND g.step = {_t}
      WHERE c.step = {_t}
      GROUP BY c.user_id, c.ek, c.sx, c.sy, c.eq)"""
    _vit_union += (f"\n    UNION ALL SELECT user_id, CAST({_t} AS BIGINT)"
                   f" AS step, ek AS edge_key, cost AS cost_q FROM v{_t}")
ORACLE_SQL["viterbi_match"] = f"""
    WITH seg0v AS (
      SELECT s_suppkey AS ek, {_SX} AS ax, {_SY} AS ay,
             {_SX} + ((s_suppkey * 48271) % 2001 - 1000.0) AS bxx,
             {_SY} + ((s_suppkey * 16807) % 2001 - 1000.0) AS byy
      FROM supplier),
    segv AS (SELECT ek, ax, ay, bxx - ax AS dxv, byy - ay AS dyv,
               (bxx - ax) * (bxx - ax) + (byy - ay) * (byy - ay) AS len2
             FROM seg0v),
    p0 AS (SELECT CAST(user_id AS BIGINT) AS user_id, epoch_us(ts) AS ts_us,
                  CAST(event_id AS BIGINT) AS eid, {_VXE} AS x, {_VYE} AS y
           FROM events),
    pr AS (SELECT *, row_number() OVER w AS rn,
                  count(*) OVER (PARTITION BY user_id) AS cnt
           FROM p0 WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, eid)),
    pings AS MATERIALIZED (
      SELECT user_id, CAST(rn AS BIGINT) AS step, x, y
      FROM pr WHERE cnt >= {VIT_STEPS} AND rn <= {VIT_STEPS}),
    gsteps AS MATERIALIZED (
      SELECT a.user_id, a.step,
             sqrt((a.x - b.x) * (a.x - b.x)
                + (a.y - b.y) * (a.y - b.y)) AS gc
      FROM pings a JOIN pings b
        ON b.user_id = a.user_id AND b.step = a.step - 1),
    pj AS (SELECT p.user_id, p.step, s.ek, p.x, p.y,
             s.ax, s.ay, s.dxv, s.dyv,
             least(greatest(CASE WHEN s.len2 = 0.0 THEN 0.0
                                 ELSE ((p.x - s.ax) * s.dxv
                                       + (p.y - s.ay) * s.dyv) / s.len2
                            END, 0.0), 1.0) + 0.0 AS tc
           FROM pings p CROSS JOIN segv s),
    pj2 AS (SELECT user_id, step, ek,
              ax + tc * dxv AS sx, ay + tc * dyv AS sy,
              (x - (ax + tc * dxv)) * (x - (ax + tc * dxv))
              + (y - (ay + tc * dyv)) * (y - (ay + tc * dyv)) AS d2
            FROM pj),
    cand AS MATERIALIZED (
      SELECT user_id, step, ek, sx, sy,
             CAST(floor(d2 + 0.5) AS BIGINT) AS eq
      FROM (SELECT *, row_number() OVER (
              PARTITION BY user_id, step ORDER BY d2, ek) AS rk
            FROM pj2)
      WHERE rk <= {VIT_K}),
    v1 AS MATERIALIZED (
      SELECT user_id, ek, sx, sy, eq AS cost FROM cand WHERE step = 1)
    {_vit_tail}
    {_vit_union}
"""

# Hexagonal binning (stages/geostats.hexbin): pointy-top axial hex ids
# via the public fractional-axial + cube-rounding formula (Red Blob
# Games).  The SQL CTE chain repeats the identical IEEE double ops in
# the identical order (sqrt/floor/abs only), so hex ids are
# bit-identical across engines.
ORACLE_SQL["hexbin"] = f"""
    WITH pts AS (SELECT {_X} AS x, {_Y} AS y FROM documents),
    fr AS (SELECT (sqrt(3.0) / 3.0 * x - y / 3.0) / {HEX_SIZE!r} AS q,
                  (y * (2.0 / 3.0)) / {HEX_SIZE!r} AS r
           FROM pts),
    fs AS (SELECT q, r, -q - r AS s FROM fr),
    rd AS (SELECT q, r, s, floor(q + 0.5) AS rq, floor(r + 0.5) AS rr,
                  floor(s + 0.5) AS rs
           FROM fs),
    df AS (SELECT rq, rr, rs, abs(rq - q) AS dq, abs(rr - r) AS dr,
                  abs(rs - s) AS dv
           FROM rd),
    hx AS (SELECT
             CAST(CASE WHEN dq > dv AND dq > dr THEN -rr - rs
                       ELSE rq END AS BIGINT) AS hq,
             CAST(CASE WHEN NOT (dq > dv AND dq > dr) AND dr > dv
                       THEN -rq - rs ELSE rr END AS BIGINT) AS hr
           FROM df)
    SELECT hq, hr, CAST(count(*) AS BIGINT) AS n
    FROM hx GROUP BY hq, hr
"""

# H3-style k=1 ring aggregation (stages/geostats.hex_kring): the
# hexbin chain feeds a 7-offset emission join — occupied hexes only,
# all-int sums.
ORACLE_SQL["hex_kring"] = f"""
    WITH pts AS (SELECT {_X} AS x, {_Y} AS y FROM documents),
    fr AS (SELECT (sqrt(3.0) / 3.0 * x - y / 3.0) / {HEX_SIZE!r} AS q,
                  (y * (2.0 / 3.0)) / {HEX_SIZE!r} AS r
           FROM pts),
    fs AS (SELECT q, r, -q - r AS s FROM fr),
    rd AS (SELECT q, r, s, floor(q + 0.5) AS rq, floor(r + 0.5) AS rr,
                  floor(s + 0.5) AS rs
           FROM fs),
    df AS (SELECT rq, rr, rs, abs(rq - q) AS dq, abs(rr - r) AS dr,
                  abs(rs - s) AS dv
           FROM rd),
    hx AS (SELECT
             CAST(CASE WHEN dq > dv AND dq > dr THEN -rr - rs
                       ELSE rq END AS BIGINT) AS hq,
             CAST(CASE WHEN NOT (dq > dv AND dq > dr) AND dr > dv
                       THEN -rq - rs ELSE rr END AS BIGINT) AS hr
           FROM df),
    cnt AS (SELECT hq, hr, CAST(count(*) AS BIGINT) AS n
            FROM hx GROUP BY hq, hr),
    em AS (SELECT c.hq + o.dq AS hq, c.hr + o.dr AS hr,
                  c.n AS rn, o.nb AS nb
           FROM cnt c JOIN (VALUES (0, 0, 0), (1, 0, 1), (1, -1, 1),
                                   (0, -1, 1), (-1, 0, 1), (-1, 1, 1),
                                   (0, 1, 1)) o(dq, dr, nb) ON TRUE),
    ring AS (SELECT hq, hr, CAST(sum(rn) AS BIGINT) AS ring_n,
                    CAST(sum(nb) AS BIGINT) AS n_nbr
             FROM em GROUP BY hq, hr)
    SELECT c.hq, c.hr, c.n, r.ring_n, r.n_nbr
    FROM cnt c JOIN ring r USING (hq, hr)
"""

# NFC normalization + whitespace collapse (stages/scrub.normalize_batch)
# — a deterministic decomposed-accent suffix (letter + U+0300 combining
# grave) is appended in the same string ops on both sides so NFC
# composition has real work to do on every row.
ORACLE_SQL["normalize_text"] = r"""
    WITH t AS (SELECT doc_id,
                 coalesce(text, '') || chr(65 + CAST(doc_id % 26 AS INTEGER))
                   || chr(768) AS tx
               FROM documents),
    n AS (SELECT doc_id, tx,
            trim(regexp_replace(nfc_normalize(tx), '\s+', ' ', 'g'))
              AS norm_text
          FROM t)
    SELECT doc_id, norm_text, (norm_text <> tx) AS changed FROM n
"""

# Z-order / Morton spatial key (cells.zorder): the locality-preserving
# partition key — contiguous zkey ranges are spatially compact, so
# range-partitioned writes colocate neighboring tiles.  The SQL CTE
# chain is the identical 4-step bit spread (16-bit inputs -> 32-bit
# masks, exact in signed BIGINT).
ORACLE_SQL["zorder_key"] = f"""
    WITH d AS (SELECT doc_id,
                 CAST(floor({_X} / {CELL_SIZE!r}) AS BIGINT) AS ix,
                 CAST(floor({_Y} / {CELL_SIZE!r}) AS BIGINT) AS iy
               FROM documents),
    s0 AS (SELECT doc_id, ix, iy,
             (ix | (ix << 8)) & 16711935 AS x, (iy | (iy << 8)) & 16711935 AS y
           FROM d),
    s1 AS (SELECT doc_id, ix, iy,
             (x | (x << 4)) & 252645135 AS x, (y | (y << 4)) & 252645135 AS y
           FROM s0),
    s2 AS (SELECT doc_id, ix, iy,
             (x | (x << 2)) & 858993459 AS x, (y | (y << 2)) & 858993459 AS y
           FROM s1),
    s3 AS (SELECT doc_id, ix, iy,
             (x | (x << 1)) & 1431655765 AS x, (y | (y << 1)) & 1431655765 AS y
           FROM s2)
    SELECT doc_id, ix, iy, (x | (y << 1)) AS zkey,
           ((x | (y << 1)) // 16) AS z_block
    FROM s3
"""

# per-group embedding centroid (stages/similarity.group_centroids):
# int64 micro-unit component sums -> order-independent exact merge.
ORACLE_SQL["group_centroids"] = r"""
    WITH e AS (SELECT CAST(label AS BIGINT) AS grp, embedding AS v
               FROM embeddings),
    x AS (SELECT grp, CAST(generate_subscripts(v, 1) - 1 AS BIGINT) AS dim,
                 unnest(v) AS val
          FROM e),
    t AS (SELECT grp, dim,
            CAST(round(CAST(val AS DOUBLE) * 1000000.0, 0) AS BIGINT) AS q
          FROM x),
    a AS (SELECT grp, dim, CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(q) AS BIGINT) AS sum_q
          FROM t GROUP BY grp, dim)
    SELECT grp, dim, n, sum_q FROM a
"""

# per-user trajectory rollup (stages/trajectory.trajectory_stats):
# pings ordered by (ts, event_id), step lengths quantized to int64
# micro-units BEFORE the per-user sum so the unordered SQL SUM matches
# numpy's sequential sum exactly.
ORACLE_SQL["trajectory"] = f"""
    WITH p AS (SELECT user_id, epoch_us(ts) AS ts_us, event_id,
                      {dt.SQL_X.format(k="event_id")} AS x,
                      {dt.SQL_Y.format(k="event_id")} AS y
               FROM events),
    l AS (SELECT *, lag(x) OVER w AS px, lag(y) OVER w AS py,
                 row_number() OVER w AS rn,
                 count(*) OVER (PARTITION BY user_id) AS cnt
          FROM p WINDOW w AS (PARTITION BY user_id
                              ORDER BY ts_us, event_id)),
    s AS (SELECT user_id,
            CASE WHEN px IS NULL THEN 0
                 ELSE CAST(round(sqrt((x - px) * (x - px)
                                      + (y - py) * (y - py))
                                 * 1000000.0, 0) AS BIGINT) END AS step_q,
            CASE WHEN rn = 1 THEN x END AS fx,
            CASE WHEN rn = 1 THEN y END AS fy,
            CASE WHEN rn = cnt THEN x END AS lx,
            CASE WHEN rn = cnt THEN y END AS ly
          FROM l)
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_pings,
           CAST(sum(step_q) AS BIGINT) AS path_q,
           CAST(round(sqrt((max(lx) - max(fx)) * (max(lx) - max(fx))
                           + (max(ly) - max(fy)) * (max(ly) - max(fy)))
                      * 1000000.0, 0) AS BIGINT) AS disp_q
    FROM s GROUP BY user_id
"""

# global percent-rank transform (stages/quantiles.percent_rank):
# (#rows < value) * 1e6 // (n-1) — integer floor division, exact in
# both engines; no global sort (O(#distinct) histogram + broadcast).
ORACLE_SQL["percent_rank_tokens"] = r"""
    WITH tc AS (SELECT doc_id,
                  CAST(array_length(string_split_regex(trim(text), '\s+'))
                       AS BIGINT) AS n_tokens
                FROM documents),
    h AS (SELECT n_tokens AS v, count(*) AS c FROM tc GROUP BY n_tokens),
    cum AS (SELECT v, sum(c) OVER (ORDER BY v) - c AS below FROM h),
    tot AS (SELECT count(*) AS n FROM tc)
    SELECT tc.doc_id, tc.n_tokens,
           CAST((cum.below * 1000000) // greatest(tot.n - 1, 1) AS BIGINT)
             AS pct_rank_q6
    FROM tc JOIN cum ON tc.n_tokens = cum.v, tot
"""

# broadcast dim join (stages/enrich.broadcast_join): orders enrich with
# the customer's nation, then a partial-agg rollup per nation; prices
# quantize to int64 cents (2-decimal TPC-H prices are exact there).
ORACLE_SQL["orders_by_nation"] = """
    SELECT CAST(c.c_nationkey AS BIGINT) AS nation,
           CAST(count(*) AS BIGINT) AS n_orders,
           CAST(sum(CAST(round(o.o_totalprice * 100.0, 0) AS BIGINT))
                AS BIGINT) AS sum_price_q
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    GROUP BY c.c_nationkey
"""


def _slope_oracle_sql() -> str:
    """Central-difference gradient at each doc's center pixel — the
    four neighbor values re-derived from the closed-form field (the
    stored float64 tiles are bit-identical to it, proven by the zonal
    gates); same 1e9 quantization as stages/terrain.PointGradient."""
    def fld(pxe: str, pye: str) -> str:
        return _NDVI_SQL.replace("px", pxe).replace("py", pye)

    ve = fld('((col + 1) * 10.0 + 5.0)', '("row" * 10.0 + 5.0)')
    vw = fld('((col - 1) * 10.0 + 5.0)', '("row" * 10.0 + 5.0)')
    vs = fld('(col * 10.0 + 5.0)', '(("row" + 1) * 10.0 + 5.0)')
    vn = fld('(col * 10.0 + 5.0)', '(("row" - 1) * 10.0 + 5.0)')
    gx = f"(({ve} - {vw}) / 20.0)"
    gy = f"(({vs} - {vn}) / 20.0)"
    return f"""
    WITH d AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
    c AS (SELECT doc_id, CAST(floor(x / 10.0) AS BIGINT) AS col,
                 CAST(floor(y / 10.0) AS BIGINT) AS "row"
          FROM d),
    g AS (SELECT doc_id, {gx} AS gx, {gy} AS gy,
            (col - 1 >= 0 AND col + 1 <= {_NPIX}
             AND "row" - 1 >= 0 AND "row" + 1 <= {_NPIX}) AS ok
          FROM c)
    SELECT doc_id,
           CASE WHEN ok THEN CAST(round(gx * 1000000000.0, 0) AS BIGINT)
                END AS gx_q,
           CASE WHEN ok THEN CAST(round(gy * 1000000000.0, 0) AS BIGINT)
                END AS gy_q,
           CASE WHEN ok THEN CAST(round(sqrt(gx * gx + gy * gy)
                                        * 1000000000.0, 0) AS BIGINT)
                END AS slope_q
    FROM g
    """


ORACLE_SQL["slope_gradient"] = _slope_oracle_sql()

# distributed anti-join (stages/setops.exists_join over the bucket
# exchange, right side pre-collapsed to distinct keys): orders with
# no high-quantity lineitem.
ORACLE_SQL["orders_no_bulk_item"] = """
    SELECT o.o_orderkey,
           CAST(round(o.o_totalprice * 100.0, 0) AS BIGINT) AS price_q
    FROM orders o
    WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_quantity > 45.0)
"""

# per-key exact distinct count (stages/setops.distinct_count)
ORACLE_SQL["distinct_event_types"] = """
    SELECT user_id, CAST(count(DISTINCT event_type) AS BIGINT)
             AS n_distinct
    FROM events GROUP BY user_id
"""

# per-vector L2 norm with exact-integer interior
# (stages/similarity.vector_norms): squared components quantize to
# int64 pico-units before the sum.
ORACLE_SQL["embedding_norms"] = r"""
    WITH x AS (SELECT vec_id, unnest(embedding) AS val FROM embeddings),
    q AS (SELECT vec_id,
            CAST(round((CAST(val AS DOUBLE) * CAST(val AS DOUBLE))
                       * 1000000000000.0, 0) AS BIGINT) AS sq
          FROM x),
    s AS (SELECT vec_id, CAST(sum(sq) AS BIGINT) AS sumsq_q
          FROM q GROUP BY vec_id)
    SELECT vec_id, sumsq_q,
           CAST(round(sqrt(CAST(sumsq_q AS DOUBLE) / 1000000000000.0)
                      * 1000000.0, 0) AS BIGINT) AS norm_q6
    FROM s
"""

# corpus profiling rollup (stages/text.corpus_profile)
ORACLE_SQL["corpus_profile"] = """
    SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(n_chars) AS BIGINT) AS sum_chars
    FROM documents GROUP BY source, lang
"""

# the semi twin of orders_no_bulk_item (same machinery, EXISTS)
ORACLE_SQL["orders_with_bulk_item"] = """
    SELECT o.o_orderkey,
           CAST(round(o.o_totalprice * 100.0, 0) AS BIGINT) AS price_q
    FROM orders o
    WHERE EXISTS (SELECT 1 FROM lineitem l
                  WHERE l.l_orderkey = o.o_orderkey
                    AND l.l_quantity > 45.0)
"""
# (the float `mean` column the stage also emits is excluded from the
# gate: it is fully determined by the integer (sum_q, n) pair, and a
# ratio landing exactly on a 6th-decimal half would trip the
# half-even-vs-half-away rounding difference between the engines)


# ---------------------------------------------------------------------------
# Interleaved-document (spans world) pipelines — rows-only checks; their
# value-level parity is covered by the pytest oracles (tests/test_*).
# All run on the deterministic synthetic world (sf-independent input;
# the driver records row counts + schema stability).
# ---------------------------------------------------------------------------


def _world_paths() -> dict:
    n = _world_docs_n()
    return synth.ensure_world(f"/tmp/greenex_world_{n}", n_docs=n)


def _world_poi(limit: int | None = None):
    w = _world_paths()
    # metrics-only consumers never re-emit spans, so read only the
    # kind/text leaves (geom WKT lives in text); media_ref/offset stay
    # on disk.  A limit plans only the first rows in file order; Ray
    # splits the read's blocks, so the next stage still fans out
    docs = doc_src.read_documents(w["documents"], fields=("kind", "text"),
                                  limit=limit)
    poi = doc_src.decode_geom(docs).select_columns(["doc_id", "x", "y"])
    return poi, w


def q_spans_mean_ndvi(sf_dir: str):
    """Flagship: spans documents → zonal NDVI appended to each document
    batch (one read, no exchange; spans pass through untouched).

    Not a gate entry of its own (it was permanently ``no_oracle`` while
    its two children are hash-green): the metrics half is value-verified
    by ``spans_mean_ndvi_metrics`` and the span passthrough by
    ``spans_mean_ndvi_payload`` (which runs THIS pipeline and serializes
    the spans); bench.py still times it directly as the flagship."""
    w = _world_paths()
    stage = availability.mean_ndvi_stage(
        w["tiles"], 300.0, batch_size=_zonal_batch_size(_world_docs_n()))
    return append_metrics(
        doc_src.read_documents(w["documents"], fused=stage.fused), stage)


def q_spans_mean_ndvi_metrics(sf_dir: str):
    """Flagship zonal WITHOUT the span payload — the north-star
    'per-point exposure-metric throughput' measurement (carrying the
    document payload through is output materialization, benchmarked
    separately in q_spans_mean_ndvi)."""
    poi, w = _world_poi()
    # Input-aware batch size: 16384 on big inputs — the SAT-chord kernel
    # runs one vectorized pass per (tile, point-group), so large batches
    # mean large groups and less numpy dispatch (+40 % single-thread on
    # the 6M-doc world, bit-identical output) — but at gate/bench scale
    # a 16384 batch would collapse the stream to a couple of tasks and
    # starve the kernel tasks (the round-3 viewshed-pool lesson).
    return availability.mean_ndvi_stage(
        w["tiles"], 300.0, batch_size=_zonal_batch_size(_world_docs_n())).on(poi)


def q_spans_mean_ndvi_payload(sf_dir: str):
    """Flagship output with the span payload serialized to CANONICAL
    JSON — value-verifies the north rule's per-row invariant
    (span-sequence equality: kind, text, media_ref, order) straight
    through the zonal append stage, against DuckDB's ``to_json`` of the
    source table."""
    import json

    out = q_spans_mean_ndvi(sf_dir)

    def to_json(b: pa.Table) -> pa.Table:
        js = [json.dumps(s, separators=(",", ":"))
              for s in b.column("spans").to_pylist()]
        return pa.table({
            "doc_id": b.column("doc_id"),
            "mean_NDVI": b.column("mean_NDVI"),
            "std_NDVI": b.column("std_NDVI"),
            "spans_json": pa.array(js, pa.string()),
        })

    return out.map_batches(to_json, batch_format="pyarrow")


def _rect_union_cte(src: str, p: str, moments: bool = False) -> str:
    """CTE chain: per-group union area (and optionally centroid
    moments) of axis-aligned rects via SLAB DECOMPOSITION — exact
    interval arithmetic, the oracle counterpart of the engine's
    inclusion–exclusion / trapezoid-overlay union kernels.

    ``src`` must provide rows ``(grp, rx0, ry0, rx1, ry1)``; emits
    ``{p}_u(grp, area[, mx, my])``.  Slabs are the sorted distinct
    x-bounds; inside a slab the covering rects' y-intervals are merged
    with the classic running-max island scan (window functions)."""
    mom = ""
    if moments:
        mom = """,
               sum((sx0 + sx1) * 0.5 * (sx1 - sx0) * (iy1 - iy0)) AS mx,
               sum((sx1 - sx0) * (iy0 + iy1) * 0.5 * (iy1 - iy0)) AS my"""
    return f"""
        {p}_xs AS (
          SELECT DISTINCT grp, rx0 AS xv FROM {src}
          UNION SELECT DISTINCT grp, rx1 FROM {src}
        ),
        {p}_slab AS (
          SELECT grp, xv AS sx0,
                 lead(xv) OVER (PARTITION BY grp ORDER BY xv) AS sx1
          FROM {p}_xs
        ),
        {p}_cov AS (
          -- DISTINCT: identical covering intervals (e.g. two rects
          -- clipped to the same AoI window) are redundant for a union
          -- AND their ordering ties would let the separate brk/isl
          -- window evaluations disagree, splitting one island in two
          SELECT DISTINCT s.grp, s.sx0, s.sx1, c.ry0, c.ry1
          FROM {p}_slab s JOIN {src} c
            ON c.grp = s.grp AND c.rx0 <= s.sx0 AND c.rx1 >= s.sx1
          WHERE s.sx1 IS NOT NULL AND s.sx1 > s.sx0
        ),
        {p}_brk AS (
          SELECT grp, sx0, sx1, ry0, ry1,
                 CASE WHEN ry0 > coalesce(max(ry1) OVER (
                        PARTITION BY grp, sx0 ORDER BY ry0, ry1
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                      -1e300) THEN 1 ELSE 0 END AS brk
          FROM {p}_cov
        ),
        {p}_isl AS (
          SELECT grp, sx0, sx1, ry0, ry1,
                 sum(brk) OVER (PARTITION BY grp, sx0 ORDER BY ry0, ry1
                                ROWS UNBOUNDED PRECEDING) AS isl
          FROM {p}_brk
        ),
        {p}_len AS (
          SELECT grp, sx0, sx1, min(ry0) AS iy0, max(ry1) AS iy1
          FROM {p}_isl GROUP BY grp, sx0, sx1, isl
        ),
        {p}_u AS (
          SELECT grp, sum((sx1 - sx0) * (iy1 - iy0)) AS area{mom}
          FROM {p}_len GROUP BY grp
        )"""


# Vector->raster burn (stages/rasterize.rasterize_coverage): rects ->
# integer pixel ranges under the centre-in rule (ceil(x/res - 0.5),
# the identical double expression), tile enumeration via a bounded
# range join, per-tile pixel count = slab-decomposition UNION AREA of
# the integer rectangles (exact integer-valued doubles in both
# engines; the engine burns a boolean mask, the oracle reuses
# _rect_union_cte on the same half-open integer coords).
_RZ_RES = 10.0
_RZ_PX = 256
_RZ_B = 1 << 20
_RZ_P2 = 1 << 21
_RZ_NT = int(dt.WORLD / _RZ_RES / _RZ_PX) + 2
ORACLE_SQL["rasterize_coverage"] = f"""
    WITH pr AS (SELECT p_partkey AS k, {_GX} AS cx, {_GY} AS cy,
                  100.0 + (p_partkey * 13 % 400) AS w,
                  100.0 + (p_partkey * 29 % 500) AS h
                FROM part),
    rect AS (SELECT cx - w AS x0, cy - h AS y0,
                    cx + w AS x1, cy + h AS y1 FROM pr),
    ir AS (SELECT
             CAST(ceil(x0 / {_RZ_RES!r} - 0.5) AS BIGINT) AS c0,
             CAST(ceil(x1 / {_RZ_RES!r} - 0.5) AS BIGINT) - 1 AS c1,
             CAST(ceil(y0 / {_RZ_RES!r} - 0.5) AS BIGINT) AS r0,
             CAST(ceil(y1 / {_RZ_RES!r} - 0.5) AS BIGINT) - 1 AS r1
           FROM rect),
    irf AS (SELECT * FROM ir WHERE c1 >= c0 AND r1 >= r0),
    ts AS (SELECT i AS t FROM range(-1, {_RZ_NT}) g(i)),
    tl0 AS (
      SELECT i.*, tx.t AS tix, ty.t AS tiy
      FROM irf i
      JOIN ts tx ON tx.t >= CAST(floor(CAST(i.c0 AS DOUBLE) / {_RZ_PX}.0)
                                 AS BIGINT)
                AND tx.t <= CAST(floor(CAST(i.c1 AS DOUBLE) / {_RZ_PX}.0)
                                 AS BIGINT)
      JOIN ts ty ON ty.t >= CAST(floor(CAST(i.r0 AS DOUBLE) / {_RZ_PX}.0)
                                 AS BIGINT)
                AND ty.t <= CAST(floor(CAST(i.r1 AS DOUBLE) / {_RZ_PX}.0)
                                 AS BIGINT)
    ),
    tl AS (
      SELECT (tix + {_RZ_B}) * {_RZ_P2} + (tiy + {_RZ_B}) AS grp,
             CAST(greatest(c0, tix * {_RZ_PX}) AS DOUBLE) AS rx0,
             CAST(greatest(r0, tiy * {_RZ_PX}) AS DOUBLE) AS ry0,
             CAST(least(c1, tix * {_RZ_PX} + {_RZ_PX - 1}) + 1
                  AS DOUBLE) AS rx1,
             CAST(least(r1, tiy * {_RZ_PX} + {_RZ_PX - 1}) + 1
                  AS DOUBLE) AS ry1
      FROM tl0
    ),{_rect_union_cte("tl", "rz")}
    SELECT CAST(floor(grp / {_RZ_P2}.0) AS BIGINT) - {_RZ_B} AS tix,
           (grp % {_RZ_P2}) - {_RZ_B} AS tiy,
           CAST(area AS BIGINT) AS n_covered
    FROM rz_u
"""


def _coverage_pct_sql(docs_cte: str, rect_pq: str, half: float,
                      name: str) -> str:
    """Union-coverage % of a square AoI (half-width ``half``) per doc:
    clip every intersecting rect to the AoI, slab-union, ratio.
    Matches PolygonCoverage(aoi_shape="square", dissolve=True): the
    union over dissolved blobs of clipped members IS the union of all
    intersecting clipped rects."""
    return f"""
        WITH {docs_cte},
        rect AS (SELECT x0, y0, x1, y1 FROM read_parquet({rect_pq})),
        clip AS (
          SELECT d.doc_id AS grp,
                 greatest(r.x0, d.x - {half}) AS rx0,
                 greatest(r.y0, d.y - {half}) AS ry0,
                 least(r.x1, d.x + {half}) AS rx1,
                 least(r.y1, d.y + {half}) AS ry1
          FROM docs d JOIN rect r
            ON r.x0 < d.x + {half} AND r.x1 > d.x - {half}
           AND r.y0 < d.y + {half} AND r.y1 > d.y - {half}
        ),{_rect_union_cte("clip", "c")}
        SELECT d.doc_id,
               round(100.0 * coalesce(u.area, 0.0)
                     / ({2 * half} * {2 * half}), 2) AS {name}
        FROM docs d LEFT JOIN c_u u ON u.grp = d.doc_id
    """


def _seg_d2(px: str, py: str, ax: str, ay: str, bx: str, by: str) -> str:
    """Squared point→segment distance, term-for-term the engine's
    vectorized form (projection ratio clamped to [0,1])."""
    dx = f"({bx} - {ax})"
    dy = f"({by} - {ay})"
    qx = f"({px} - {ax})"
    qy = f"({py} - {ay})"
    t = (f"least(greatest(({qx} * {dx} + {qy} * {dy})"
         f" / ({dx} * {dx} + {dy} * {dy}), 0.0), 1.0)")
    return (f"(({qx} - {t} * {dx}) * ({qx} - {t} * {dx})"
            f" + ({qy} - {t} * {dy}) * ({qy} - {t} * {dy}))")


def _viewshed_tables():
    """(rays VALUES, weight VALUES) from the SAME ViewshedKernel the
    kernels build — ray order, Bresenham steps and the exp-decay weight
    grid are embedded as full-precision literals so the oracle shares
    them bit-for-bit (numpy and DuckDB libm differ in the last ulp)."""
    from ..state.viewshed import ViewshedKernel

    k = ViewshedKernel(radius_px=25, resolution=10.0,
                       observer_height=1.7)
    rays = []
    for ri in range(k.ray_r.shape[0]):
        for si in range(k.ray_r.shape[1]):
            if k.ray_valid[ri, si]:
                rays.append(f"({ri},{si},{k.ray_r[ri, si]},{k.ray_c[ri, si]})")
    R = k.R
    wgt = []
    for i in range(2 * R):
        for j in range(2 * R):
            w = k.weight[i, j]
            if w > 0.0:
                wgt.append(f"({i - R},{j - R},{w!r})")
    return ",".join(rays), ",".join(wgt)


#: OD cost-matrix gate shape: origins, network-metre cutoff and the
#: deterministic destination subset (node_id % mod == 0).
OD_POIS = 150
OD_CUTOFF = 400.0
OD_DEST_MOD = 16

#: 2SFCA gate shape: demand docs and the binary catchment radius.
FCA_POIS = 500
FCA_RADIUS = 800.0

#: gravity-access gate shape (Hansen potential): impedance scale θ and
#: hard cutoff.
GRAV_THETA = 400.0
GRAV_CUTOFF = 1500.0

#: E2SFCA gate shape: Gaussian decay σ and catchment cutoff.
E2_SIGMA = 500.0
E2_CUTOFF = 1500.0


def world_oracle_sql() -> dict[str, str]:
    """Oracles for the synthetic-world gates: DuckDB reads the SAME
    world parquet the Ray side reads (created here if absent), extracts
    each document's POINT span by regex, and recomputes every pipeline
    with exact closed forms — the pixel/NDVI arithmetic of the sf-table
    zonal oracles, rect boundary distances, slab-decomposition unions,
    recursive-CTE components and bounded-walk Dijkstra."""
    n = _world_docs_n()
    root = f"/tmp/greenex_world_{n}"
    synth.ensure_world(root, n_docs=n)
    glob = f"{root}/documents/*.parquet"
    gs_pq = f"'{root}/greenspace.parquet'"
    can_pq = f"'{root}/canopy.parquet'"
    nodes_pq = f"'{root}/network_nodes.parquet'"
    edges_pq = f"'{root}/network_edges.parquet'"
    feat_pq = f"'{root}/image_features.parquet'"
    pt = r"'POINT\(([^ ]+) ([^)]+)\)'"

    def wdocs(limit: int | None = None) -> str:
        # doc ids are zero-padded, so the Ray side's limit(L) (first L
        # rows of the single ordered fragment) == the L smallest ids
        where = f"WHERE doc_id < 'doc-{limit:012d}'" if limit else ""
        return f"""docs AS (
  SELECT doc_id,
         CAST(regexp_extract(list_filter(spans, s -> s.kind = 'geom')[1].text,
                             {pt}, 1) AS DOUBLE) AS x,
         CAST(regexp_extract(list_filter(spans, s -> s.kind = 'geom')[1].text,
                             {pt}, 2) AS DOUBLE) AS y
  FROM read_parquet('{glob}') {where}
)"""

    base = "WITH " + wdocs() + "," + _PIX_BODY.format(r=NDVI_RADIUS) + f"""
        , vals AS (SELECT doc_id, greatest({_NDVI_SQL}, 0.0) AS v FROM pix)
        , m AS (
          SELECT doc_id,
                 round(avg(v), 3) AS mean_NDVI,
                 round(sqrt(greatest(avg(v*v) - avg(v)*avg(v), 0.0)), 3) AS std_NDVI
          FROM vals GROUP BY doc_id
        )
    """

    # --- dissolve: components over strict rect overlap + slab union ---
    dissolve_sql = f"""
        WITH RECURSIVE gs AS (
          SELECT gs_id, x0, y0, x1, y1 FROM read_parquet({gs_pq})
        ),
        p AS (
          -- strict overlap (positive intersection area), matching the
          -- engine's clip-area > 0 predicate: touching edges don't merge
          SELECT a.gs_id AS ka, b.gs_id AS kb
          FROM gs a JOIN gs b
            ON a.gs_id < b.gs_id
           AND a.x0 < b.x1 AND b.x0 < a.x1
           AND a.y0 < b.y1 AND b.y0 < a.y1
        ),
        eset AS (SELECT ka AS a, kb AS b FROM p
                 UNION ALL SELECT kb, ka FROM p),
        walk(node, comp) AS (
          SELECT a, a FROM eset
          UNION
          SELECT e.b, w.comp FROM walk w JOIN eset e ON e.a = w.node
        ),
        cmin AS (SELECT node, min(comp) AS comp FROM walk GROUP BY node),
        lab AS (
          SELECT g.gs_id, coalesce(c.comp, g.gs_id) AS grp,
                 g.x0 AS rx0, g.y0 AS ry0, g.x1 AS rx1, g.y1 AS ry1
          FROM gs g LEFT JOIN cmin c ON c.node = g.gs_id
        ),{_rect_union_cte("lab", "d", moments=True)},
        mem AS (SELECT grp, min(gs_id) AS rep_id,
                       count(*) AS n_members FROM lab GROUP BY grp)
        SELECT m.rep_id, m.n_members,
               round(u.area, 3) AS area,
               round(u.mx / u.area, 3) AS centroid_x,
               round(u.my / u.area, 3) AS centroid_y
        FROM mem m JOIN d_u u ON u.grp = m.grp
    """

    # --- network distance: bounded-walk Dijkstra + rect entrances ---
    # rect boundary distance (outside: corner form; inside: inset min)
    def bdist(px: str, py: str, r: str) -> str:
        return f"""(CASE WHEN {px} >= {r}.x0 AND {px} <= {r}.x1
                     AND {py} >= {r}.y0 AND {py} <= {r}.y1
                THEN least({px} - {r}.x0, {r}.x1 - {px},
                           {py} - {r}.y0, {r}.y1 - {py})
                ELSE sqrt(greatest({r}.x0 - {px}, {px} - {r}.x1, 0.0)
                          * greatest({r}.x0 - {px}, {px} - {r}.x1, 0.0)
                        + greatest({r}.y0 - {py}, {py} - {r}.y1, 0.0)
                          * greatest({r}.y0 - {py}, {py} - {r}.y1, 0.0)) END)"""

    netdist_poi = int(os.environ.get("GREENEX_NETDIST_POIS", "300"))
    target = 600.0
    network_sql = f"""
        WITH RECURSIVE {wdocs(netdist_poi)},
        nodes AS (SELECT node_id, x, y FROM read_parquet({nodes_pq})),
        gs AS (SELECT gs_id, x0, y0, x1, y1, centroid_x, centroid_y
               FROM read_parquet({gs_pq})),
        eboth AS (
          SELECT u, v, length FROM read_parquet({edges_pq})
          UNION ALL
          SELECT v, u, length FROM read_parquet({edges_pq})
        ),
        nn AS (
          SELECT doc_id, x, y, node_id AS src, snap FROM (
            SELECT d.doc_id, d.x, d.y, n.node_id,
                   sqrt((d.x - n.x) * (d.x - n.x)
                        + (d.y - n.y) * (d.y - n.y)) AS snap,
                   row_number() OVER (
                     PARTITION BY d.doc_id
                     ORDER BY (d.x - n.x) * (d.x - n.x)
                            + (d.y - n.y) * (d.y - n.y) ASC, n.node_id ASC
                   ) AS rn
            FROM docs d CROSS JOIN nodes n) WHERE rn = 1
        ),
        srcs AS (SELECT DISTINCT src FROM nn),
        walk(src, node, dist) AS (
          SELECT src, src, CAST(0.0 AS DOUBLE) FROM srcs
          UNION
          SELECT w.src, e.v, w.dist + e.length
          FROM walk w JOIN eboth e ON e.u = w.node
          WHERE w.dist + e.length <= {target * 1.5}
        ),
        reach AS (SELECT src, node, min(dist) AS nd
                  FROM walk GROUP BY src, node),
        cand AS (
          SELECT d.doc_id, g.gs_id, g.x0, g.y0, g.x1, g.y1,
                 g.centroid_x, g.centroid_y
          FROM docs d JOIN gs g ON {bdist("d.x", "d.y", "g")} <= {target}
        ),
        ent AS (
          SELECT c.doc_id,
                 r.nd + nn.snap
                 + sqrt((n.x - c.centroid_x) * (n.x - c.centroid_x)
                        + (n.y - c.centroid_y) * (n.y - c.centroid_y)) AS dtot
          FROM cand c
          JOIN nn ON nn.doc_id = c.doc_id
          JOIN reach r ON r.src = nn.src
          JOIN nodes n ON n.node_id = r.node
          WHERE {bdist("n.x", "n.y", "c")} < 20.0
        ),
        best AS (SELECT doc_id, round(min(dtot)) AS b
                 FROM ent GROUP BY doc_id)
        SELECT d.doc_id,
               CASE WHEN b.b IS NOT NULL AND b.b <= {target} THEN b.b
                    ELSE {target} END AS distance_to_greenspace,
               coalesce(b.b <= {target}, FALSE) AS greenspace_within_target
        FROM docs d LEFT JOIN best b USING (doc_id)
    """

    # --- OD cost matrix: same bounded-walk Dijkstra prefix, but one
    # row per (origin, destination node) pair within the cutoff;
    # destinations = node_id % OD_DEST_MOD == 0, cost = snap + network
    # distance (the min over identical left-to-right path sums, so the
    # doubles agree bit-for-bit with the engine's Dijkstra) ------------
    od_sql = f"""
        WITH RECURSIVE {wdocs(OD_POIS)},
        nodes AS (SELECT node_id, x, y FROM read_parquet({nodes_pq})),
        eboth AS (
          SELECT u, v, length FROM read_parquet({edges_pq})
          UNION ALL
          SELECT v, u, length FROM read_parquet({edges_pq})
        ),
        nn AS (
          SELECT doc_id, node_id AS src, snap FROM (
            SELECT d.doc_id, n.node_id,
                   sqrt((d.x - n.x) * (d.x - n.x)
                        + (d.y - n.y) * (d.y - n.y)) AS snap,
                   row_number() OVER (
                     PARTITION BY d.doc_id
                     ORDER BY (d.x - n.x) * (d.x - n.x)
                            + (d.y - n.y) * (d.y - n.y) ASC, n.node_id ASC
                   ) AS rn
            FROM docs d CROSS JOIN nodes n) WHERE rn = 1
        ),
        srcs AS (SELECT DISTINCT src FROM nn),
        walk(src, node, dist) AS (
          SELECT src, src, CAST(0.0 AS DOUBLE) FROM srcs
          UNION
          SELECT w.src, e.v, w.dist + e.length
          FROM walk w JOIN eboth e ON e.u = w.node
          WHERE w.dist + e.length <= {OD_CUTOFF}
        ),
        reach AS (SELECT src, node, min(dist) AS nd
                  FROM walk GROUP BY src, node)
        SELECT nn.doc_id, r.node AS dest_node,
               round(r.nd + nn.snap, 3) AS cost
        FROM nn JOIN reach r ON r.src = nn.src
        WHERE r.node % {OD_DEST_MOD} = 0
    """

    # --- 2SFCA: binary-catchment two-step floating catchment — step-1
    # demand counts and step-2 ratio sums are exact integers (rq =
    # supply_q·1e9 // n, floor division in both engines) ---------------
    _fr2 = repr(FCA_RADIUS * FCA_RADIUS)
    fca_sql = f"""
        WITH {wdocs(FCA_POIS)},
        gs AS (SELECT gs_id, centroid_x, centroid_y,
                 CAST(floor((x1 - x0) * (y1 - y0) + 0.5) AS BIGINT)
                   AS supply_q
               FROM read_parquet({gs_pq})),
        dem AS (
          SELECT g.gs_id, CAST(count(*) AS BIGINT) AS n
          FROM docs d JOIN gs g
            ON (d.x - g.centroid_x) * (d.x - g.centroid_x)
             + (d.y - g.centroid_y) * (d.y - g.centroid_y) <= {_fr2}
          GROUP BY g.gs_id),
        r AS (SELECT gs.gs_id, gs.centroid_x, gs.centroid_y,
                (gs.supply_q * 1000000000) // dem.n AS rq
              FROM gs JOIN dem USING (gs_id)),
        a AS (
          SELECT d.doc_id, CAST(count(*) AS BIGINT) AS n_fac,
                 CAST(sum(r.rq) AS BIGINT) AS access_q
          FROM docs d JOIN r
            ON (d.x - r.centroid_x) * (d.x - r.centroid_x)
             + (d.y - r.centroid_y) * (d.y - r.centroid_y) <= {_fr2}
          GROUP BY d.doc_id)
        SELECT d.doc_id, coalesce(a.n_fac, 0) AS n_fac,
               coalesce(a.access_q, 0) AS access_q
        FROM docs d LEFT JOIN a USING (doc_id)
    """

    # --- gravity access: Hansen potential with inverse-quadratic
    # impedance; weights round to int64 BEFORE the sum ----------------
    _gr2 = repr(GRAV_CUTOFF * GRAV_CUTOFF)
    _gt2 = repr(GRAV_THETA * GRAV_THETA)
    gravity_sql = f"""
        WITH {wdocs(FCA_POIS)},
        gs AS (SELECT gs_id, centroid_x, centroid_y,
                 floor((x1 - x0) * (y1 - y0) + 0.5) AS supply_q
               FROM read_parquet({gs_pq})),
        pair AS (
          SELECT d.doc_id,
                 CAST(floor(g.supply_q * 1000000.0
                      / (1.0 + ((d.x - g.centroid_x) * (d.x - g.centroid_x)
                              + (d.y - g.centroid_y) * (d.y - g.centroid_y))
                             / {_gt2}) + 0.5) AS BIGINT) AS wq
          FROM docs d JOIN gs g
            ON (d.x - g.centroid_x) * (d.x - g.centroid_x)
             + (d.y - g.centroid_y) * (d.y - g.centroid_y) <= {_gr2}),
        a AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fac,
                     CAST(sum(wq) AS BIGINT) AS access_q
              FROM pair GROUP BY doc_id)
        SELECT d.doc_id, coalesce(a.n_fac, 0) AS n_fac,
               coalesce(a.access_q, 0) AS access_q
        FROM docs d LEFT JOIN a USING (doc_id)
    """

    # --- E2SFCA: Gaussian-decay two-step floating catchment — decay
    # weights round to int64 micro-units (the KDE exp precedent), the
    # ratio is an integer floor division, and step-2 terms quantize via
    # floor(x + 0.5) on BOTH engines (wq·rq/1e6 is exact rational
    # arithmetic, so .5 ties are reachable and round()'s ties-away vs
    # np.round's ties-to-even would diverge — ADVICE r4) ---------------
    _e2den = repr(2.0 * E2_SIGMA * E2_SIGMA)
    _e2r2 = repr(E2_CUTOFF * E2_CUTOFF)
    e2_sql = f"""
        WITH {wdocs(FCA_POIS)},
        gs AS (SELECT gs_id, centroid_x, centroid_y,
                 CAST(floor((x1 - x0) * (y1 - y0) + 0.5) AS BIGINT)
                   AS supply_q
               FROM read_parquet({gs_pq})),
        w AS (
          SELECT d.doc_id, g.gs_id, g.supply_q,
                 CASE WHEN (d.x - g.centroid_x) * (d.x - g.centroid_x)
                         + (d.y - g.centroid_y) * (d.y - g.centroid_y)
                        <= {_e2r2}
                      THEN CAST(round(exp(
                          -((d.x - g.centroid_x) * (d.x - g.centroid_x)
                          + (d.y - g.centroid_y) * (d.y - g.centroid_y))
                          / {_e2den}) * 1000000.0, 0) AS BIGINT)
                      ELSE 0 END AS wq
          FROM docs d CROSS JOIN gs g),
        ws AS (SELECT gs_id, CAST(sum(wq) AS BIGINT) AS wsum
               FROM w GROUP BY gs_id HAVING sum(wq) > 0),
        r AS (SELECT gs.gs_id, (gs.supply_q * 1000000000) // ws.wsum AS rq
              FROM gs JOIN ws USING (gs_id)),
        a AS (
          SELECT w.doc_id,
                 CAST(sum(CASE WHEN w.wq > 0 THEN 1 ELSE 0 END)
                      AS BIGINT) AS n_fac,
                 CAST(sum(CAST(floor(CAST(w.wq AS DOUBLE)
                                     * CAST(r.rq AS DOUBLE)
                                     / 1000000.0 + 0.5) AS BIGINT))
                      AS BIGINT) AS access_q
          FROM w JOIN r USING (gs_id)
          GROUP BY w.doc_id)
        SELECT d.doc_id, coalesce(a.n_fac, 0) AS n_fac,
               coalesce(a.access_q, 0) AS access_q
        FROM docs d LEFT JOIN a USING (doc_id)
    """

    # --- streetview GVI: sample → dedup → semi-join → nearest image →
    #     closed-form stripe segmentation → per-PoI rollup ---
    H, W = 96, 192
    flat_tot = H * W
    pano_h = int(H * 0.8)
    pano_w = W + W // 4
    green_rows = int(H * 0.75)
    # network sampling + final rollup are shared by the point-PoI and
    # polygon-PoI streetview gates — only the ppair membership CTE
    # (point∈buffer vs point∈dilated-rect) differs
    sv_net = f"""
        nodes AS (SELECT node_id, x, y FROM read_parquet({nodes_pq})),
        ec AS (
          SELECT n1.x AS ax, n1.y AS ay, n2.x AS bx, n2.y AS by, e.length
          FROM read_parquet({edges_pq}) e
          JOIN nodes n1 ON n1.node_id = e.u
          JOIN nodes n2 ON n2.node_id = e.v
        ),
        steps AS (SELECT i FROM range(0, 300, 50) t(i)),
        raw AS (
          -- range(0, int(len), 50): start included, far end excluded
          SELECT ax + (bx - ax) * (CAST(i AS DOUBLE) / length) AS sp_x,
                 ay + (by - ay) * (CAST(i AS DOUBLE) / length) AS sp_y
          FROM ec JOIN steps ON i < CAST(floor(length) AS BIGINT)
        ),
        pts AS (SELECT DISTINCT sp_x, sp_y FROM raw),"""
    sv_tail = f"""
        spts AS (SELECT DISTINCT sp_x, sp_y FROM ppair),
        ipar AS (
          SELECT image_id, is_panoramic, x, y,
                 CAST(substring(image_id, 5) AS BIGINT) AS num
          FROM read_parquet({feat_pq})
        ),
        istripe AS (
          SELECT image_id, is_panoramic,
                 1 + 2 * (num % 48) AS a,
                 (num * 31) % {W} AS b,
                 30 + (num * 7) % 60 AS th
          FROM ipar
        ),
        cols AS (SELECT i FROM range(0, {pano_w}) c(i)),
        gcount AS (
          SELECT s.image_id,
                 sum(CASE WHEN ((c.i % {W}) * s.a + s.b) % {W} < s.th
                          AND c.i < {W} THEN 1 ELSE 0 END) AS g192,
                 sum(CASE WHEN ((c.i % {W}) * s.a + s.b) % {W} < s.th
                          THEN 1 ELSE 0 END) AS g240
          FROM istripe s CROSS JOIN cols c
          GROUP BY s.image_id
        ),
        igvi AS (
          SELECT s.image_id, s.is_panoramic, i.x, i.y,
                 CASE WHEN s.is_panoramic
                      THEN CAST({green_rows} * g.g240 AS DOUBLE)
                           / {pano_h * pano_w}
                      ELSE CAST({green_rows} * g.g192 AS DOUBLE)
                           / {flat_tot} END AS gvi
          FROM istripe s
          JOIN gcount g ON g.image_id = s.image_id
          JOIN ipar i ON i.image_id = s.image_id
        ),
        pfeat AS (
          SELECT p.sp_x, p.sp_y, f.gvi,
                 row_number() OVER (
                   PARTITION BY p.sp_x, p.sp_y
                   ORDER BY (p.sp_x - f.x) * (p.sp_x - f.x)
                          + (p.sp_y - f.y) * (p.sp_y - f.y) ASC,
                            f.image_id ASC
                 ) AS rn
          FROM spts p JOIN igvi f
            ON f.x >= p.sp_x - 100.0 AND f.x <= p.sp_x + 100.0
           AND f.y >= p.sp_y - 100.0 AND f.y <= p.sp_y + 100.0
          WHERE sqrt((p.sp_x - f.x) * (p.sp_x - f.x)
                   + (p.sp_y - f.y) * (p.sp_y - f.y)) <= 100.0
        ),
        nf AS (SELECT sp_x, sp_y, gvi FROM pfeat WHERE rn = 1),
        pairs AS (
          SELECT pp.doc_id, nf.gvi
          FROM ppair pp LEFT JOIN nf
            ON nf.sp_x = pp.sp_x AND nf.sp_y = pp.sp_y
        )
        -- round_even: the stripe-segmentation GVIs are exact rationals
        -- (k/256 etc.) that DO land on .0005 boundaries — np.round is
        -- banker's, DuckDB round() is half-away
        SELECT doc_id, round_even(avg(gvi), 3) AS "GVI",
               CAST(count(gvi) AS BIGINT) AS nr_of_points
        FROM pairs GROUP BY doc_id
    """
    sv_ppair_point = """
        -- (point, poi) containment pairs ONCE via a bbox range join
        -- (IEJoin-able — correlated EXISTS/LATERAL would nested-loop),
        -- reused for both the semi filter and the rollup explode
        ppair AS (
          SELECT p.sp_x, p.sp_y, d.doc_id
          FROM pts p JOIN docs d
            ON p.sp_x >= d.x - 100.0 AND p.sp_x <= d.x + 100.0
           AND p.sp_y >= d.y - 100.0 AND p.sp_y <= d.y + 100.0
          WHERE sqrt((p.sp_x - d.x) * (p.sp_x - d.x)
                   + (p.sp_y - d.y) * (p.sp_y - d.y)) <= 100.0
        ),"""
    streetview_sql = "WITH " + wdocs() + "," + sv_net + sv_ppair_point + sv_tail
    # crop_by_road_centres=False: the four central-band quarter crops
    # cover ALL stripe rows and ALL 192 columns of the unwidened
    # panorama, so the pano GVI collapses to the green-column fraction
    # g192/192 (verified equal to SegmentationGVI._gvi_pano_quarters)
    _pano_expr = (f"CAST({green_rows} * g.g240 AS DOUBLE)\n"
                  f"                           / {pano_h * pano_w}")
    assert _pano_expr in sv_tail
    sv_tail_quarters = sv_tail.replace(
        _pano_expr, "CAST(g.g192 AS DOUBLE) / 192.0")
    streetview_quarters_sql = ("WITH " + wdocs() + "," + sv_net
                               + sv_ppair_point + sv_tail_quarters)

    # --- viewshed GVI: exact pixel tables + embedded kernel rays ---
    px = synth.write_pixel_tables(root, bands=("dsm", "dtm", "green",
                                               "ndvi", "lulc"))
    rays_vals, wgt_vals = _viewshed_tables()
    vs_pois = int(os.environ.get("GREENEX_VIEWSHED_POIS", "300"))
    cand_d2 = _seg_d2("d.x", "d.y", "e.ax", "e.ay", "e.bx", "e.by")
    # network CTEs + the sample-expansion/kernel tail are shared by the
    # point-PoI and polygon-PoI viewshed gates — only the cand edge
    # predicate (seg within 100 m of point vs seg intersects rect) differs
    vs_net = f"""
        nodes AS (SELECT node_id, x, y FROM read_parquet({nodes_pq})),
        ec AS (
          SELECT n1.x AS ax, n1.y AS ay, n2.x AS bx, n2.y AS by, e.length
          FROM read_parquet({edges_pq}) e
          JOIN nodes n1 ON n1.node_id = e.u
          JOIN nodes n2 ON n2.node_id = e.v
        ),"""
    vs_tail = f"""
        nof AS (
          -- visibility.py:584: n = int(L / sample_dist) + 1; short edges
          -- contribute their midpoint only
          SELECT *, CASE WHEN length < 50.0 THEN 1
                         ELSE CAST(floor(length / 50.0) AS BIGINT) + 1 END AS n
          FROM cand
        ),
        posn AS (SELECT i FROM range(0, 16) t(i)),
        sp AS (
          SELECT row_number() OVER () AS pid, doc_id,
                 CASE WHEN n = 1 THEN (ax + bx) / 2.0
                      WHEN i = n - 1 THEN ax + (bx - ax) * 1.0
                      ELSE ax + (bx - ax)
                           * (CAST(i AS DOUBLE) * (1.0 / CAST(n - 1 AS DOUBLE)))
                      END AS sx,
                 CASE WHEN n = 1 THEN (ay + by) / 2.0
                      WHEN i = n - 1 THEN ay + (by - ay) * 1.0
                      ELSE ay + (by - ay)
                           * (CAST(i AS DOUBLE) * (1.0 / CAST(n - 1 AS DOUBLE)))
                      END AS sy
          FROM nof JOIN posn ON posn.i < nof.n
        ),
        spc AS (SELECT pid, doc_id,
                       CAST(floor(sy / 10.0) AS BIGINT) AS r0,
                       CAST(floor(sx / 10.0) AS BIGINT) AS c0 FROM sp),
        rays(ray, step, dr, dc) AS (VALUES {rays_vals}),
        wgt(wdr, wdc, w) AS (VALUES {wgt_vals}),
        h0 AS (
          -- the reference's argument swap (visibility.py:475/481):
          -- observer height += RESOLUTION, slope denominator uses 1.7
          SELECT s.pid, s.doc_id, s.r0, s.c0, t.v + 10.0 AS h0
          FROM spc s JOIN read_parquet('{px["dtm"]}') t
            ON t.r = s.r0 AND t.c = s.c0
        ),
        -- per-point dense DSM window FIRST (range join, small build),
        -- THEN the small rays table by (dr, dc) equality: keeps every
        -- hash build side tiny (a rays×points cross product as a build
        -- side was a multi-GB hash table)
        pwin AS (
          SELECT h.pid, h.h0, p.r - h.r0 AS dr, p.c - h.c0 AS dc, p.v
          FROM h0 h JOIN read_parquet('{px["dsm"]}') p
            ON p.r >= h.r0 - 25 AND p.r <= h.r0 + 25
           AND p.c >= h.c0 - 25 AND p.c <= h.c0 + 25
        ),
        cur AS (
          SELECT w.pid, r.ray, r.step, r.dr, r.dc,
                 (w.v - w.h0)
                 / (sqrt(CAST(r.dr * r.dr + r.dc * r.dc AS DOUBLE)) * 1.7) AS cur
          FROM pwin w JOIN rays r ON r.dr = w.dr AND r.dc = w.dc
        ),
        vispix AS (
          -- strict running-max line of sight (visibility.py:516-519);
          -- out-of-world pixels are simply absent (== -inf dydx)
          SELECT DISTINCT pid, dr, dc FROM (
            SELECT pid, ray, step, dr, dc, cur,
                   greatest(coalesce(max(cur) OVER (
                     PARTITION BY pid, ray ORDER BY step
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0.0),
                     0.0) AS pmax
            FROM cur) WHERE cur > pmax
          UNION
          SELECT pid, 0, 0 FROM spc
        ),
        gwin AS (
          SELECT s.pid, g.r - s.r0 AS dr, g.c - s.c0 AS dc, g.v
          FROM spc s JOIN read_parquet('{px["green"]}') g
            ON g.r >= s.r0 - 25 AND g.r <= s.r0 + 24
           AND g.c >= s.c0 - 25 AND g.c <= s.c0 + 24
        ),
        terms AS (
          SELECT v.pid, w.w, g.v AS green
          FROM vispix v
          JOIN wgt w ON w.wdr = v.dr AND w.wdc = v.dc
          JOIN gwin g ON g.pid = v.pid AND g.dr = v.dr AND g.dc = v.dc
        ),
        pgvi AS (SELECT pid, sum(w * w * green) / sum(w) AS g
                 FROM terms GROUP BY pid)
    """
    # rollup kept separate so composite_exposure can wrap it as a CTE
    vs_rollup = """
        SELECT s.doc_id, round(avg(p.g), 3) AS "GVI",
               CAST(count(*) AS BIGINT) AS nr_of_points
        FROM spc s JOIN pgvi p USING (pid)
        GROUP BY s.doc_id
    """
    vs_cand = f"""
        cand AS (
          SELECT d.doc_id, e.ax, e.ay, e.bx, e.by, e.length
          FROM docs d JOIN ec e ON {cand_d2} <= 10000.0
        ),"""
    viewshed_sql = ("WITH " + wdocs(vs_pois) + "," + vs_net + vs_cand
                    + vs_tail + vs_rollup)

    # --- focal stats: 3x3 moving-window aggregate, 9-offset equi-join
    # over the exact pixel table, values quantized BEFORE the sum with
    # the engine's identical floor(v*1e6 + 0.5) expression ------------
    focal_sql = f"""
        WITH px AS (SELECT r, c,
                      CAST(floor(v * 1000000.0 + 0.5) AS BIGINT) AS q
                    FROM read_parquet('{px["ndvi"]}')),
        ctr AS (SELECT r, c FROM px WHERE r < 512 AND c < 512),
        -- neighbor keys computed BEFORE the join: the three-way form
        -- (ctr x offs joined to px on ctr.r + o.dr) nested-loops
        cof AS (SELECT ctr.r, ctr.c, ctr.r + o.dr AS nr,
                       ctr.c + o.dc AS nc
                FROM ctr JOIN (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),
                                      (0,0),(0,1),(1,-1),(1,0),(1,1))
                     o(dr, dc) ON TRUE),
        nb AS (SELECT cof.r, cof.c, p.q
               FROM cof JOIN px p ON p.r = cof.nr AND p.c = cof.nc)
        SELECT CAST(floor(CAST(c AS DOUBLE) / 256.0) AS BIGINT) AS tix,
               CAST(floor(CAST(r AS DOUBLE) / 256.0) AS BIGINT) AS tiy,
               CAST(sum(q) AS BIGINT) AS focal_q,
               CAST(count(*) AS BIGINT) AS n_nbr
        FROM nb GROUP BY 1, 2
    """

    # --- zonal median: quantize-then-median over the exact pixel
    # table — the disk membership replays _PIX_BODY's center test,
    # values come from the px table (not the closed form: a last-ulp
    # libm sin/cos difference would flip the 1e-6 quantization) ------
    zonal_median_sql = ("WITH " + wdocs(COMPOSITE_POIS) + f""",
        pxq AS (SELECT r, c, (c * 10.0 + 5.0) AS cx,
                       (r * 10.0 + 5.0) AS cy,
                       CAST(floor(greatest(v, 0.0) * 1000000.0 + 0.5)
                            AS BIGINT) AS vq
                FROM read_parquet('{px["ndvi"]}')),
        m AS (
          SELECT d.doc_id, p.vq
          FROM docs d JOIN pxq p
            ON p.c >= floor((d.x - {NDVI_RADIUS!r}) / 10.0)
           AND p.c <= floor((d.x + {NDVI_RADIUS!r}) / 10.0)
           AND p.r >= floor((d.y - {NDVI_RADIUS!r}) / 10.0)
           AND p.r <= floor((d.y + {NDVI_RADIUS!r}) / 10.0)
          WHERE (p.cx - d.x) * (p.cx - d.x)
              + (p.cy - d.y) * (p.cy - d.y)
             <= {NDVI_RADIUS!r} * {NDVI_RADIUS!r})
        SELECT doc_id, quantile_cont(vq, 0.5) AS median_q,
               CAST(count(*) AS BIGINT) AS n_pix
        FROM m GROUP BY doc_id
    """)

    # --- raster downsample: 2x2 pool sums over the exact pixel table
    downsample_sql = f"""
        WITH pxq AS (SELECT r, c,
                       CAST(floor(v * 1000000.0 + 0.5) AS BIGINT) AS vq
                     FROM read_parquet('{px["ndvi"]}')
                     WHERE r < 512 AND c < 512),
        g AS (SELECT CAST(floor(CAST(r AS DOUBLE) / 2.0) AS BIGINT)
                       AS r_out,
                     CAST(floor(CAST(c AS DOUBLE) / 2.0) AS BIGINT)
                       AS c_out,
                     vq FROM pxq)
        SELECT r_out, c_out, CAST(sum(vq) AS BIGINT) AS pool_q,
               CAST(count(*) AS BIGINT) AS n_in
        FROM g GROUP BY 1, 2
    """

    # --- marching-squares contour census over the exact pixel table:
    # 2x2 cells via three self-equi-joins on shifted keys; the saddle
    # cases (6, 9) emit two segments.  Tile (7,7) sits at the world
    # corner: its right/bottom halo pixels are absent, so its cell
    # count is (px-1)^2 via the inner joins — same as the engine's
    # finite mask. -----------------------------------------------------
    contour_sql = f"""
        WITH pxb AS (SELECT r, c, (v > 0.3) AS b
                     FROM read_parquet('{px["ndvi"]}')
                     WHERE (r < 513 AND c < 513)
                        OR (r >= {7 * synth.TILE_PX} AND c >= {7 * synth.TILE_PX})),
        cells AS (
          SELECT a.r, a.c,
                 (CASE WHEN a.b THEN 1 ELSE 0 END
                  + CASE WHEN br.b THEN 2 ELSE 0 END
                  + CASE WHEN bb.b THEN 4 ELSE 0 END
                  + CASE WHEN bd.b THEN 8 ELSE 0 END) AS cs
          FROM pxb a
          JOIN pxb br ON br.r = a.r AND br.c = a.c + 1
          JOIN pxb bb ON bb.r = a.r + 1 AND bb.c = a.c
          JOIN pxb bd ON bd.r = a.r + 1 AND bd.c = a.c + 1),
        lab AS (
          SELECT CAST(floor(CAST(c AS DOUBLE) / 256.0) AS BIGINT) AS tix,
                 CAST(floor(CAST(r AS DOUBLE) / 256.0) AS BIGINT) AS tiy,
                 cs FROM cells)
        SELECT tix, tiy,
               CAST(count(*) AS BIGINT) AS n_cells,
               CAST(sum(CASE WHEN cs NOT IN (0, 15) THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_contour,
               CAST(sum(CASE WHEN cs IN (6, 9) THEN 2
                             WHEN cs NOT IN (0, 15) THEN 1
                             ELSE 0 END) AS BIGINT) AS n_segments
        FROM lab GROUP BY tix, tiy
    """

    # --- composite exposure: the reference README's worked-example
    # sequence (availability + accessibility + visibility over ONE PoI
    # table) as a single query — zonal chain, nearest-centroid chain and
    # the full viewshed chain share the same limited docs CTE, joined
    # back onto the span payload (inner joins: every limited doc has
    # all three metrics in the synthetic world) -----------------------
    composite_sql = (
        "WITH " + wdocs(COMPOSITE_POIS) + ","
        + _PIX_BODY.format(r=NDVI_RADIUS) + f"""
        , vals AS (SELECT doc_id, greatest({_NDVI_SQL}, 0.0) AS v FROM pix)
        , m AS (
          SELECT doc_id,
                 round(avg(v), 3) AS mean_NDVI,
                 round(sqrt(greatest(avg(v*v) - avg(v)*avg(v), 0.0)), 3) AS std_NDVI
          FROM vals GROUP BY doc_id
        ),
        cent AS (SELECT gs_id, (x0 + x1) / 2.0 AS cx, (y0 + y1) / 2.0 AS cy
                 FROM read_parquet({gs_pq})),
        kd AS (
          SELECT doc_id, gs_id,
                 sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) AS rawd,
                 row_number() OVER (
                   PARTITION BY doc_id
                   ORDER BY sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy))
                            ASC, gs_id ASC) AS rn
          FROM docs CROSS JOIN cent
        ),
        k AS (
          SELECT doc_id,
                 CASE WHEN round(rawd, 0) <= {KNN_TARGET} THEN round(rawd, 0)
                      ELSE {KNN_TARGET} END AS distance_to_greenspace,
                 round(rawd, 0) <= {KNN_TARGET} AS greenspace_within_target,
                 gs_id AS nearest_gs_id
          FROM kd WHERE rn = 1
        ),"""
        + vs_net + vs_cand + vs_tail + f""",
        v AS ({vs_rollup})
        SELECT d.doc_id, m.mean_NDVI, m.std_NDVI,
               k.distance_to_greenspace, k.greenspace_within_target,
               k.nearest_gs_id, v."GVI", v.nr_of_points,
               to_json(dsrc.spans) AS spans_json
        FROM docs d
        JOIN m USING (doc_id)
        JOIN k USING (doc_id)
        JOIN v USING (doc_id)
        JOIN read_parquet('{glob}') dsrc USING (doc_id)
    """)

    # --- isochrone NDVI: bounded Dijkstra + capsule mask + BFS holes ---
    # the prefix (through `inside`) is shared by the three isochrone
    # gates (NDVI stats / landcover % / greenspace coverage) — one CTE
    # chain, three different consumers of the hole-filled AoI pixels
    pix_d2 = _seg_d2("((p.c + 0.5) * 10.0)", "((p.r + 0.5) * 10.0)",
                     "e.ax", "e.ay", "e.bx", "e.by")
    iso_prefix = f"""
        WITH RECURSIVE {wdocs(200)},
        nodes AS (SELECT node_id, x, y FROM read_parquet({nodes_pq})),
        eboth AS (
          SELECT u, v, length FROM read_parquet({edges_pq})
          UNION ALL
          SELECT v, u, length FROM read_parquet({edges_pq})
        ),
        nn AS (
          SELECT doc_id, node_id AS src FROM (
            SELECT d.doc_id, n.node_id,
                   row_number() OVER (
                     PARTITION BY d.doc_id
                     ORDER BY (d.x - n.x) * (d.x - n.x)
                            + (d.y - n.y) * (d.y - n.y) ASC, n.node_id ASC
                   ) AS rn
            FROM docs d CROSS JOIN nodes n) WHERE rn = 1
        ),
        srcs AS (SELECT DISTINCT src FROM nn),
        walk(src, node, dist) AS (
          SELECT src, src, CAST(0.0 AS DOUBLE) FROM srcs
          UNION
          SELECT w.src, e.v, w.dist + e.length
          FROM walk w JOIN eboth e ON e.u = w.node
          WHERE w.dist + e.length <= 500.0
        ),
        reach AS (SELECT DISTINCT src, node FROM walk),
        ego_e AS (
          SELECT r1.src, n1.x AS ax, n1.y AS ay, n2.x AS bx, n2.y AS by
          FROM read_parquet({edges_pq}) e
          JOIN reach r1 ON r1.node = e.u
          JOIN reach r2 ON r2.src = r1.src AND r2.node = e.v
          JOIN nodes n1 ON n1.node_id = e.u
          JOIN nodes n2 ON n2.node_id = e.v
        ),
        win AS (
          SELECT src,
                 CAST(floor((min(least(ax, bx)) - 25.0) / 10.0) AS BIGINT) AS c0,
                 CAST(floor((max(greatest(ax, bx)) + 25.0) / 10.0) AS BIGINT) AS c1,
                 CAST(floor((min(least(ay, by)) - 25.0) / 10.0) AS BIGINT) AS r0,
                 CAST(floor((max(greatest(ay, by)) + 25.0) / 10.0) AS BIGINT) AS r1
          FROM ego_e GROUP BY src
        ),
        span AS (SELECT i FROM range(0, 256) t(i)),
        pix AS (
          SELECT w.src, (w.r0 + ri.i) AS r, (w.c0 + ci.i) AS c,
                 w.r0 AS wr0, w.r1 AS wr1, w.c0 AS wc0, w.c1 AS wc1
          FROM win w
          JOIN span ri ON ri.i <= w.r1 - w.r0
          JOIN span ci ON ci.i <= w.c1 - w.c0
        ),
        mrows AS (
          -- capsule-mask pixels via an equality-on-src join (a
          -- correlated EXISTS would nested-loop per pixel); the bbox
          -- comparisons short-circuit the quadratic distance form on
          -- the vast majority of (pixel, edge) pairs
          SELECT DISTINCT p.src, p.r, p.c
          FROM pix p JOIN ego_e e ON e.src = p.src
          WHERE ((p.c + 0.5) * 10.0) >= least(e.ax, e.bx) - 25.0
            AND ((p.c + 0.5) * 10.0) <= greatest(e.ax, e.bx) + 25.0
            AND ((p.r + 0.5) * 10.0) >= least(e.ay, e.by) - 25.0
            AND ((p.r + 0.5) * 10.0) <= greatest(e.ay, e.by) + 25.0
            AND {pix_d2} <= 625.0
        ),
        pixm AS (
          SELECT p.src, p.r, p.c, p.wr0, p.wr1, p.wc0, p.wc1,
                 (m.r IS NOT NULL) AS mask
          FROM pix p LEFT JOIN mrows m
            ON m.src = p.src AND m.r = p.r AND m.c = p.c
        ),
        -- hole fill at RUN granularity: BFS over per-row intervals of
        -- consecutive non-mask pixels (two runs in adjacent rows are
        -- 4-connected iff their column intervals overlap).  A per-pixel
        -- BFS recursed over millions of rows for ~100 frontier steps;
        -- runs cut the recursion working set by ~100x.
        runs AS (
          SELECT src, r, min(c) AS lo, max(c) AS hi,
                 any_value(wr0) AS wr0, any_value(wr1) AS wr1,
                 any_value(wc0) AS wc0, any_value(wc1) AS wc1
          FROM (
            SELECT src, r, c, wr0, wr1, wc0, wc1,
                   c - row_number() OVER (
                     PARTITION BY src, r ORDER BY c) AS grp
            FROM pixm WHERE NOT mask)
          GROUP BY src, r, grp
        ),
        outside(src, r, lo, hi) AS (
          SELECT src, r, lo, hi FROM runs
          WHERE r = wr0 OR r = wr1 OR lo = wc0 OR hi = wc1
          UNION
          SELECT ru.src, ru.r, ru.lo, ru.hi
          FROM outside o JOIN runs ru
            ON ru.src = o.src AND (ru.r = o.r + 1 OR ru.r = o.r - 1)
           AND ru.lo <= o.hi AND ru.hi >= o.lo
        ),
        inside AS (
          -- mask pixels + enclosed (non-outside) runs; anti join, not
          -- EXCEPT: DuckDB rejects other setops inside WITH RECURSIVE
          SELECT src, r, c FROM pixm WHERE mask
          UNION ALL
          SELECT p.src, p.r, p.c FROM pixm p
          LEFT JOIN outside o ON o.src = p.src AND o.r = p.r
                             AND p.c >= o.lo AND p.c <= o.hi
          WHERE NOT p.mask AND o.src IS NULL
        )
    """
    iso_sql = iso_prefix + f""",
        vals AS (
          SELECT i.src, greatest(n.v, 0.0) AS v
          FROM inside i JOIN read_parquet('{px["ndvi"]}') n
            ON n.r = i.r AND n.c = i.c
        ),
        stats AS (
          SELECT src, round(avg(v), 3) AS mean_NDVI,
                 round(sqrt(greatest(avg(v * v) - avg(v) * avg(v), 0.0)), 3)
                   AS std_NDVI
          FROM vals GROUP BY src
        )
        SELECT d.doc_id, s.mean_NDVI, s.std_NDVI
        FROM docs d JOIN nn ON nn.doc_id = d.doc_id
        LEFT JOIN stats s ON s.src = nn.src
    """

    # --- isochrone landcover: per-class pixel % inside the AoI ---
    # round_even mirrors np.round (banker's); the arithmetic order
    # (sum / count, THEN * 100.0) mirrors the engine's
    # counts / vals.size * 100.0 bit-for-bit
    lc_cases = ", ".join(
        f"round_even(sum(CASE WHEN cls = {cls} THEN 1 ELSE 0 END)"
        f" / count(*) * 100.0, 3) AS {name}"
        for cls, name in ((10, "pct_tree"), (30, "pct_grass"),
                          (40, "pct_crop"), (50, "pct_builtup"),
                          (60, "pct_bare"), (80, "pct_water")))
    isolc_sql = iso_prefix + f""",
        lvals AS (
          SELECT i.src, n.v AS cls
          FROM inside i JOIN read_parquet('{px["lulc"]}') n
            ON n.r = i.r AND n.c = i.c
        ),
        lstats AS (SELECT src, {lc_cases} FROM lvals GROUP BY src)
        SELECT d.doc_id, s.pct_tree, s.pct_grass, s.pct_crop,
               s.pct_builtup, s.pct_bare, s.pct_water
        FROM docs d JOIN nn ON nn.doc_id = d.doc_id
        LEFT JOIN lstats s ON s.src = nn.src
    """

    # --- isochrone greenspace coverage: % of AoI pixel centers inside
    #     ANY greenspace rect (dissolve/union semantics) ---
    isogs_sql = iso_prefix + f""",
        tot AS (SELECT src, count(*) AS t FROM inside GROUP BY src),
        ghit AS (
          SELECT DISTINCT i.src, i.r, i.c
          FROM inside i JOIN read_parquet({gs_pq}) g
            ON ((i.c + 0.5) * 10.0) >= g.x0 AND ((i.c + 0.5) * 10.0) <= g.x1
           AND ((i.r + 0.5) * 10.0) >= g.y0 AND ((i.r + 0.5) * 10.0) <= g.y1
        ),
        cov AS (SELECT src, count(*) AS cv FROM ghit GROUP BY src),
        gstats AS (
          SELECT t.src,
                 round_even(CAST(coalesce(c.cv, 0) AS DOUBLE) / t.t
                            * 100.0, 2) AS greenspace_cover
          FROM tot t LEFT JOIN cov c ON c.src = t.src
        )
        SELECT d.doc_id, s.greenspace_cover
        FROM docs d JOIN nn ON nn.doc_id = d.doc_id
        LEFT JOIN gstats s ON s.src = nn.src
    """

    # --- polygon-PoI gates: rect AoIs derived from the doc key -------
    # rect bounds recompute the engine's binary64 arithmetic exactly
    # (_world_rect_poly_docs); pixel lattice/NDVI/landcover closed forms
    # are the same as the point-buffer oracles
    def rdocs(limit: int) -> str:
        hw = f"({_POLY_HW[0]!r} + {_POLY_HW[1]!r} * (CAST(substr(doc_id, 5) AS BIGINT) % {_POLY_HW[2]}))"
        hh = f"({_POLY_HH[0]!r} + {_POLY_HH[1]!r} * (CAST(substr(doc_id, 5) AS BIGINT) % {_POLY_HH[2]}))"
        return wdocs(limit) + f""",
        rect AS (
          SELECT doc_id, x - {hw} AS x0, y - {hh} AS y0,
                 x + {hw} AS x1, y + {hh} AS y1
          FROM docs
        )"""

    def rect_pix(d: float) -> str:
        """Pixel-center membership in the rect dilated by ``d`` — the
        SQL twin of ``geom.points_within_rings_dist`` (interior test,
        else min point→edge-segment distance term-for-term via
        ``_seg_d2``)."""
        inside = "px > x0 AND px < x1 AND py > y0 AND py < y1"
        if d > 0:
            segs = [("x0", "y0", "x1", "y0"), ("x1", "y0", "x1", "y1"),
                    ("x1", "y1", "x0", "y1"), ("x0", "y1", "x0", "y0")]
            d2 = ", ".join(_seg_d2("px", "py", *s) for s in segs)
            member = f"(({inside}) OR sqrt(least({d2})) <= {d!r})"
        else:
            member = inside
        return f""",
        pixidx AS (SELECT i AS idx FROM range(0, {_NPIX} + 1) t(i)),
        pixcand AS (
          SELECT r.doc_id, (gx.idx * 10.0 + 5.0) AS px,
                 (gy.idx * 10.0 + 5.0) AS py, r.x0, r.y0, r.x1, r.y1
          FROM rect r
          JOIN pixidx gx ON gx.idx >= floor((r.x0 - {d!r}) / 10.0)
                        AND gx.idx <= floor((r.x1 + {d!r}) / 10.0)
          JOIN pixidx gy ON gy.idx >= floor((r.y0 - {d!r}) / 10.0)
                        AND gy.idx <= floor((r.y1 + {d!r}) / 10.0)
        ),
        pix AS (SELECT * FROM pixcand WHERE {member})"""

    def poly_zonal_sql(d: float) -> str:
        return "WITH " + rdocs(400) + rect_pix(d) + f""",
        vals AS (SELECT doc_id, greatest({_NDVI_SQL}, 0.0) AS v FROM pix)
        SELECT doc_id,
               round_even(avg(v), 3) AS mean_NDVI,
               round_even(sqrt(greatest(avg(v*v) - avg(v)*avg(v), 0.0)), 3)
                   AS std_NDVI
        FROM vals GROUP BY doc_id
    """

    poly_lc_cases = ", ".join(
        f"round_even(sum(CASE WHEN cls = {cls} THEN 1 ELSE 0 END)"
        f" / count(*) * 100.0, 3) AS {name}"
        for cls, name in ((10, "pct_tree"), (30, "pct_grass"),
                          (40, "pct_crop"), (50, "pct_builtup"),
                          (60, "pct_bare"), (80, "pct_water")))
    poly_lc_sql = "WITH " + rdocs(400) + rect_pix(0.0) + f""",
        vals AS (SELECT doc_id, {_LULC_SQL} AS cls FROM pix)
        SELECT doc_id, {poly_lc_cases} FROM vals GROUP BY doc_id
    """

    # exact clip-area sum (dissolve=False: overlapping canopy rects
    # double-count, matching the reference's per-polygon clip sum)
    poly_canopy_sql = "WITH " + rdocs(400) + f""",
        clip AS (
          SELECT r.doc_id,
                 (least(c.x1, r.x1) - greatest(c.x0, r.x0))
               * (least(c.y1, r.y1) - greatest(c.y0, r.y0)) AS a
          FROM rect r JOIN read_parquet({can_pq}) c
            ON c.x0 < r.x1 AND c.x1 > r.x0
           AND c.y0 < r.y1 AND c.y1 > r.y0
        ),
        s AS (SELECT doc_id, sum(a) AS a FROM clip GROUP BY doc_id)
        SELECT r.doc_id,
               round_even(coalesce(s.a, 0.0)
                          / ((r.x1 - r.x0) * (r.y1 - r.y0)) * 100.0, 2)
                   AS canopy_cover
        FROM rect r LEFT JOIN s USING (doc_id)
    """

    # dilated AoI at pixel-center resolution: covered = Σ over canopy
    # rects of AoI-pixels inside (per-polygon double count)
    poly_canopy_buf_sql = ("WITH " + rdocs(400)
                           + rect_pix(POLY_DILATE) + f""",
        tot AS (SELECT doc_id, count(*) AS t FROM pix GROUP BY doc_id),
        hits AS (
          SELECT p.doc_id, count(*) AS h
          FROM pix p JOIN read_parquet({can_pq}) c
            ON p.px > c.x0 AND p.px < c.x1
           AND p.py > c.y0 AND p.py < c.y1
          GROUP BY p.doc_id
        )
        SELECT t.doc_id,
               round_even(CAST(coalesce(h.h, 0) AS DOUBLE) / t.t * 100.0, 2)
                   AS canopy_cover
        FROM tot t LEFT JOIN hits h USING (doc_id)
    """)

    # dissolved-union semantics: slab-decomposition union area of the
    # clipped greenspace rects per doc (blobs are disjoint, so the
    # engine's per-blob clip sum equals the global union)
    poly_gs_sql = "WITH " + rdocs(400) + f""",
        clip AS (
          SELECT r.doc_id AS grp,
                 greatest(g.x0, r.x0) AS rx0, greatest(g.y0, r.y0) AS ry0,
                 least(g.x1, r.x1) AS rx1, least(g.y1, r.y1) AS ry1
          FROM rect r JOIN read_parquet({gs_pq}) g
            ON g.x0 < r.x1 AND g.x1 > r.x0
           AND g.y0 < r.y1 AND g.y1 > r.y0
        ),{_rect_union_cte("clip", "pg")}
        SELECT r.doc_id,
               round_even(coalesce(u.area, 0.0)
                          / ((r.x1 - r.x0) * (r.y1 - r.y0)) * 100.0, 2)
                   AS greenspace_cover
        FROM rect r LEFT JOIN pg_u u ON u.grp = r.doc_id
    """

    # --- polygon-PoI visibility gates: same shared viewshed/streetview
    # tails, with the cand/ppair membership swapped for the polygon
    # predicates (visibility.py:568-572 edges ∩ own polygon; :653-660
    # points ∈ dilated polygon) -------------------------------------
    def seg_rect_cross(cx0, cy0, cx1, cy1) -> str:
        """Edge(a→b) straddles rect boundary edge(c0→c1) — the exact
        orientation terms of geom.segments_within_rings_dist, incl. the
        collinear-but-disjoint guard (all four orientations 0 needs 1D
        bbox overlap, matching shapely ``intersects``).  Bare column
        names: evaluated over the candbox CTE."""
        o1 = f"((bx - ax) * ({cy0} - ay) - (by - ay) * ({cx0} - ax))"
        o2 = f"((bx - ax) * ({cy1} - ay) - (by - ay) * ({cx1} - ax))"
        o3 = f"(({cx1} - {cx0}) * (ay - {cy0}) - ({cy1} - {cy0}) * (ax - {cx0}))"
        o4 = f"(({cx1} - {cx0}) * (by - {cy0}) - ({cy1} - {cy0}) * (bx - {cx0}))"
        ovl = (f"(least(ax, bx) <= greatest({cx0}, {cx1})"
               f" AND greatest(ax, bx) >= least({cx0}, {cx1})"
               f" AND least(ay, by) <= greatest({cy0}, {cy1})"
               f" AND greatest(ay, by) >= least({cy0}, {cy1}))")
        return (f"({o1} * {o2} <= 0.0 AND {o3} * {o4} <= 0.0"
                f" AND (NOT ({o1} = 0.0 AND {o2} = 0.0) OR {ovl}))")

    rect_segs = [("x0", "y0", "x1", "y0"),
                 ("x1", "y0", "x1", "y1"),
                 ("x1", "y1", "x0", "y1"),
                 ("x0", "y1", "x0", "y0")]
    cross_any = "\n            OR ".join(seg_rect_cross(*s) for s in rect_segs)
    inside_a = "(ax > x0 AND ax < x1 AND ay > y0 AND ay < y1)"
    inside_b = "(bx > x0 AND bx < x1 AND by > y0 AND by < y1)"
    poly_vs_sql = ("WITH " + rdocs(VS_POLY_POIS) + "," + vs_net + f"""
        ebox AS (
          -- edge bbox PREcomputed: inline least/greatest inside the
          -- 4-predicate range join trips a DuckDB internal error
          -- ("requires a flat vector")
          SELECT least(ax, bx) AS exl, greatest(ax, bx) AS exh,
                 least(ay, by) AS eyl, greatest(ay, by) AS eyh, *
          FROM ec
        ),
        candbox AS (
          -- bbox prefilter in the join; the exact straddle predicate
          -- lives in a separate WHERE stage
          SELECT r.doc_id, e.ax, e.ay, e.bx, e.by, e.length,
                 r.x0, r.y0, r.x1, r.y1
          FROM rect r JOIN ebox e
            ON e.exl <= r.x1 AND e.exh >= r.x0
           AND e.eyl <= r.y1 AND e.eyh >= r.y0
        ),
        cand AS (
          -- edge intersects the row's own rect (buffer_dist=None):
          -- endpoint inside, or straddle vs any boundary edge
          SELECT doc_id, ax, ay, bx, by, length FROM candbox
          WHERE ({inside_a} OR {inside_b}
            OR {cross_any})
        ),""" + vs_tail + vs_rollup)

    pd2 = ", ".join(_seg_d2("p.sp_x", "p.sp_y", *s) for s in rect_segs)
    sv_member = (f"((p.sp_x > r.x0 AND p.sp_x < r.x1 AND p.sp_y > r.y0 "
                 f"AND p.sp_y < r.y1) OR sqrt(least({pd2})) <= {POLY_DILATE!r})")
    poly_sv_sql = ("WITH " + rdocs(400) + "," + sv_net + f"""
        ppair AS (
          -- sample point ∈ rect dilated by POLY_DILATE (interior test,
          -- else min point→boundary-segment distance)
          SELECT p.sp_x, p.sp_y, r.doc_id
          FROM pts p JOIN rect r
            ON p.sp_x >= r.x0 - {POLY_DILATE!r} AND p.sp_x <= r.x1 + {POLY_DILATE!r}
           AND p.sp_y >= r.y0 - {POLY_DILATE!r} AND p.sp_y <= r.y1 + {POLY_DILATE!r}
          WHERE {sv_member}
        ),""" + sv_tail)

    # --- D3: undirected edge dedup (same reversed-copy construction as
    # q_dedup_undirected_edges; DuckDB DISTINCT == bucket_dedup) -------
    undirected_sql = f"""
        WITH e AS (SELECT u, v FROM read_parquet({edges_pq})),
             dup AS (SELECT u, v FROM e
                     UNION ALL
                     SELECT v AS u, u AS v FROM e WHERE u % 3 = 0)
        SELECT DISTINCT least(u, v) AS u, greatest(u, v) AS v FROM dup
    """

    # --- S8: regrid oracle — replicates geoproj.transform's
    # 3857→(WGS84 hub)→3395 path in SQL (WebMercator.inverse, rad↔deg
    # round trip, mercator_forward with atanh expanded to
    # 0.5*ln((1+s)/(1-s))), floors to the source pixel lattice and
    # recomputes the NDVI closed form at that pixel's center.  The
    # ≤1-ulp SQL/libm divergence is absorbed by the pixel floor (target
    # centers never land on source pixel boundaries) and the value
    # rounding. -------------------------------------------------------
    from .. import geoproj as _gp

    _ts = synth.TILE_SIZE
    _rtix0 = int(np.floor(REGRID_BBOX[0] / _ts))
    _rtix1 = int(np.floor(REGRID_BBOX[2] / _ts))
    _rtiy0 = int(np.floor(REGRID_BBOX[1] / _ts))
    _rtiy1 = int(np.floor(REGRID_BBOX[3] / _ts))
    _npx = int(np.ceil(synth.WORLD / _ts)) * synth.TILE_PX
    _A_ = repr(float(_gp._A))
    _E_ = repr(float(_gp._E))
    regrid_sql = f"""
        WITH tgt AS (
          SELECT c.i AS col, r.i AS row
          FROM range({_rtix0 * synth.TILE_PX}, {(_rtix1 + 1) * synth.TILE_PX}) c(i)
          CROSS JOIN range({_rtiy0 * synth.TILE_PX}, {(_rtiy1 + 1) * synth.TILE_PX}) r(i)
          WHERE (c.i + r.i) % 7 = 0
        ),
        proj AS (
          SELECT col, row,
                 {_A_} * radians(degrees(((col + 0.5) * 10.0) / {_A_})) AS sx,
                 sin(radians(degrees(
                     2.0 * atan(exp(((row + 0.5) * 10.0) / {_A_}))
                     - pi() / 2.0))) AS s
          FROM tgt
        ),
        merc AS (
          SELECT col, row, sx,
                 {_A_} * (0.5 * ln((1.0 + s) / (1.0 - s))
                          - {_E_} * 0.5 * ln((1.0 + {_E_} * s)
                                             / (1.0 - {_E_} * s))) AS sy
          FROM proj
        ),
        srcpix AS (
          SELECT col, row,
                 CAST(floor(sx / 10.0) AS BIGINT) AS scol,
                 CAST(floor(sy / 10.0) AS BIGINT) AS srow
          FROM merc
          WHERE floor(sx / 10.0) >= 0 AND floor(sx / 10.0) < {_npx}
            AND floor(sy / 10.0) >= 0 AND floor(sy / 10.0) < {_npx}
        )
        SELECT col, row,
               round(0.45 * sin(px * 0.00123) * cos(py * 0.00117)
                     + 0.30 * sin((px + py) * 0.00071) + 0.15, 6) AS val
        FROM (SELECT col, row, scol * 10.0 + 5.0 AS px,
                     srow * 10.0 + 5.0 AS py FROM srcpix)
    """

    # --- M1/M9/M13/A8: per-row kind + bounds-containment validators ---
    # poly rect bounds recompute _world_rect_poly_spans' binary64
    # arithmetic exactly (same hw/hh closed forms as the polygon gates);
    # a polygon is 'within' only when its WHOLE rect is (vertex rule)
    _vhw = (f"({_POLY_HW[0]!r} + {_POLY_HW[1]!r}"
            f" * (CAST(substr(doc_id, 5) AS BIGINT) % {_POLY_HW[2]}))")
    _vhh = (f"({_POLY_HH[0]!r} + {_POLY_HH[1]!r}"
            f" * (CAST(substr(doc_id, 5) AS BIGINT) % {_POLY_HH[2]}))")
    _bx0, _by0, _bx1, _by1 = VAL_BBOX
    validators_sql = f"""
        WITH src AS (
          SELECT doc_id,
                 list_filter(spans, s -> s.kind = 'geom')[1].text AS g
          FROM read_parquet('{glob}')
          WHERE doc_id < 'doc-{VAL_POINT_POIS:012d}'
        ),
        pts AS (
          SELECT doc_id, split_part(g, '(', 1) AS geom_kind,
                 CAST(regexp_extract(g, {pt}, 1) AS DOUBLE) AS x,
                 CAST(regexp_extract(g, {pt}, 2) AS DOUBLE) AS y
          FROM src
        ),
        prect AS (
          SELECT doc_id, x - {_vhw} AS x0, y - {_vhh} AS y0,
                 x + {_vhw} AS x1, y + {_vhh} AS y1
          FROM pts WHERE doc_id < 'doc-{VAL_POLY_POIS:012d}'
        )
        SELECT doc_id, geom_kind,
               (x >= {_bx0!r} AND x <= {_bx1!r}
                AND y >= {_by0!r} AND y <= {_by1!r}) AS within
        FROM pts
        UNION ALL
        SELECT doc_id || '-poly' AS doc_id, 'POLYGON' AS geom_kind,
               (x0 >= {_bx0!r} AND x1 <= {_bx1!r}
                AND y0 >= {_by0!r} AND y1 <= {_by1!r}) AS within
        FROM prect
    """

    return {
        "geometry_validators": validators_sql,
        "dedup_undirected_edges": undirected_sql,
        "regrid_3857": regrid_sql,
        "polygon_viewshed": poly_vs_sql,
        "polygon_streetview": poly_sv_sql,
        "streetview_quarters": streetview_quarters_sql,
        "polygon_ndvi": poly_zonal_sql(0.0),
        "polygon_ndvi_buffered": poly_zonal_sql(POLY_DILATE),
        "polygon_landcover": poly_lc_sql,
        "polygon_canopy": poly_canopy_sql,
        "polygon_canopy_buffered": poly_canopy_buf_sql,
        "polygon_greenspace": poly_gs_sql,
        "spans_mean_ndvi_metrics":
            base + "SELECT doc_id, mean_NDVI, std_NDVI FROM m",
        "spans_mean_ndvi_payload": base + f"""
          SELECT m.doc_id, m.mean_NDVI, m.std_NDVI,
                 to_json(d.spans) AS spans_json
          FROM m JOIN read_parquet('{glob}') d USING (doc_id)
        """,
        "canopy_pct": _coverage_pct_sql(wdocs(500), can_pq, 250.0,
                                        "canopy_cover"),
        "greenspace_pct": _coverage_pct_sql(wdocs(500), gs_pq, 300.0,
                                            "greenspace_cover"),
        "dissolve": dissolve_sql,
        "dissolve_distributed": dissolve_sql,
        "dissolve_min_area":
            f"SELECT * FROM ({dissolve_sql}) WHERE area >= 400000",
        "network_distance": network_sql,
        "od_matrix": od_sql,
        "fca_access": fca_sql,
        "gravity_access": gravity_sql,
        "e2sfca_access": e2_sql,
        "streetview_gvi": streetview_sql,
        "viewshed_gvi": viewshed_sql,
        "composite_exposure": composite_sql,
        "focal_stats": focal_sql,
        "zonal_median": zonal_median_sql,
        "raster_downsample": downsample_sql,
        "contour_census": contour_sql,
        "isochrone_ndvi": iso_sql,
        "isochrone_landcover": isolc_sql,
        "isochrone_greenspace": isogs_sql,
        # media-span asset manifest (stages/multimodal.media_ref_rollup)
        "media_ref_rollup": f"""
          WITH s AS (SELECT doc_id, unnest(spans) AS sp
                     FROM read_parquet('{glob}')),
          m AS (SELECT doc_id,
                  regexp_extract(sp.media_ref,
                                 'tile://([a-z]+)/(\\d+)_(\\d+)', 1) AS band,
                  CAST(regexp_extract(sp.media_ref,
                    'tile://([a-z]+)/(\\d+)_(\\d+)', 2) AS BIGINT) AS tx,
                  CAST(regexp_extract(sp.media_ref,
                    'tile://([a-z]+)/(\\d+)_(\\d+)', 3) AS BIGINT) AS ty
                FROM s WHERE sp.kind = 'media')
          SELECT band, tx, ty, CAST(count(*) AS BIGINT) AS n_spans,
                 CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
          FROM m GROUP BY band, tx, ty
        """,
        # span-sequence fingerprint (stages/multimodal
        # .span_fingerprint_batch): the north rule's per-row invariant
        # — kind␟text␟media_ref␞ per span, concatenated in span order,
        # 64-bit Horner over the bytes (ASCII world ⇒ ascii(c) == byte).
        "span_fingerprint": f"""
          WITH s AS (SELECT doc_id, unnest(spans) AS sp,
                       CAST(generate_subscripts(spans, 1) AS BIGINT) AS i
                     FROM read_parquet('{glob}')),
          enc AS (SELECT doc_id,
                    string_agg(coalesce(sp.kind, '') || chr(31)
                               || coalesce(sp.text, '') || chr(31)
                               || coalesce(sp.media_ref, '') || chr(30),
                               '' ORDER BY i) AS es,
                    CAST(count(*) AS BIGINT) AS n_spans
                  FROM s GROUP BY doc_id),
          fp AS (SELECT doc_id, n_spans, list_reduce(
                   list_prepend(1469598103934665603::HUGEINT,
                     list_transform(regexp_extract_all(es, '.'),
                                    c -> ascii(c)::HUGEINT)),
                   (a, b) -> (a * 1000003 + b)
                             % 18446744073709551616::HUGEINT) AS h
                 FROM enc)
          SELECT doc_id, n_spans,
                 CAST(CASE WHEN h >= 9223372036854775808::HUGEINT
                      THEN h - 18446744073709551616::HUGEINT
                      ELSE h END AS BIGINT) AS span_fp
          FROM fp
        """,
        # text-only span compaction (stages/multimodal
        # .compact_text_spans_batch): drop non-text spans, keep order,
        # fingerprint the compacted sequence; zero-text docs keep the
        # empty-sequence Horner basis
        "compact_text_spans": f"""
          WITH s AS (SELECT doc_id, unnest(spans) AS sp,
                       CAST(generate_subscripts(spans, 1) AS BIGINT) AS i
                     FROM read_parquet('{glob}')),
          enc AS (SELECT doc_id,
                    coalesce(string_agg(
                      coalesce(sp.kind, '') || chr(31)
                      || coalesce(sp.text, '') || chr(31)
                      || coalesce(sp.media_ref, '') || chr(30),
                      '' ORDER BY i)
                      FILTER (WHERE coalesce(sp.kind, '') = 'text'),
                      '') AS es,
                    CAST(count(*) FILTER (
                      WHERE coalesce(sp.kind, '') = 'text') AS BIGINT)
                      AS n_kept,
                    CAST(count(*) FILTER (
                      WHERE coalesce(sp.kind, '') <> 'text') AS BIGINT)
                      AS n_dropped
                  FROM s GROUP BY doc_id),
          fp AS (SELECT doc_id, n_kept, n_dropped, list_reduce(
                   list_prepend(1469598103934665603::HUGEINT,
                     list_transform(regexp_extract_all(es, '.'),
                                    c -> ascii(c)::HUGEINT)),
                   (a, b) -> (a * 1000003 + b)
                             % 18446744073709551616::HUGEINT) AS h
                 FROM enc)
          SELECT doc_id, n_kept, n_dropped,
                 CAST(CASE WHEN h >= 9223372036854775808::HUGEINT
                      THEN h - 18446744073709551616::HUGEINT
                      ELSE h END AS BIGINT) AS text_fp
          FROM fp
        """,
        # video frame-sampling schedule (stages/multimodal
        # .frame_sample_plan): distinct media assets × k evenly-spaced
        # deterministic frame indices
        "frame_sample_plan": f"""
          WITH s AS (SELECT unnest(spans) AS sp
                     FROM read_parquet('{glob}')),
          a AS (SELECT DISTINCT
                  regexp_extract(sp.media_ref,
                                 'tile://([a-z]+)/(\\d+)_(\\d+)', 1) AS band,
                  CAST(regexp_extract(sp.media_ref,
                    'tile://([a-z]+)/(\\d+)_(\\d+)', 2) AS BIGINT) AS tx,
                  CAST(regexp_extract(sp.media_ref,
                    'tile://([a-z]+)/(\\d+)_(\\d+)', 3) AS BIGINT) AS ty
                FROM s WHERE sp.kind = 'media')
          SELECT band, tx, ty,
                 (7 * tx + 13 * ty) % 290 + 10 AS n_frames,
                 CAST(j * ((7 * tx + 13 * ty) % 290 + 10) // 8 AS BIGINT)
                   AS frame_idx
          FROM a CROSS JOIN range(8) t(j)
        """,
    }


def q_zonal_median(sf_dir: str):
    """Per-PoI zonal MEDIAN NDVI (stages/zonal.ZonalMedianLocal):
    int64 micro-unit quantization before the median, so numpy and the
    SQL quantile_cont over the exact pixel table agree bit-for-bit.  A
    disk with no pixel (outside the tiled world) gets no row, like the
    oracle's inner join."""
    from ..stages.zonal import ZonalMedianLocal

    poi, w = _world_poi(limit=COMPOSITE_POIS)
    return drop_zero_count(KernelStage(
        ZonalMedianLocal,
        dict(tile_root=w["tiles"], band="ndvi", radius=NDVI_RADIUS),
        dict(num_cpus=0.5)).on(poi), "n_pix")


def q_raster_downsample(sf_dir: str):
    """Level-1 pyramid tile build (stages/focal.DownsampleTile):
    2x2 mean-pool of the four level-0 tiles under output tile (0,0),
    emitted as order-free int64 pool sums per output pixel."""
    from ..stages.focal import downsample_level

    w = _world_paths()
    return downsample_level(w["tiles"], [(0, 0)])


def q_contour_census(sf_dir: str):
    """Marching-squares contour census (stages/focal.ContourCells):
    per-tile case counts at the NDVI 0.3 isoline over a 2x2-tile bbox
    (cross-tile halo + world edge both exercised)."""
    from ..stages.focal import contour_census

    w = _world_paths()
    tiles = [(a, b) for a in range(2) for b in range(2)] + [(7, 7)]
    return contour_census(w["tiles"], tiles)


def q_viewshed_gvi(sf_dir: str):
    from . import visibility as vpipe

    poi, w = _world_poi(limit=int(os.environ.get("GREENEX_VIEWSHED_POIS", "300")))
    return drop_zero_count(vpipe.viewshed_stage(
        w["network_nodes"], w["network_edges"], w["tiles"]).on(poi),
        "nr_of_points")


def q_composite_exposure(sf_dir: str):
    """Composite exposure over ONE document read (VERDICT r4 #4): the
    reference README's worked-example sequence — availability
    (zonal mean/std NDVI), accessibility (nearest-greenspace centroid
    distance + flag) and visibility (viewshed GVI) — as a single
    pipeline: three kernel stages appended in turn to each limited
    document batch, spans untouched, then the viewshed's zero-point
    filter."""
    import json

    from .accessibility import nearest_greenspace_stage
    from . import visibility as vpipe

    w = _world_paths()
    docs = doc_src.read_documents(w["documents"], limit=COMPOSITE_POIS)

    gs = pq.read_table(w["greenspace"],
                       columns=["gs_id", "x0", "y0", "x1", "y1"])
    gx0 = gs.column("x0").to_numpy(zero_copy_only=False)
    gx1 = gs.column("x1").to_numpy(zero_copy_only=False)
    gy0 = gs.column("y0").to_numpy(zero_copy_only=False)
    gy1 = gs.column("y1").to_numpy(zero_copy_only=False)
    cent = pa.table({"gs_id": gs.column("gs_id"),
                     "cx": pa.array((gx0 + gx1) / 2.0),
                     "cy": pa.array((gy0 + gy1) / 2.0)})

    for stage in (
            availability.mean_ndvi_stage(w["tiles"], NDVI_RADIUS),
            nearest_greenspace_stage(cent, KNN_TARGET,
                                     "greenspace_within_target"),
            vpipe.viewshed_stage(w["network_nodes"], w["network_edges"],
                                 w["tiles"])):
        docs = append_metrics(docs, stage)
    out = drop_zero_count(docs, "nr_of_points")

    def finalize(b: pa.Table) -> pa.Table:
        js = [json.dumps(sp, separators=(",", ":"))
              for sp in b.column("spans").to_pylist()]
        return pa.table({
            "doc_id": b.column("doc_id"),
            "mean_NDVI": b.column("mean_NDVI"),
            "std_NDVI": b.column("std_NDVI"),
            "distance_to_greenspace": b.column("distance_to_greenspace"),
            "greenspace_within_target": b.column("greenspace_within_target"),
            "nearest_gs_id": b.column("nearest_gs_id"),
            "GVI": b.column("GVI"),
            "nr_of_points": b.column("nr_of_points"),
            "spans_json": pa.array(js, pa.string()),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def q_streetview_gvi(sf_dir: str):
    from . import visibility as vpipe

    poi, w = _world_poi()
    return vpipe.keep_sampled(vpipe.streetview_stage(
        w["network_nodes"], w["network_edges"], w["image_features"]).on(poi))


def q_streetview_quarters(sf_dir: str):
    """get_streetview_GVI with crop_by_road_centres=False — panoramas
    score over the four central-band quarter crops
    (crop_panoramic_images, visibility.py:855-873,944-949)."""
    from . import visibility as vpipe

    poi, w = _world_poi()
    return vpipe.keep_sampled(vpipe.streetview_stage(
        w["network_nodes"], w["network_edges"], w["image_features"],
        crop_by_road_centres=False,
    ).on(poi))


def q_canopy_pct(sf_dir: str):
    """Canopy % of a SQUARE AoI over the rect canopy world — the
    SQL-verifiable gate form of PolygonCoverage (dissolve + clip +
    union); the reference's circular-buffer AoI keeps its pytest parity
    oracle (tests/test_netaccess_coverage)."""
    poi, w = _world_poi(limit=500)
    canopy = pq.read_table(w["canopy"])
    return availability.coverage_stage(canopy, 250.0,
                                       aoi_shape="square").on(poi)


def q_greenspace_pct(sf_dir: str):
    """Greenspace % (dissolved union semantics, availability.py:997) of
    a SQUARE AoI over the rect greenspace world — SQL-verifiable via the
    slab-decomposition union-area oracle."""
    poi, w = _world_poi(limit=500)
    gs = pq.read_table(w["greenspace"])
    return availability.coverage_stage(gs, 300.0, name="greenspace_cover",
                                       aoi_shape="square").on(poi)


def q_network_distance(sf_dir: str):
    from . import accessibility as apipe

    poi, w = _world_poi(limit=int(os.environ.get("GREENEX_NETDIST_POIS", "300")))
    return apipe.network_distance_stage(
        pq.read_table(w["network_nodes"]), pq.read_table(w["network_edges"]),
        pq.read_table(w["greenspace"]), target_dist=600.0,
    ).on(poi)


def q_od_matrix(sf_dir: str):
    """Many-to-many OD network cost matrix
    (stages/netaccess.ODMatrix — per-worker CSR graph, one bounded
    Dijkstra per origin, destinations a deterministic node subset)."""
    from . import accessibility as apipe

    poi, w = _world_poi(limit=OD_POIS)
    return apipe.od_cost_matrix(
        poi, pq.read_table(w["network_nodes"]),
        pq.read_table(w["network_edges"]),
        cutoff=OD_CUTOFF, dest_mod=OD_DEST_MOD,
    )


def q_fca_access(sf_dir: str):
    """Two-step floating catchment accessibility (stages/access.
    two_step_fca — broadcast facilities, O(F)-per-batch step-1 count
    shuffle, integer ratio sums)."""
    from ..stages.access import two_step_fca

    poi, w = _world_poi(limit=FCA_POIS)
    return two_step_fca(poi, pq.read_table(w["greenspace"]),
                        radius=FCA_RADIUS)


def q_gravity_access(sf_dir: str):
    """Hansen gravity/potential accessibility (stages/access.
    gravity_access — inverse-quadratic impedance, int64 weights)."""
    from ..stages.access import gravity_access

    poi, w = _world_poi(limit=FCA_POIS)
    return gravity_access(poi, pq.read_table(w["greenspace"]),
                          theta=GRAV_THETA, cutoff=GRAV_CUTOFF)


def q_e2sfca_access(sf_dir: str):
    """Enhanced 2SFCA (stages/access.enhanced_two_step_fca — Gaussian
    decay in both steps, int64 weights/ratios)."""
    from ..stages.access import enhanced_two_step_fca

    poi, w = _world_poi(limit=FCA_POIS)
    return enhanced_two_step_fca(poi, pq.read_table(w["greenspace"]),
                                 sigma=E2_SIGMA, cutoff=E2_CUTOFF)


def q_isochrone_ndvi(sf_dir: str):
    from ..stages.netaccess import IsochroneZonal

    poi, w = _world_poi(limit=200)
    return availability.isochrone_stage(
        IsochroneZonal, pq.read_table(w["network_nodes"]),
        pq.read_table(w["network_edges"]), tile_root=w["tiles"],
        buffer_dist=500.0,
    ).on(poi)


def q_isochrone_landcover(sf_dir: str):
    """get_landcover_percentages(buffer_type='network'): per-class pixel
    percentages inside each PoI's isochrone AoI."""
    from ..stages.netaccess import IsochroneLandcover

    poi, w = _world_poi(limit=200)
    return availability.isochrone_stage(
        IsochroneLandcover, pq.read_table(w["network_nodes"]),
        pq.read_table(w["network_edges"]), tile_root=w["tiles"],
        buffer_dist=500.0, classmap=availability.DEFAULT_CLASSMAP,
    ).on(poi)


def q_isochrone_greenspace(sf_dir: str):
    """get_greenspace_percentage(buffer_type='network'): % of the
    isochrone AoI covered by the dissolved greenspace layer."""
    from ..stages.netaccess import IsochroneCoverage

    poi, w = _world_poi(limit=200)
    return availability.isochrone_stage(
        IsochroneCoverage, pq.read_table(w["network_nodes"]),
        pq.read_table(w["network_edges"]),
        polys_ref=shipped(pq.read_table(w["greenspace"])), buffer_dist=500.0,
        name="greenspace_cover",
    ).on(poi)


def q_dissolve(sf_dir: str):
    """Greenspace dissolve blobs (D1) as a table."""
    from ..stages.dissolve import dissolve_convex
    import numpy as _np

    w = _world_paths()
    gs = pq.read_table(w["greenspace"])
    rings = [
        _np.array([[p["x"], p["y"]] for p in r[0]])
        for r in gs.column("rings").to_pylist()
    ]
    out = dissolve_convex(rings, ids=gs.column("gs_id").to_pylist())
    # round 3: the oracle computes the same union area/centroid via
    # slab decomposition — mathematically identical, different float
    # summation order (engine: inclusion–exclusion), so the gate rounds
    # coarser than the ~1e-7 arithmetic divergence
    return pa.table({
        "rep_id": pa.array(out["rep_id"], pa.int64()),
        "n_members": pa.array([len(m) for m in out["member_ids"]], pa.int64()),
        "area": pa.array(_np.round(out["area"], 3)),
        "centroid_x": pa.array(_np.round(out["centroid_x"], 3)),
        "centroid_y": pa.array(_np.round(out["centroid_y"], 3)),
    })


def q_dissolve_min_area(sf_dir: str):
    """M10 min-area filter as a value gate: dissolve, then keep merged
    units with ``area >= 400000`` (the reference applies
    ``min_greenspace_area`` AFTER dissolving, accessibility.py:81-84,
    129-131 — same order here).  The threshold sits >5 000 m² from the
    nearest unit area, so rounding can't flip membership."""
    import pyarrow.compute as pc

    t = q_dissolve(sf_dir)
    return t.filter(pc.greater_equal(t.column("area"), 400000.0))


def q_dissolve_distributed(sf_dir: str):
    """Distributed dissolve (cell-pair shuffle + connected components +
    per-blob union moments) over the world greenspace table — same rows
    as q_dissolve's driver path (parity-tested in pytest)."""
    from ..stages.dissolve import dissolve_dataset, flat_rings_table
    import numpy as _np

    w = _world_paths()
    gs = pq.read_table(w["greenspace"])
    flat = flat_rings_table(gs)  # vectorized from Arrow offset buffers
    polys = ray.data.from_arrow(
        flat.set_column(0, "gs_id", gs.column("gs_id")))
    out = dissolve_dataset(polys)
    return out.map_batches(
        lambda b: pa.table({
            "rep_id": b.column("rep_id"),
            "n_members": b.column("n_members"),
            "area": pa.array(_np.round(
                b.column("area").to_numpy(zero_copy_only=False), 3)),
            "centroid_x": pa.array(_np.round(
                b.column("centroid_x").to_numpy(zero_copy_only=False), 3)),
            "centroid_y": pa.array(_np.round(
                b.column("centroid_y").to_numpy(zero_copy_only=False), 3)),
        }),
        batch_format="pyarrow",
    )


def q_ivf_topk(sf_dir: str):
    """IVF-bucketed approximate top-k (scale ANN path; recall vs brute
    force measured in tests).  The gate uses the FIXED seeded quantizer
    (``fixed_random_centroids``) so the DuckDB oracle reproduces the
    cell assignment + probe set exactly at any sf."""
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    V = (
        emb.column("embedding").combine_chunks().flatten()
        .to_numpy(zero_copy_only=False).reshape(-1, EMB_DIM).astype(np.float64)
    )
    ids = emb.column("vec_id").to_numpy(zero_copy_only=False)
    sel = np.isin(ids, TOPK_QUERY_IDS)
    queries = {"query_id": ids[sel].tolist(), "vectors": V[sel]}
    cents = similarity.fixed_random_centroids(EMB_DIM, IVF_CENTROIDS)
    ds = dt.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = similarity.ivf_topk(ds, queries, cents, TOPK_K, EMB_DIM,
                              nprobe=IVF_NPROBE)
    return out.map_batches(
        lambda b: pa.table({
            "query_id": b.column("query_id"),
            "vec_id": b.column("vec_id"),
            "score": pa.array(np.round(b.column("score").to_numpy(zero_copy_only=False), 6)),
        }),
        batch_format="pyarrow",
    )


#: dilation radius of the buffered-polygon gates (polygon PoIs with
#: ``buffer_type='euclidean'``, availability.py:235-237)
POLY_DILATE = 150.0
#: polygon-viewshed gate PoI count — rect AoIs average ~2× the sample
#: points of the 100 m point buffers, so half the point gate's 300
VS_POLY_POIS = 150
#: rect-PoI half-width/height constants — base + step * (key % mod);
#: the SQL oracles recompute the exact same binary64 arithmetic from
#: the doc key (fractional bases keep rect edges off pixel centers)
_POLY_HW = (60.3, 20.0, 8)
_POLY_HH = (80.7, 20.0, 5)


def _world_rect_poly_spans(limit: int = 400):
    """Spans-form (pre-decode) deterministic rect-POLYGON documents:
    each world doc's point becomes an axis-aligned rect (half-widths
    keyed off the doc number) serialized as a WKT POLYGON span, so the
    consuming gates exercise the real spans→DecodeGeom(parse_polygons=
    True) path while every AoI bound stays closed-form expressible in
    the DuckDB oracle."""
    poi, w = _world_poi(limit)

    def to_poly_docs(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        x = b.column("x").to_numpy(zero_copy_only=False)
        y = b.column("y").to_numpy(zero_copy_only=False)
        k = np.array([int(s[4:]) for s in ids], np.int64)
        hw = _POLY_HW[0] + _POLY_HW[1] * (k % _POLY_HW[2])
        hh = _POLY_HH[0] + _POLY_HH[1] * (k % _POLY_HH[2])
        x0, y0, x1, y1 = x - hw, y - hh, x + hw, y + hh
        spans = [
            [{"kind": "geom",
              "text": (f"POLYGON(({x0[i]!r} {y0[i]!r}, {x1[i]!r} {y0[i]!r}, "
                       f"{x1[i]!r} {y1[i]!r}, {x0[i]!r} {y1[i]!r}, "
                       f"{x0[i]!r} {y0[i]!r}))"),
              "media_ref": "", "offset": 0}]
            for i in range(len(ids))]
        return pa.table({"doc_id": b.column("doc_id"),
                         "spans": pa.array(spans, pa.list_(synth.SPAN_TYPE))})

    return poi.map_batches(to_poly_docs, batch_format="pyarrow"), w


def _world_rect_poly_docs(limit: int = 400):
    """Decoded rect-POLYGON PoIs (ring arrays) — see
    :func:`_world_rect_poly_spans` for the construction."""
    docs, w = _world_rect_poly_spans(limit)
    decoded = docs.map_batches(doc_src.DecodeGeom(parse_polygons=True),
                               batch_format="pyarrow")
    return decoded.select_columns(["doc_id", "ring_x", "ring_y",
                                   "ring_sizes"]), w


def q_polygon_ndvi(sf_dir: str):
    """get_mean_NDVI with polygon PoIs, buffer_type=None — each row's
    own polygon is the AoI (availability.py:230-234)."""
    rects, w = _world_rect_poly_docs()
    return availability.mean_ndvi_polygon_stage(w["tiles"]).on(rects)


def q_polygon_ndvi_buffered(sf_dir: str):
    """get_mean_NDVI with polygon PoIs, buffer_type='euclidean' — the
    polygon dilated by buffer_dist is the AoI (availability.py:235-237)."""
    rects, w = _world_rect_poly_docs()
    return availability.mean_ndvi_polygon_stage(
        w["tiles"], dilate=POLY_DILATE).on(rects)


def q_polygon_landcover(sf_dir: str):
    """get_landcover_percentages with polygon PoIs (buffer_type=None)."""
    rects, w = _world_rect_poly_docs()
    return availability.landcover_polygon_stage(w["tiles"]).on(rects)


def q_polygon_canopy(sf_dir: str):
    """get_canopy_percentage with polygon PoIs (buffer_type=None) —
    exact clip-area overlay, per-polygon sum (no dissolve)."""
    rects, w = _world_rect_poly_docs()
    return availability.coverage_stage(
        pq.read_table(w["canopy"]), 0.0, aoi_shape="self",
        dissolve=False).on(rects)


def q_polygon_canopy_buffered(sf_dir: str):
    """get_canopy_percentage with polygon PoIs, buffer_type='euclidean'
    — pixel-center evaluation of the dilated-polygon AoI."""
    rects, w = _world_rect_poly_docs()
    return availability.coverage_stage(
        pq.read_table(w["canopy"]), POLY_DILATE, aoi_shape="self",
        dissolve=False).on(rects)


def q_polygon_viewshed(sf_dir: str):
    """get_viewshed_GVI with polygon PoIs (polygon_type='neighbourhood',
    buffer_dist=None) — edges intersecting the row's own polygon are
    sampled (visibility.py:568-572)."""
    from . import visibility as vpipe

    rects, w = _world_rect_poly_docs(VS_POLY_POIS)
    return drop_zero_count(vpipe.viewshed_stage(
        w["network_nodes"], w["network_edges"], w["tiles"],
        buffer_dist=None, poi_kind="polygon",
    ).on(rects), "nr_of_points")


def q_polygon_streetview(sf_dir: str):
    """get_streetview_GVI with polygon PoIs dilated by POLY_DILATE —
    sample points inside each row's buffered polygon roll up
    (visibility.py:653-660 with the polygon buffer of :568-572)."""
    from . import visibility as vpipe

    rects, w = _world_rect_poly_docs()
    return vpipe.keep_sampled(vpipe.streetview_stage(
        w["network_nodes"], w["network_edges"], w["image_features"],
        buffer_dist=POLY_DILATE, poi_kind="polygon",
    ).on(rects))


def q_polygon_greenspace(sf_dir: str):
    """get_greenspace_percentage with polygon PoIs (buffer_type=None) —
    dissolved-union membership over the row's own polygon AoI."""
    rects, w = _world_rect_poly_docs()
    return availability.coverage_stage(
        pq.read_table(w["greenspace"]), 0.0, name="greenspace_cover",
        aoi_shape="self").on(rects)


#: geometry_validators gate knobs: mixed POINT ∪ POLYGON document set
#: checked against a bounds box that splits both kinds non-trivially
#: (at the 2000-doc gate world: 179/300 points inside, 111/200 polygons
#: fully inside, 4 polygons whose centroid is inside but whose rect
#: pokes out — the vertex-level rule diverging from the centroid rule)
VAL_POINT_POIS = 300
VAL_POLY_POIS = 200
VAL_BBOX = (3000.0, 3000.0, 17000.0, 17000.0)


def q_geometry_validators(sf_dir: str):
    """M1/M9/M13/A8 gate: per-row geometry-kind extraction + bounds
    containment over a mixed POINT ∪ POLYGON document set — the
    reference's homogeneity check (accessibility.py:34-37), polygon
    mask (M9) and raster-bounds containment validator
    (availability.py:219-226) value-verified per row.  Polygon rows
    get a ``-poly`` id suffix so both kinds coexist in one keyed
    output; their containment tests every vertex (ring min/max), so a
    rect can fail while its centroid passes."""
    import pyarrow.compute as pc

    w = _world_paths()
    pts = doc_src.read_documents(
        w["documents"], limit=VAL_POINT_POIS).select_columns(["doc_id", "spans"])
    polys, _ = _world_rect_poly_spans(VAL_POLY_POIS)

    def suffix_ids(b: pa.Table) -> pa.Table:
        ids = pc.binary_join_element_wise(
            pc.cast(b.column("doc_id"), pa.string()), "-poly", "")
        return b.set_column(b.schema.get_field_index("doc_id"),
                            "doc_id", ids)

    mixed = pts.union(
        polys.map_batches(suffix_ids, batch_format="pyarrow")
        .select_columns(["doc_id", "spans"]))
    decoded = mixed.map_batches(doc_src.DecodeGeom(parse_polygons=True),
                                batch_format="pyarrow", zero_copy_batch=True)
    bbox = VAL_BBOX
    return decoded.map_batches(
        lambda b: doc_src.bounds_flags_table(b, *bbox),
        batch_format="pyarrow", zero_copy_batch=True)


def q_dedup_undirected_edges(sf_dir: str):
    """D3 gate: (u,v)/(v,u) road-segment dedup (visibility.py:596-612).
    The world edge list is single-orientation, so the query first makes
    the input non-vacuous by appending the reversed copy of every edge
    with u % 3 == 0, then normalizes + dedups."""
    from ..stages.dedup import dedup_undirected_edges

    w = _world_paths()
    edges = ray.data.read_parquet(w["network_edges"], columns=["u", "v"])

    def add_rev(b: pa.Table) -> pa.Table:
        import numpy as _np

        u = b.column("u").to_numpy(zero_copy_only=False)
        v = b.column("v").to_numpy(zero_copy_only=False)
        m = (u % 3) == 0
        return pa.table({
            "u": pa.array(_np.concatenate([u, v[m]])),
            "v": pa.array(_np.concatenate([v, u[m]])),
        })

    return dedup_undirected_edges(
        edges.map_batches(add_rev, batch_format="pyarrow"))


#: EPSG:3857 target window of the regrid gate (meters; its inverse
#: image in the EPSG:3395 world frame sits well inside the synthetic
#: raster extent)
REGRID_BBOX = (4000.0, 4000.0, 7000.0, 7000.0)


def q_regrid_3857(sf_dir: str):
    """S8 gate: the world NDVI store (EPSG:3395-as-local-meters)
    resampled nearest-neighbor onto an EPSG:3857 target grid
    (stages/regrid.py — the reference's rioxarray ``reproject`` step).
    Output: one row per (deterministically subsampled) target pixel
    whose center maps inside the source extent."""
    from ..stages.regrid import reproject_raster

    w = _world_paths()
    ds = reproject_raster(w["tiles"], "ndvi", "EPSG:3395", "EPSG:3857",
                          REGRID_BBOX)
    px = synth.TILE_PX

    def explode(b: pa.Table) -> pa.Table:
        import numpy as _np

        tix = b.column("tix").to_numpy(zero_copy_only=False)
        tiy = b.column("tiy").to_numpy(zero_copy_only=False)
        ws = b.column("w").to_numpy(zero_copy_only=False)
        hs = b.column("h").to_numpy(zero_copy_only=False)
        data = b.column("data").to_pylist()
        cols, rows_, vals = [], [], []
        for i in range(len(b)):
            arr = _np.frombuffer(data[i], dtype=_np.float64).reshape(
                int(hs[i]), int(ws[i]))
            cc = tix[i] * px + _np.arange(int(ws[i]), dtype=_np.int64)
            rr = tiy[i] * px + _np.arange(int(hs[i]), dtype=_np.int64)
            gc, gr = _np.meshgrid(cc, rr, indexing="xy")
            m = _np.isfinite(arr) & (((gc + gr) % 7) == 0)
            cols.append(gc[m])
            rows_.append(gr[m])
            vals.append(_np.round(arr[m], 6))
        cat = (lambda parts, t: pa.array(
            _np.concatenate(parts) if parts else _np.empty(0, t)))
        return pa.table({
            "col": cat(cols, _np.int64),
            "row": cat(rows_, _np.int64),
            "val": cat(vals, _np.float64),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def q_project_3395(sf_dir: str):
    """M2 gate: WGS84 lon/lat → EPSG:3395 World Mercator forward
    (geoproj.mercator_forward, Snyder PP 1395 eqs. 7-6..7-10; the
    reference reprojects every geographic input this way before metric
    math, accessibility.py:40-50).  lon/lat derive deterministically
    from doc_id; coordinates rounded to 0.1 mm (measured engine delta
    ≤4e-9 m)."""
    from .. import geoproj

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def project(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        lon = x / dt.WORLD * 360.0 - 180.0
        lat = y / dt.WORLD * 160.0 - 80.0
        mx, my = geoproj.transform(lon, lat, "EPSG:4326", "EPSG:3395")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "mx": pa.array(np.round(mx, 4), pa.float64()),
            "my": pa.array(np.round(my, 4), pa.float64()),
        })

    return ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_project_utm(sf_dir: str):
    """M2 gate: WGS84 → UTM zone 31N through the full 6th-order Krüger
    n-series (geoproj.utm_forward, Karney 2011) — the oracle re-derives
    the whole series in SQL with the same coefficient doubles.  lon is
    kept inside zone 31 (0.5°..5.5°E), lat 10°..80°N."""
    from .. import geoproj

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def project(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        lon = x / dt.WORLD * 5.0 + 0.5
        lat = y / dt.WORLD * 70.0 + 10.0
        e, n = geoproj.transform(lon, lat, "EPSG:4326", "UTM:31N")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "utm_e": pa.array(np.round(e, 4), pa.float64()),
            "utm_n": pa.array(np.round(n, 4), pa.float64()),
        })

    return ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_bbox_wgs84(sf_dir: str):
    """M7+M8 gate: global bounds aggregate → densified-edge inverse
    Mercator back to WGS84 (geoproj.bbox_to_wgs84, the reference's
    total_bounds→4326 step for remote catalog queries,
    availability.py:76-77).  The SQL oracle unrolls the same 6 Newton
    iterations on the isometric latitude; degrees rounded to 1e-9
    (measured engine delta ≤3e-15)."""
    from .. import geoproj

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    res = ds.aggregate(
        Min("x", alias_name="x0"), Min("y", alias_name="y0"),
        Max("x", alias_name="x1"), Max("y", alias_name="y1"),
    )
    lon0, lat0, lon1, lat1 = geoproj.bbox_to_wgs84(
        res["x0"], res["y0"], res["x1"], res["y1"], "EPSG:3395")
    return pa.table({
        "lon_min": [round(lon0, 9)], "lat_min": [round(lat0, 9)],
        "lon_max": [round(lon1, 9)], "lat_max": [round(lat1, 9)],
    })


def q_hash_split(sf_dir: str):
    """Deterministic train/val/test split assignment
    (stages/sampling.assign_split): stable Lehmer-hash bucketing per
    key — the shuffle-free sharding primitive a 100 TB corpus split
    needs (membership independent of partitioning / cluster size)."""
    from ..stages.sampling import assign_split

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])
    return assign_split(ds, "doc_id", train_pct=SPLIT_TRAIN_PCT,
                        val_pct=SPLIT_VAL_PCT, salt=0)


def q_topk_per_split(sf_dir: str):
    """Grouped top-k (stages/topk.topk_per_group) composed with the
    hash-split assignment: the 5 longest documents per train/val/test
    split, ties by doc_id — the per-batch partial top-k bounds the
    shuffle to ≤k rows/group/batch regardless of table size."""
    import pyarrow.compute as pc

    from ..stages.sampling import assign_split
    from ..stages.topk import topk_per_group

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    split = assign_split(ds, "doc_id", train_pct=SPLIT_TRAIN_PCT,
                         val_pct=SPLIT_VAL_PCT, salt=0)

    def score(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "split": b.column("split"),
            "n_chars": pc.cast(pc.utf8_length(b.column("text")),
                               pa.int64()),
        })

    scored = split.map_batches(score, batch_format="pyarrow")
    return topk_per_group(scored, "split", "n_chars", 5, "doc_id")


def q_tfidf_topk(sf_dir: str):
    """TF-IDF query ranking (stages/tfidf.tfidf_topk): top 20 documents
    by quantized-idf lexical score against a fixed 5-term query — DF is
    aggregated for the query terms only (O(#terms) shuffle), the weight
    map rides into the scoring kernel, and the global top-k is a
    partial-top-k scan."""
    from ..stages.tfidf import tfidf_topk

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return tfidf_topk(ds, TFIDF_TERMS, TFIDF_K)


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample
    (stages/sampling.stratified_sample): 20 docs per train/val/test
    split, ranked by the full Lehmer hash — the class-balancing
    primitive, with the partial-top-k bound on the shuffle."""
    from ..stages.sampling import assign_split, stratified_sample

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])
    split = assign_split(ds, "doc_id", train_pct=SPLIT_TRAIN_PCT,
                         val_pct=SPLIT_VAL_PCT, salt=0)
    out = stratified_sample(split, "split", "doc_id", STRATIFIED_N)
    return out.select_columns(["doc_id", "split"])


def q_bm25_topk(sf_dir: str):
    """BM25 ranking (stages/tfidf.bm25_topk): top 20 documents against
    the fixed 5-term query — df/avgdl/N aggregate in one
    O(#terms×#batches) pass, ranking uses the 6-decimal-rounded score
    so float summation order cannot flip the cross-engine order."""
    from ..stages.tfidf import bm25_topk

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, TFIDF_TERMS, BM25_K)


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (stages/asof.sessionize): per-user
    event streams split at >6 h gaps, one row per session — hash-
    bucketed users (64-group shuffle, not one pandas call per user),
    vectorized multi-user break/reduceat kernel inside each bucket."""
    from ..stages.asof import sessionize

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "ts", "user_id", "value"])
    return sessionize(ds, SESSION_GAP_US).select_columns(
        ["user_id", "session_id", "n_events", "start_us", "end_us",
         "sum_value"])


def q_funnel(sf_dir: str):
    """Per-user conversion funnel (stages/windows.funnel): earliest
    signup → click → purchase chain with strictly-increasing
    timestamps — hash-bucketed users, per-step masked segmented
    reduceat (no per-user loop), int64-microsecond comparisons."""
    from ..stages.windows import funnel

    ds = dt.read_table(sf_dir, "events",
                       columns=["ts", "user_id", "event_type"])
    return funnel(ds, list(FUNNEL_STEPS)).select_columns(
        ["user_id", "steps_completed", "complete_us"])


def q_rolling_window(sf_dir: str):
    """Trailing 5-row frame sum per user (stages/windows.rolling_window):
    one output row per event with the frame count and the int64
    micro-unit frame sum — lexsort + cumsum-difference kernel inside
    hash buckets, exactly the SQL ROWS BETWEEN 4 PRECEDING frame."""
    from ..stages.windows import rolling_window

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "ts", "user_id", "value"])
    return rolling_window(ds, ROLL_WINDOW).select_columns(
        ["user_id", "event_id", "n_frame", "sum_q"])


def q_user_mode(sf_dir: str):
    """Per-group mode (stages/topk.group_mode): each user's most
    frequent event type, ties to the lexicographically smallest —
    distinct-pair partial counts before the first shuffle, a bounded
    top-1 partial before the second."""
    from ..stages.topk import group_mode

    ds = dt.read_table(sf_dir, "events", columns=["user_id", "event_type"])
    return group_mode(ds, "user_id", "event_type").select_columns(
        ["user_id", "mode_value", "cnt"])


def q_cohort_retention(sf_dir: str):
    """Daily cohort retention (stages/windows.cohort_retention):
    distinct users active per (first-active-day cohort, day offset) —
    hash-bucketed users, one lexsort + consecutive-dedup kernel,
    O(cohorts × offsets) second shuffle."""
    from ..stages.windows import cohort_retention

    ds = dt.read_table(sf_dir, "events", columns=["user_id", "ts"])
    return cohort_retention(ds).select_columns(
        ["cohort_day", "day_offset", "n_users"])


def q_resample_hourly(sf_dir: str):
    """Gap-filled hourly resample (stages/windows.resample_fill): per
    event type, count + exact micro-unit value sum for EVERY hour in
    the type's [first, last] range, missing hours zero-filled (215
    genuinely absent hours at sf0.01) — Arrow group_by partials, one
    key shuffle, reduceat merge."""
    from ..stages.windows import resample_fill

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_type", "ts", "value"])
    return resample_fill(ds).select_columns(
        ["event_type", "unit", "n_events", "sum_q"])


ORACLE_SQL["user_mode"] = """
    WITH c AS (SELECT user_id, event_type, count(*) AS cnt
               FROM events GROUP BY 1, 2),
    r AS (SELECT *, row_number() OVER (
            PARTITION BY user_id
            ORDER BY cnt DESC, event_type ASC) AS rn FROM c)
    SELECT user_id, event_type AS mode_value, CAST(cnt AS BIGINT) AS cnt
    FROM r WHERE rn = 1
"""

ORACLE_SQL["cohort_retention"] = """
    WITH w AS (SELECT user_id, epoch_us(ts) // 86400000000 AS d
               FROM events),
    c AS (SELECT user_id, min(d) AS cd FROM w GROUP BY user_id),
    x AS (SELECT DISTINCT w.user_id, c.cd, w.d - c.cd AS off
          FROM w JOIN c USING (user_id))
    SELECT CAST(cd AS BIGINT) AS cohort_day,
           CAST(off AS BIGINT) AS day_offset,
           count(*) AS n_users
    FROM x GROUP BY 1, 2
"""

# values quantized to int64 micro-units (same convention as
# rolling_window) so the gap-filled sums are exact in both engines
ORACLE_SQL["resample_hourly"] = """
    WITH d AS (SELECT event_type, epoch_us(ts) // 3600000000 AS unit,
                      count(*) AS c,
                      sum(CAST(round(value * 1000000.0, 0) AS BIGINT))
                        AS sq
               FROM events GROUP BY 1, 2),
    r AS (SELECT event_type, min(unit) AS u0, max(unit) AS u1
          FROM d GROUP BY 1),
    g AS (SELECT event_type, unnest(generate_series(u0, u1)) AS unit
          FROM r)
    SELECT g.event_type, CAST(g.unit AS BIGINT) AS unit,
           COALESCE(d.c, 0) AS n_events,
           CAST(COALESCE(d.sq, 0) AS BIGINT) AS sum_q
    FROM g LEFT JOIN d ON g.event_type = d.event_type
                      AND g.unit = d.unit
"""


def q_bigram_topk(sf_dir: str):
    """Top-k word-bigram collocations (stages/text.bigram_topk):
    per-batch partial counts collapse rows to distinct bigrams before
    the vocabulary-scale shuffle; the global top-k is a bounded
    partial-top-k pass."""
    from ..stages.text import bigram_topk

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_topk(ds, BIGRAM_K)


def q_token_quantiles(sf_dir: str):
    """Exact token-count distribution quantiles
    (stages/quantiles.exact_quantiles): per-batch value-count partials,
    a groupby whose shuffle payload is O(#distinct values), driver
    walk over the tiny merged histogram — the corpus-percentile op a
    filter-threshold selection needs at 100 TB."""
    from ..stages.quantiles import exact_quantiles

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    toks = ds.map_batches(text.token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
    return exact_quantiles(toks, "n_tokens", QUANTILE_QS)


def q_buffer_vertices(sf_dir: str):
    """M6 gate: shapely-style euclidean buffer discretization
    (geom.buffer_ngon_many, quad_segs=16 → 64-gon, the reference's
    ``geometry.buffer(buffer_dist)`` step) — one row per ring vertex;
    vertices are bit-identical between numpy and the SQL cos/sin."""
    from .. import geom

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def expand(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        rings = geom.buffer_ngon_many(x, y, BUFFER_GATE_R)
        n = rings.shape[1]
        return pa.table({
            "doc_id": pa.array(np.repeat(k, n)),
            "vi": pa.array(np.tile(np.arange(n, dtype=np.int64), len(k))),
            "vx": pa.array(np.round(rings[:, :, 0].ravel(), 6)),
            "vy": pa.array(np.round(rings[:, :, 1].ravel(), 6)),
        })

    return ds.map_batches(expand, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_polygon_centroid(sf_dir: str):
    """M3/M11 gate: POLYGON WKT spans → DecodeGeom(parse_polygons=True)
    → area-weighted shoelace centroid (geom.polygon_centroid, the
    reference's geometry.centroid conversion, accessibility.py:53-56).
    PoIs are L-shaped hexagons so the centroid is off the bbox midpoint
    and the full formula is exercised end-to-end through the real
    spans→decode path."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def to_poly(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        # .tolist() → plain Python floats: repr of np.float64 is not a
        # WKT-parseable literal under numpy >= 2
        x0 = (x - (50.0 + k * 3 % 100)).tolist()
        x1 = (x + (60.0 + k * 7 % 120)).tolist()
        y0 = (y - (40.0 + k * 11 % 90)).tolist()
        y1 = (y + (70.0 + k * 5 % 110)).tolist()
        x, y = x.tolist(), y.tolist()
        spans = [
            [{"kind": "geom",
              "text": (f"POLYGON(({x0[i]!r} {y0[i]!r}, {x1[i]!r} {y0[i]!r}, "
                       f"{x1[i]!r} {y[i]!r}, {x[i]!r} {y[i]!r}, "
                       f"{x[i]!r} {y1[i]!r}, {x0[i]!r} {y1[i]!r}, "
                       f"{x0[i]!r} {y0[i]!r}))"),
              "media_ref": "", "offset": 0}]
            for i in range(len(k))]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "spans": pa.array(spans, pa.list_(synth.SPAN_TYPE))})

    dec = ds.map_batches(to_poly, batch_format="pyarrow").map_batches(
        doc_src.DecodeGeom(parse_polygons=True), batch_format="pyarrow")

    def emit(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "cx": pa.array(np.round(
                batch.column("x").to_numpy(zero_copy_only=False), 4)),
            "cy": pa.array(np.round(
                batch.column("y").to_numpy(zero_copy_only=False), 4)),
        })

    return dec.map_batches(emit, batch_format="pyarrow")


def _idw_stations(sf_dir: str) -> pa.Table:
    """Station side table from supplier (small side — broadcast)."""
    t = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"])
    k = t.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sx, sy = dt.derive_xy(k)
    val = ((k * 7919) % 1000) / 10.0
    return pa.table({"sx": pa.array(sx), "sy": pa.array(sy),
                     "val": pa.array(val)})


def q_idw_interpolation(sf_dir: str):
    """IDW field interpolation (stages/geostats.IDWInterpolator), a
    KernelStage over the shipped station table: each batch sums its
    (point, station) pairs from one grid gather — no shuffle,
    int64-quantized sums make the result summation-order independent
    across engines."""
    from ..stages.geostats import IDWInterpolator

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    out = KernelStage(
        IDWInterpolator,
        dict(stations_ref=shipped(_idw_stations(sf_dir)), radius=IDW_RADIUS),
        dict(num_cpus=0.25)).on(ds)
    return out.select_columns(["doc_id", "n_within", "idw"])


def q_haversine_nearest(sf_dir: str):
    """Great-circle nearest facility (stages/geostats.HaversineNearest):
    geodesic twin of the planar kNN gate — facilities (nation table)
    shipped to a KernelStage, ranking on round-6 km with fid ties."""
    from ..stages.geostats import HaversineNearest

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def add_lonlat(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lon": pa.array(x * 0.018 - 180.0),
            "lat": pa.array(y * 0.0085 - 85.0),
        })

    fac_t = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    fk = fac_t.column("n_nationkey").to_numpy(
        zero_copy_only=False).astype(np.int64)
    fx, fy = dt.derive_xy(fk)
    facilities = pa.table({"fid": pa.array(fk),
                           "flon": pa.array(fx * 0.018 - 180.0),
                           "flat": pa.array(fy * 0.0085 - 85.0)})
    out = KernelStage(
        HaversineNearest, dict(facilities_ref=shipped(facilities)),
        dict(num_cpus=0.25)).on(
        ds.map_batches(add_lonlat, batch_format="pyarrow",
                       zero_copy_batch=True))
    return out.select_columns(["doc_id", "fid", "dist_km"])


def q_pii_redact(sf_dir: str):
    """PII redaction (stages/scrub.pii_redact_batch): Arrow RE2
    find/replace of emails then phones with typed placeholder tokens;
    a deterministic PII suffix is appended first (same string ops in
    the oracle) so every row exercises both passes."""
    from ..stages import scrub

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def add_pii(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["doc_id"].astype("int64")
        batch = batch.copy()
        batch["text"] = (batch["text"].fillna("") + " contact user"
                         + k.astype(str) + "@example.com or +12025550"
                         + (k % 1000).astype(str).str.zfill(3) + " now")
        return batch

    red = ds.map_batches(add_pii, batch_format="pandas").map_batches(
        scrub.pii_redact_batch, batch_format="pyarrow", zero_copy_batch=True)
    return red.select_columns(["doc_id", "n_emails", "n_phones", "red_text"])


def q_repetition(sf_dir: str):
    """Gopher-style repetition scoring (stages/scrub.repetition_batch):
    duplicate-token fraction + most-common-token share per doc, one
    explode+factorize per batch."""
    from ..stages import scrub

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(scrub.repetition_batch, batch_format="pandas")
    return out.select_columns(
        ["doc_id", "n_tokens", "n_distinct", "dup_frac", "top_frac"])


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (stages/decon.decontaminate): the
    mod-50 doc slice plays the eval set; its distinct word-3-grams
    broadcast once and every other doc sharing >=1 gram is flagged
    with the distinct-shared count.  Broadcast-not-shuffle: the
    benchmark side is tiny by construction, the corpus streams."""
    from ..stages.decon import decontaminate

    bench_t = pq.read_table(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
    bmask = (bench_t.column("doc_id").to_numpy(zero_copy_only=False)
             % DECON_BENCH_MOD) == 0
    bench_texts = bench_t.filter(pa.array(bmask)).column(
        "text").to_pandas()

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def drop_bench(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((k % DECON_BENCH_MOD) != 0))

    corpus = ds.map_batches(drop_bench, batch_format="pyarrow",
                            zero_copy_batch=True)
    return decontaminate(corpus, bench_texts, DECON_N)


def q_sequence_pack(sf_dir: str):
    """Concat-then-chunk sequence packing (stages/packing): global
    token offsets by distributed prefix sum — bucket totals shuffle
    O(#buckets), within-bucket cumsum shuffles each row once by
    contiguous key range.  A small bucket_span at gate scale exercises
    multiple buckets."""
    from ..stages.packing import sequence_pack

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    toks = ds.map_batches(text.token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens"])
    out = sequence_pack(toks, SEQ_LEN, bucket_span=PACK_BUCKET)
    return out.select_columns(
        ["doc_id", "n_tokens", "offset", "start_seq", "end_seq"])


def q_chunk_plan(sf_dir: str):
    """Sliding-window chunk plan (stages/packing.chunk_plan): one row
    per 32-token chunk at stride 24 — a single zero-copy map_batches
    repeat/arange expansion, no shuffle; the layout step between
    token counting and sequence packing in a training-data pipeline."""
    from ..stages.packing import chunk_plan

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    toks = ds.map_batches(text.token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens"])
    return chunk_plan(toks, CHUNK_W, CHUNK_S)


def q_unigram_logprob(sf_dir: str):
    """Corpus-fit unigram LM scoring (stages/lm.unigram_logprob):
    vocab count pass (O(vocab) shuffle) → broadcast → per-doc summed
    micro-nat logprobs."""
    from ..stages.lm import unigram_logprob

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return unigram_logprob(ds)


def q_kde_grid(sf_dir: str):
    """Gaussian KDE heatmap (stages/geostats.kde_grid): each point
    spreads quantized kernel weights onto grid cells within the
    radius; per-batch partials collapse before the cell groupby."""
    from ..stages.geostats import kde_grid

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return kde_grid(ds, KDE_CELL, KDE_SIGMA, KDE_RADIUS, KDE_N, KDE_N)


def _road_segments_from_supplier(sf_dir: str) -> pa.Table:
    """Synthetic road-segment table from supplier keys (small side —
    broadcast): A = derive_xy(k), B = A + bounded arithmetic offsets,
    identical ops to the SQL oracle's seg0 CTE."""
    t = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"])
    k = t.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    ax, ay = dt.derive_xy(k)
    bx = ax + ((k * 48271) % 2001 - 1000.0)
    by = ay + ((k * 16807) % 2001 - 1000.0)
    return pa.table({"edge_key": pa.array(k), "ax": pa.array(ax),
                     "ay": pa.array(ay), "bx": pa.array(bx),
                     "by": pa.array(by)})


def q_snap_to_road(sf_dir: str):
    """Map matching (stages/mapmatch.snap_to_segments): broadcast
    segment table, per-worker uniform-grid index, vectorized
    point→segment projection, nearest within SNAP_R."""
    from ..stages.mapmatch import snap_to_segments

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE).select_columns(
        ["doc_id", "x", "y"])
    return snap_to_segments(ds, _road_segments_from_supplier(sf_dir), SNAP_R)


def q_viterbi_match(sf_dir: str):
    """HMM map matching (stages/mapmatch.viterbi_match): per-user
    5-ping trajectories (events ordered by ts, event_id; xy derived
    from event_id) Viterbi-matched against the supplier road segments
    — K=4 nearest candidates per ping, int64 emission/transition
    costs, output = the full DP cost table."""
    from ..stages.mapmatch import viterbi_match

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "ts", "user_id"])

    def prep(batch: pa.Table) -> pa.Table:
        k = batch.column("event_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        ts = batch.column("ts").cast(pa.timestamp("us"))
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "ts_us": ts.cast(pa.int64()),
            "event_id": pa.array(k),
            "x": pa.array(x), "y": pa.array(y),
        })

    pings = ds.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
    return viterbi_match(pings, _road_segments_from_supplier(sf_dir),
                         n_steps=VIT_STEPS, k_cand=VIT_K)


def q_partition_checksum(sf_dir: str):
    """Per-cell lineage checksum table (lineage.partition_checksum)."""
    from ..lineage import partition_checksum

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE, columns=["doc_id", "text"])
    out = partition_checksum(ds)
    return out.select_columns(
        ["cell", "n_docs", "checksum", "min_doc", "max_doc"])


def q_filter_chain(sf_dir: str):
    """Composed 5-rule corpus filter (stages/scrub.filter_chain_batch):
    reason bitmask + keep flag, one shuffle-free pass."""
    from ..stages.scrub import filter_chain_batch

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(filter_chain_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_rasterize_coverage(sf_dir: str):
    """Vector->raster burn (stages/rasterize.rasterize_coverage): the
    part-derived greenspace rects burned onto the 10 m / 256 px tile
    grid; per touched tile the UNION pixel count (centre-in rule)."""
    from ..stages.rasterize import rasterize_coverage

    rects = ray.data.from_arrow(
        _rects_from_part(sf_dir)).repartition(4)
    return rasterize_coverage(rects, res=_RZ_RES, tile_px=_RZ_PX)


def q_focal_stats(sf_dir: str):
    """3x3 focal NDVI aggregate per tile (stages/focal.FocalTileStats):
    halo'd window fetch per tile, int64 micro-unit sums — the 2x2-tile
    bbox exercises cross-tile halo stitching AND the world edge."""
    from ..stages.focal import focal_stats

    w = _world_paths()
    tiles = [(a, b) for a in range(2) for b in range(2)]
    return focal_stats(w["tiles"], tiles)


def q_tile_pyramid(sf_dir: str):
    """Three-zoom tile-count pyramid (stages/geostats.tile_pyramid)."""
    from ..stages.geostats import tile_pyramid

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return tile_pyramid(ds, PYR_CELL, PYR_LEVELS)


def q_token_entropy(sf_dir: str):
    """Per-doc token entropy in integer micro-nats (stages/text
    .token_entropy_batch) — pure map_batches, no shuffle."""
    from ..stages.text import token_entropy_batch

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_entropy_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_json_prop(sf_dir: str):
    """Typed JSON prop pull from the events props column
    (stages/text.extract_json_int)."""
    from ..stages.text import extract_json_int

    ds = dt.read_table(sf_dir, "events", columns=["event_id", "props"])
    out = ds.map_batches(lambda b: extract_json_int(b, "k"),
                         batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["event_id", "k"])


def q_ols_trend(sf_dir: str):
    """Per-event-type OLS value trend (stages/regression.group_ols)."""
    from ..stages.regression import group_ols

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "event_type", "value"])
    return group_ols(ds, "event_type", "event_id", "value")


def q_mixture_sample(sf_dir: str):
    """Source-mixture downsampling (stages/sampling.mixture_sample):
    weight of srcN = (N+1)/210 over the 20 synthetic sources."""
    from ..stages.sampling import mixture_sample

    ds = dt.read_table(sf_dir, "documents",
                       columns=["doc_id", "source", "n_chars"])
    out = mixture_sample(ds, lambda s: (int(s[3:]) + 1) / 210.0)
    return out.select_columns(["doc_id", "source"])


def q_edit_distance(sf_dir: str):
    """Levenshtein verify over consecutive-id candidate pairs: pairs
    built by a hash-bucket join (doc k ⋈ doc k+1), then the batched DP
    kernel."""
    from ..functions.joins import bucket_join_attach
    from ..stages.dedup import edit_distance_verify_batch

    docs = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def as_left(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"),
                         "text_a": b.column("text")})

    def as_right(b: pa.Table) -> pa.Table:
        k = b.column("doc_id").to_numpy(zero_copy_only=False) - 1
        return pa.table({"doc_id": pa.array(k),
                         "text_b": b.column("text")})

    left = docs.map_batches(as_left, batch_format="pyarrow",
                            zero_copy_batch=True)
    right = docs.map_batches(as_right, batch_format="pyarrow",
                             zero_copy_batch=True)
    pairs = bucket_join_attach(left, right, key="doc_id")
    return pairs.map_batches(
        lambda b: edit_distance_verify_batch(b, max_chars=EDIT_MAX_CHARS),
        batch_format="pyarrow", zero_copy_batch=True)


def q_line_dedup(sf_dir: str):
    """Frequent-line removal (stages/scrub.line_dedup): pass-1 distinct
    (line, doc) partials → O(distinct lines) groupby → broadcast banned
    set → pass-2 vectorized rewrite."""
    from ..stages.scrub import line_dedup

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return line_dedup(ds, width=LINE_W, min_docs=LINE_MIN_DOCS)


def q_hex_kring(sf_dir: str):
    """H3-style k=1 ring aggregation on the hex lattice
    (stages/geostats.hex_kring): per occupied hex its own count, the
    7-cell ring total and the occupied-neighbor count — O(7 hexes)
    emission shuffle, never the points."""
    from ..stages.geostats import hex_kring

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return hex_kring(ds, HEX_SIZE)


def q_hexbin(sf_dir: str):
    """Hex binning (stages/geostats.hexbin): pointy-top axial hex ids
    with per-batch partial counts, so the groupby ships O(touched
    hexes) rows, not O(points)."""
    from ..stages.geostats import hexbin

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return hexbin(ds, HEX_SIZE)


def q_normalize_text(sf_dir: str):
    """NFC + whitespace canonicalization (stages/scrub.normalize_batch)
    with a deterministic decomposed-accent suffix so composition fires
    on every row."""
    from ..stages import scrub

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    letters = np.array([chr(65 + i) for i in range(26)])

    def add_suffix(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["doc_id"].to_numpy().astype(np.int64)
        batch = batch.copy()
        batch["text"] = (batch["text"].fillna("")
                         + pd.Series(letters[k % 26], index=batch.index)
                         + "\u0300")
        return batch

    out = ds.map_batches(add_suffix, batch_format="pandas").map_batches(
        scrub.normalize_batch, batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["doc_id", "norm_text", "changed"])


def q_zorder_key(sf_dir: str):
    """Z-order partition key (cells.zorder): Morton interleave of the
    500 m grid indices + the >>4 block id a range-partitioned writer
    would bucket by — SQL-exact via the same 4-step bit spread."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def add_z(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        ix, iy = cells.cell_indices(x, y, CELL_SIZE)
        z = cells.zorder(ix, iy).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "ix": pa.array(ix), "iy": pa.array(iy),
            "zkey": pa.array(z), "z_block": pa.array(z >> 4),
        })

    return ds.map_batches(add_z, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_group_centroids(sf_dir: str):
    """Per-label embedding centroids (stages/similarity.group_centroids):
    per-batch int64 micro-unit partial sums, one O(#groups x dim)
    shuffle."""
    from ..stages.similarity import group_centroids

    ds = dt.read_table(sf_dir, "embeddings",
                       columns=["vec_id", "label", "embedding"])
    return group_centroids(ds, EMB_DIM).select_columns(
        ["grp", "dim", "n", "sum_q"])


def q_trajectory(sf_dir: str):
    """Per-user trajectory rollup (stages/trajectory.trajectory_stats):
    hash-bucketed users, one lexsort + diff/reduceat kernel per bucket;
    step lengths quantized before the sum."""
    from ..stages.trajectory import trajectory_stats

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "ts", "user_id"])

    def add_xy(batch: pa.Table) -> pa.Table:
        k = batch.column("event_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        return (batch.append_column("x", pa.array(x))
                .append_column("y", pa.array(y)))

    pings = ds.map_batches(add_xy, batch_format="pyarrow",
                           zero_copy_batch=True)
    return trajectory_stats(pings).select_columns(
        ["user_id", "n_pings", "path_q", "disp_q"])


def q_percent_rank_tokens(sf_dir: str):
    """Global percent-rank of doc token counts
    (stages/quantiles.percent_rank): O(#distinct) histogram broadcast +
    stateless searchsorted lookup — no global sort, no row shuffle."""
    from ..stages.quantiles import percent_rank

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    toks = ds.map_batches(text.token_count_batch, batch_format="pyarrow",
                          zero_copy_batch=True).select_columns(
        ["doc_id", "n_tokens"])
    out = percent_rank(toks, "n_tokens")
    return out.select_columns(["doc_id", "n_tokens", "pct_rank_q6"])


def q_orders_by_nation(sf_dir: str):
    """Broadcast dim join (stages/enrich.broadcast_join): orders
    stream enriched with the customer's nation by sorted-key binary
    search (no shuffle), then a cents-quantized partial rollup per
    nation."""
    from ..stages.enrich import broadcast_join

    dim = pq.read_table(f"{sf_dir}/customer.parquet",
                        columns=["c_custkey", "c_nationkey"])
    orders = dt.read_table(sf_dir, "orders",
                           columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, dim, "o_custkey", "c_custkey",
                            ("c_nationkey",))

    def partial(batch: pa.Table) -> pa.Table:
        nat = batch.column("c_nationkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        q = np.round(p * 100.0).astype(np.int64)
        un, inv = np.unique(nat, return_inverse=True)
        s = np.zeros(len(un), dtype=np.int64)
        np.add.at(s, inv, q)
        n = np.bincount(inv, minlength=len(un)).astype(np.int64)
        return pa.table({"nation": pa.array(un), "pn": pa.array(n),
                         "pq": pa.array(s)})

    agg = joined.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).groupby(
        "nation").aggregate(Sum("pn", alias_name="n_orders"),
                            Sum("pq", alias_name="sum_price_q"))
    return agg


def q_slope_gradient(sf_dir: str):
    """Raster derivative (stages/terrain.point_gradient): 3x3
    central-difference gradient at each doc's center pixel through the
    kernel's tile store; NULLs at the stored extent's edge."""
    from ..stages.terrain import point_gradient

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    out = point_gradient(ds.select_columns(["doc_id", "x", "y"]),
                         _world_tiles_root(), band="ndvi",
                         res=synth.RASTER_RES)
    return out.select_columns(["doc_id", "gx_q", "gy_q", "slope_q"])


def q_orders_no_bulk_item(sf_dir: str):
    """Distributed anti-join (stages/setops.exists_join → bucket-exchange
    anti join, right side pre-collapsed to distinct keys):
    orders with no lineitem of quantity > 45."""
    from ..stages.setops import exists_join

    orders = dt.read_table(sf_dir, "orders",
                           columns=["o_orderkey", "o_totalprice"])
    items = dt.read_table(sf_dir, "lineitem",
                          columns=["l_orderkey", "l_quantity"])

    def bulk_only(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(q > 45.0))

    bulky = items.map_batches(bulk_only, batch_format="pyarrow",
                              zero_copy_batch=True)
    out = exists_join(orders, bulky, on="o_orderkey",
                      right_on="l_orderkey", anti=True)

    def emit(batch: pa.Table) -> pa.Table:
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "price_q": pa.array(np.round(p * 100.0).astype(np.int64)),
        })

    return out.map_batches(emit, batch_format="pyarrow",
                           zero_copy_batch=True)


def q_orders_with_bulk_item(sf_dir: str):
    """Distributed semi-join (stages/setops.exists_join, left_semi):
    orders with at least one lineitem of quantity > 45."""
    from ..stages.setops import exists_join

    orders = dt.read_table(sf_dir, "orders",
                           columns=["o_orderkey", "o_totalprice"])
    items = dt.read_table(sf_dir, "lineitem",
                          columns=["l_orderkey", "l_quantity"])

    def bulk_only(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(q > 45.0))

    bulky = items.map_batches(bulk_only, batch_format="pyarrow",
                              zero_copy_batch=True)
    out = exists_join(orders, bulky, on="o_orderkey",
                      right_on="l_orderkey")

    def emit(batch: pa.Table) -> pa.Table:
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "price_q": pa.array(np.round(p * 100.0).astype(np.int64)),
        })

    return out.map_batches(emit, batch_format="pyarrow",
                           zero_copy_batch=True)


def q_distinct_event_types(sf_dir: str):
    """Per-user exact distinct-count (stages/setops.distinct_count):
    pair-dedup partials -> O(#distinct pairs) shuffle -> tiny key
    rollup."""
    from ..stages.setops import distinct_count

    ds = dt.read_table(sf_dir, "events",
                       columns=["user_id", "event_type"])
    return distinct_count(ds, "user_id", "event_type")


def q_embedding_norms(sf_dir: str):
    """Per-vector L2 norms (stages/similarity.vector_norms): stateless
    vectorized map, exact-integer interior."""
    from ..stages.similarity import vector_norms

    ds = dt.read_table(sf_dir, "embeddings",
                       columns=["vec_id", "embedding"])
    return vector_norms(ds, EMB_DIM)


def q_media_ref_rollup(sf_dir: str):
    """Media-asset manifest over the interleaved spans schema
    (stages/multimodal.media_ref_rollup): explode media spans, parse
    tile refs, bucketed rollup of span + distinct-doc counts."""
    from ..stages.multimodal import media_ref_rollup

    w = _world_paths()
    docs = doc_src.read_documents(w["documents"])
    return media_ref_rollup(docs).select_columns(
        ["band", "tx", "ty", "n_spans", "n_docs"])


def q_span_fingerprint(sf_dir: str):
    """Per-doc span-sequence fingerprint over the interleaved table
    (stages/multimodal.span_fingerprint_batch) — the north rule's
    span-sequence-equality invariant as a value gate."""
    from ..stages.multimodal import span_fingerprint_batch

    w = _world_paths()
    docs = doc_src.read_documents(w["documents"])
    return docs.map_batches(span_fingerprint_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def q_compact_text_spans(sf_dir: str):
    """Text-only span compaction over the interleaved table
    (stages/multimodal.compact_text_spans_batch): drop media spans,
    preserve text-span order, re-fingerprint — the strip-media
    projection with the north rule's order invariant on the output."""
    from ..stages.multimodal import compact_text_spans_batch

    w = _world_paths()
    docs = doc_src.read_documents(w["documents"])
    return docs.map_batches(compact_text_spans_batch,
                            batch_format="pyarrow", zero_copy_batch=True)


def q_corpus_profile(sf_dir: str):
    """Corpus profiling rollup (stages/text.corpus_profile): per
    (source, lang) doc counts and char totals, partial-combined per
    batch."""
    ds = dt.read_table(sf_dir, "documents",
                       columns=["doc_id", "source", "lang", "n_chars"])
    return text.corpus_profile(ds)


# ---------------------------------------------------------------------------
# graph analytics + geostatistics batch (round 4): integer PageRank,
# standalone connected components, Moran's I, per-group min-max scaling
# ---------------------------------------------------------------------------

PR_ITERS = 3
PR_SCALE = 1_000_000
MORAN_CELL = 2_000.0
MM_Q_SCALE = 100.0


def q_pagerank(sf_dir: str):
    """Integer-exact PageRank (stages/graphalgo.pagerank) over the
    part→supplier supply graph (src = 2·l_partkey, dst = 2·l_suppkey+1
    — parity-disjoint node namespaces), 3 damped iterations in int64
    fixed point."""
    from ..stages.graphalgo import pagerank

    li = dt.read_table(sf_dir, "lineitem",
                       columns=["l_partkey", "l_suppkey"])

    def mk_edges(b: pa.Table) -> pa.Table:
        p = b.column("l_partkey").to_numpy(zero_copy_only=False)
        s = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        return pa.table({"src": p * 2, "dst": s * 2 + 1})

    edges = li.map_batches(mk_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return pagerank(edges, iters=PR_ITERS, scale=PR_SCALE)


def _pagerank_sql() -> str:
    """Unrolled k-iteration integer PageRank: identical floor divisions
    over identical int64s as stages/graphalgo.pagerank."""
    ctes = [
        "e AS (SELECT l_partkey * 2 AS src, l_suppkey * 2 + 1 AS dst"
        " FROM lineitem)",
        "nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(count(*) AS BIGINT) AS deg FROM e"
        " GROUP BY src)",
        f"r0 AS (SELECT node, CAST({PR_SCALE} AS BIGINT) AS r FROM nodes)",
    ]
    for i in range(1, PR_ITERS + 1):
        ctes.append(
            f"c{i} AS (SELECT e.dst AS node,"
            f" CAST(sum(r{i - 1}.r // od.deg) AS BIGINT) AS c"
            f" FROM e JOIN od ON od.src = e.src"
            f" JOIN r{i - 1} ON r{i - 1}.node = e.src GROUP BY e.dst)")
        ctes.append(
            f"r{i} AS (SELECT n.node,"
            f" (15 * {PR_SCALE} + 85 * coalesce(c.c, 0)) // 100 AS r"
            f" FROM nodes n LEFT JOIN c{i} c ON c.node = n.node)")
    return ("WITH " + ",\n    ".join(ctes)
            + f'\n    SELECT node, r AS "rank" FROM r{PR_ITERS}')


ORACLE_SQL["pagerank"] = _pagerank_sql()


def q_components(sf_dir: str):
    """Standalone connected components (stages/dedup
    .connected_components, the engine under near_dedup / dissolve) over
    the deterministic doubling graph k — 2k restricted to existing doc
    ids; component = min doc id of each chain."""
    from ..stages.dedup import connected_components
    from ..stages.setops import exists_join

    docs = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def half(b: pa.Table) -> pa.Table:
        k = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"key_a": k, "doc_id": k * 2})

    cand = docs.map_batches(half, batch_format="pyarrow",
                            zero_copy_batch=True)
    pairs = exists_join(cand, docs, on="doc_id").map_batches(
        lambda b: pa.table({"key_a": b.column("key_a"),
                            "key_b": b.column("doc_id")}),
        batch_format="pyarrow", zero_copy_batch=True)
    return connected_components(pairs)


ORACLE_SQL["components"] = """
    WITH RECURSIVE e0 AS (
      SELECT a.doc_id AS u, b.doc_id AS v
      FROM documents a JOIN documents b ON b.doc_id = a.doc_id * 2
    ),
    eset AS (SELECT u AS a, v AS b FROM e0
             UNION ALL SELECT v, u FROM e0),
    walk(node, comp) AS (
      SELECT a, a FROM eset
      UNION
      SELECT e.b, w.comp FROM walk w JOIN eset e ON e.a = w.node
    )
    SELECT node AS key, min(comp) AS component FROM walk GROUP BY node
"""


def q_gi_star(sf_dir: str):
    """Getis–Ord Gi* hot-spot z-score per occupied density cell
    (stages/geostats.getis_ord_gi_star): queen-window weights incl.
    self, exact int64 sufficient statistics, one closed-form double
    replayed token-for-token in SQL."""
    from ..stages.geostats import getis_ord_gi_star

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return getis_ord_gi_star(ds, MORAN_CELL)


ORACLE_SQL["gi_star"] = f"""
    WITH d AS (SELECT CAST(floor({_X} / {MORAN_CELL!r}) AS BIGINT) AS ix,
                      CAST(floor({_Y} / {MORAN_CELL!r}) AS BIGINT) AS iy
               FROM documents),
    c AS (SELECT ix, iy, CAST(count(*) AS BIGINT) AS x
          FROM d GROUP BY ix, iy),
    g AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(x) AS BIGINT) AS sx,
                 CAST(sum(x * x) AS BIGINT) AS sxx FROM c),
    nb AS (SELECT a.ix, a.iy, CAST(sum(b.x) AS BIGINT) AS nx,
                  CAST(count(*) AS BIGINT) AS w
           FROM c a JOIN c b
           ON abs(a.ix - b.ix) <= 1 AND abs(a.iy - b.iy) <= 1
           GROUP BY a.ix, a.iy)
    SELECT nb.ix, nb.iy, nb.w AS n_nbr,
           CAST(g.n * nb.nx - g.sx * nb.w AS DOUBLE)
             / sqrt(CAST(g.n * g.sxx - g.sx * g.sx AS DOUBLE)
                    * CAST(g.n * nb.w - nb.w * nb.w AS DOUBLE)
                    / CAST(g.n - 1 AS DOUBLE)) AS gi_star
    FROM nb, g
"""


def q_moran(sf_dir: str):
    """Global Moran's I of the doc-density grid (stages/geostats
    .morans_i): rook weights, exact int64 sufficient statistics, one
    closed-form double."""
    from ..stages.geostats import morans_i

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return morans_i(ds, MORAN_CELL)


ORACLE_SQL["moran"] = f"""
    WITH d AS (SELECT CAST(floor({_X} / {MORAN_CELL!r}) AS BIGINT) AS ix,
                      CAST(floor({_Y} / {MORAN_CELL!r}) AS BIGINT) AS iy
               FROM documents),
    c AS (SELECT ix, iy, CAST(count(*) AS BIGINT) AS n
          FROM d GROUP BY ix, iy),
    g AS (SELECT CAST(count(*) AS BIGINT) AS nc,
                 CAST(sum(n) AS BIGINT) AS s FROM c),
    z AS (SELECT ix, iy, g.nc * c.n - g.s AS z FROM c, g),
    nb AS (SELECT a.z AS zi, b.z AS zj FROM z a JOIN z b
           ON abs(a.ix - b.ix) + abs(a.iy - b.iy) = 1),
    t AS (SELECT CAST(count(*) AS BIGINT) AS w,
                 CAST(coalesce(sum(zi * zj), 0) AS BIGINT) AS cr FROM nb),
    ss AS (SELECT CAST(sum(z * z) AS BIGINT) AS v FROM z)
    SELECT g.nc AS n_cells, t.w AS w_pairs,
           CAST(g.nc AS DOUBLE) * CAST(t.cr AS DOUBLE)
             / (CAST(t.w AS DOUBLE) * CAST(ss.v AS DOUBLE)) AS moran_i
    FROM g, t, ss
"""


DBSCAN_CELL = 1_000.0
DBSCAN_MINPTS = 30

# cubic density warp: u ↦ u³/W² concentrates the uniform synth points
# toward the origin hard enough that BOTH gate sfs produce a real
# core/border/noise mix (minpts swept: sf0.01 → 20/144 core cells,
# sf0.1 → 247/340); expressions are left-assoc identical in numpy/SQL
_WX = f"({_X} * {_X} / {dt.WORLD!r} * {_X} / {dt.WORLD!r})"
_WY = f"({_Y} * {_Y} / {dt.WORLD!r} * {_Y} / {dt.WORLD!r})"


def q_dbscan(sf_dir: str):
    """Grid DBSCAN (stages/clustering.grid_dbscan) over the
    density-warped doc points: core/border/noise cells + deterministic
    min-key cluster labels."""
    from ..stages.clustering import grid_dbscan

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)

    def warp(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy(zero_copy_only=False)
        y = b.column("y").to_numpy(zero_copy_only=False)
        return pa.table({"x": x * x / dt.WORLD * x / dt.WORLD,
                         "y": y * y / dt.WORLD * y / dt.WORLD})

    pts = ds.map_batches(warp, batch_format="pyarrow",
                         zero_copy_batch=True)
    return grid_dbscan(pts, DBSCAN_CELL, DBSCAN_MINPTS)


ORACLE_SQL["dbscan"] = f"""
    WITH RECURSIVE d AS (
      SELECT CAST(floor({_WX} / {DBSCAN_CELL!r}) AS BIGINT) AS ix,
             CAST(floor({_WY} / {DBSCAN_CELL!r}) AS BIGINT) AS iy
      FROM documents),
    c AS (SELECT ix, iy, CAST(count(*) AS BIGINT) AS n
          FROM d GROUP BY ix, iy),
    ck AS (SELECT ix, iy, n, ix * 4294967296 + iy AS k FROM c),
    nj AS (SELECT a.k, CAST(sum(b.n) AS BIGINT) AS m
           FROM ck a JOIN ck b
             ON abs(a.ix - b.ix) <= 1 AND abs(a.iy - b.iy) <= 1
           GROUP BY a.k),
    core AS (SELECT ck.ix, ck.iy, ck.n, ck.k
             FROM ck JOIN nj ON nj.k = ck.k
             WHERE nj.m >= {DBSCAN_MINPTS}),
    eset AS (SELECT a.k AS a, b.k AS b FROM core a JOIN core b
             ON abs(a.ix - b.ix) <= 1 AND abs(a.iy - b.iy) <= 1),
    walk(node, comp) AS (
      SELECT a, a FROM eset
      UNION
      SELECT e.b, w.comp FROM walk w JOIN eset e ON e.a = w.node),
    comp AS (SELECT node, min(comp) AS cluster FROM walk GROUP BY node),
    corec AS (SELECT c.ix, c.iy, c.n, TRUE AS core, p.cluster
              FROM core c JOIN comp p ON p.node = c.k),
    border AS (SELECT x.ix, x.iy, x.n, FALSE AS core,
                      min(p.cluster) AS cluster
               FROM ck x JOIN core b
                 ON abs(x.ix - b.ix) <= 1 AND abs(x.iy - b.iy) <= 1
               JOIN comp p ON p.node = b.k
               WHERE x.k NOT IN (SELECT k FROM core)
               GROUP BY x.ix, x.iy, x.n),
    noise AS (SELECT x.ix, x.iy, x.n, FALSE AS core,
                     CAST(NULL AS BIGINT) AS cluster
              FROM ck x
              WHERE x.k NOT IN (SELECT k FROM core)
                AND NOT EXISTS (SELECT 1 FROM core b
                  WHERE abs(x.ix - b.ix) <= 1 AND abs(x.iy - b.iy) <= 1))
    SELECT * FROM corec UNION ALL SELECT * FROM border
    UNION ALL SELECT * FROM noise
"""


def q_minmax_scale(sf_dir: str):
    """Per-event-type min-max feature scaling (stages/enrich
    .group_minmax_scale): int64-quantized value, broadcast group stats,
    one double division."""
    from ..stages.enrich import group_minmax_scale

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "event_type", "value"])
    out = group_minmax_scale(ds, "event_type", "value",
                             q_scale=MM_Q_SCALE)
    return out.select_columns(["event_id", "event_type", "scaled"])


ORACLE_SQL["minmax_scale"] = f"""
    WITH q AS (SELECT event_id, event_type,
                 CAST(round(value * {MM_Q_SCALE!r}, 0) AS BIGINT) AS vq
               FROM events),
    g AS (SELECT event_type, min(vq) AS mn, max(vq) AS mx
          FROM q GROUP BY event_type)
    SELECT q.event_id, q.event_type,
           CASE WHEN g.mx = g.mn THEN NULL
                ELSE CAST(q.vq - g.mn AS DOUBLE)
                     / CAST(g.mx - g.mn AS DOUBLE)
           END AS scaled
    FROM q JOIN g USING (event_type)
"""


POSTINGS_MIN_DF = 5


def q_skyline(sf_dir: str):
    """Per-nation customer skyline (stages/topk.group_skyline):
    maximize cents-quantized acctbal, minimize custkey."""
    from ..stages.topk import group_skyline

    ds = dt.read_table(sf_dir, "customer",
                       columns=["c_nationkey", "c_custkey", "c_acctbal"])

    def quantize(b: pa.Table) -> pa.Table:
        bal = b.column("c_acctbal").to_numpy(zero_copy_only=False)
        return pa.table({
            "c_nationkey": b.column("c_nationkey"),
            "c_custkey": b.column("c_custkey"),
            "bal_q": np.round(bal * 100.0, 0).astype(np.int64),
        })

    q = ds.map_batches(quantize, batch_format="pyarrow",
                       zero_copy_batch=True)
    return group_skyline(q, "c_nationkey", "bal_q", "c_custkey")


ORACLE_SQL["skyline"] = """
    WITH q AS (SELECT c_nationkey, c_custkey,
                 CAST(round(c_acctbal * 100.0, 0) AS BIGINT) AS bal_q
               FROM customer)
    SELECT c_nationkey, c_custkey, bal_q FROM q a
    WHERE NOT EXISTS (
      SELECT 1 FROM q b
      WHERE b.c_nationkey = a.c_nationkey
        AND b.bal_q >= a.bal_q AND b.c_custkey <= a.c_custkey
        AND (b.bal_q > a.bal_q OR b.c_custkey < a.c_custkey))
"""


def q_postings(sf_dir: str):
    """Inverted-index postings (stages/text.build_postings): per-token
    document frequency + ascending comma-joined doc-id list,
    df ≥ POSTINGS_MIN_DF."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return text.build_postings(ds, min_df=POSTINGS_MIN_DF)


ORACLE_SQL["postings"] = rf"""
    WITH raw AS (
      SELECT doc_id,
             unnest(string_split_regex(lower(trim(coalesce(text, ''))),
                                       '\s+')) AS tok
      FROM documents),
    toks AS (SELECT DISTINCT doc_id, tok FROM raw WHERE tok <> ''),
    g AS (SELECT tok AS token, CAST(count(*) AS BIGINT) AS df,
            string_agg(CAST(doc_id AS VARCHAR), ','
                       ORDER BY doc_id) AS postings
          FROM toks GROUP BY tok)
    SELECT token, df, postings FROM g WHERE df >= {POSTINGS_MIN_DF}
"""


def q_compact_upsert(sf_dir: str):
    """Latest-wins upsert compaction (stages/compaction.compact_latest):
    base snapshot v1 merged with an uppercased v2 delta of every third
    doc."""
    from ..stages.compaction import compact_latest

    docs = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def as_base(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"),
                         "version": np.ones(b.num_rows, np.int64),
                         "text": b.column("text")})

    def as_update(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = b.column("doc_id").to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(k % 3 == 0)
        t = pc.utf8_upper(pc.fill_null(
            b.column("text").combine_chunks()
            if isinstance(b.column("text"), pa.ChunkedArray)
            else b.column("text"), "")).take(pa.array(sel))
        return pa.table({"doc_id": pa.array(k[sel]),
                         "version": np.full(len(sel), 2, np.int64),
                         "text": t})

    base = docs.map_batches(as_base, batch_format="pyarrow",
                            zero_copy_batch=True)
    upd = docs.map_batches(as_update, batch_format="pyarrow",
                           zero_copy_batch=True)
    return compact_latest(base, upd, "doc_id", "version")


ORACLE_SQL["compact_upsert"] = """
    WITH base AS (SELECT doc_id, CAST(1 AS BIGINT) AS version, text
                  FROM documents),
    upd AS (SELECT doc_id, CAST(2 AS BIGINT) AS version,
                   upper(coalesce(text, '')) AS text
            FROM documents WHERE doc_id % 3 = 0),
    u AS (SELECT * FROM base UNION ALL SELECT * FROM upd),
    r AS (SELECT doc_id, version, text,
            row_number() OVER (PARTITION BY doc_id
                               ORDER BY version DESC) AS rn
          FROM u)
    SELECT doc_id, version, text FROM r WHERE rn = 1
"""


def q_revenue_by_nation(sf_dir: str):
    """TPC-H Q5-family revenue rollup: lineitem (fact) ⋈ orders (fact,
    unique-key bucket hash join) ⋈ customer (broadcast dim) → exact
    integer 10⁻⁴-unit revenue per nation.  The fact-fact join is the
    100 TB shape: both sides hash-bucket on o_orderkey, only the
    2-column quantized fact projection moves."""
    from ..functions.joins import bucket_join_attach
    from ..stages.enrich import broadcast_join

    li = dt.read_table(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_extendedprice",
                                "l_discount"])
    orders = dt.read_table(sf_dir, "orders",
                           columns=["o_orderkey", "o_custkey"])

    def as_fact(b: pa.Table) -> pa.Table:
        p = np.round(b.column("l_extendedprice").to_numpy(
            zero_copy_only=False) * 100.0, 0).astype(np.int64)
        d = np.round(b.column("l_discount").to_numpy(
            zero_copy_only=False) * 100.0, 0).astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "rev_q": p * (100 - d)})

    fact = li.map_batches(as_fact, batch_format="pyarrow",
                          zero_copy_batch=True)
    joined = bucket_join_attach(fact, orders, key="o_orderkey")
    dim = pq.read_table(f"{sf_dir}/customer.parquet",
                        columns=["c_custkey", "c_nationkey"])
    enriched = broadcast_join(joined, dim, "o_custkey", "c_custkey",
                              ("c_nationkey",))

    def partial(batch: pa.Table) -> pa.Table:
        nat = batch.column("c_nationkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        r = batch.column("rev_q").to_numpy(zero_copy_only=False)
        un, inv = np.unique(nat, return_inverse=True)
        s = np.zeros(len(un), dtype=np.int64)
        np.add.at(s, inv, r)
        n = np.bincount(inv, minlength=len(un)).astype(np.int64)
        return pa.table({"nation": pa.array(un), "pn": pa.array(n),
                         "pq": pa.array(s)})

    agg = enriched.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True).groupby(
        "nation").aggregate(Sum("pn", alias_name="n_items"),
                            Sum("pq", alias_name="revq"))

    def fin(batch: pa.Table) -> pa.Table:
        rq = batch.column("revq").to_numpy(zero_copy_only=False)
        return pa.table({"nation": batch.column("nation"),
                         "n_items": batch.column("n_items"),
                         "revenue": rq.astype(np.float64) / 10000.0})

    return agg.map_batches(fin, batch_format="pyarrow",
                           zero_copy_batch=True)


ORACLE_SQL["revenue_by_nation"] = """
    WITH f AS (SELECT l_orderkey,
                 CAST(round(l_extendedprice * 100.0, 0) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100.0, 0) AS BIGINT))
                   AS rev_q
               FROM lineitem),
    j AS (SELECT CAST(c.c_nationkey AS BIGINT) AS nation, f.rev_q
          FROM f JOIN orders o ON o.o_orderkey = f.l_orderkey
          JOIN customer c ON c.c_custkey = o.o_custkey),
    g AS (SELECT nation, CAST(count(*) AS BIGINT) AS n_items,
            CAST(sum(rev_q) AS BIGINT) AS revq
          FROM j GROUP BY nation)
    SELECT nation, n_items, CAST(revq AS DOUBLE) / 10000.0 AS revenue
    FROM g
"""


def q_window_dedup(sf_dir: str):
    """First event per (user, tumbling minute window) — the throttling
    / event-hygiene dedup (stages/dedup.bucket_dedup with the window
    key: duplicates co-locate by hash bucket, min event_id survives)."""
    from ..stages.dedup import bucket_dedup

    ev = dt.read_table(sf_dir, "events",
                       columns=["event_id", "user_id", "ts"])

    def add_window(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({"event_id": b.column("event_id"),
                         "user_id": b.column("user_id"),
                         "win": us // 60_000_000})

    w = ev.map_batches(add_window, batch_format="pyarrow",
                       zero_copy_batch=True)
    return bucket_dedup(w, subset=["user_id", "win"],
                        sort_by="event_id")


ORACLE_SQL["window_dedup"] = """
    WITH w AS (SELECT event_id, user_id,
                 epoch_us(ts) // 60000000 AS win
               FROM events),
    r AS (SELECT event_id, user_id, win,
            row_number() OVER (PARTITION BY user_id, win
                               ORDER BY event_id) AS rn
          FROM w)
    SELECT event_id, user_id, win FROM r WHERE rn = 1
"""


CT_PX = 64
CT_RES = 10.0
CT_GRID = 8
CT_DATES = 3
CT_PHASE = 1500.0
CT_EDGE = CT_PX * CT_RES


def q_max_composite(sf_dir: str):
    """Multi-date greenest-pixel composite (stages/composite
    .max_composite_stats): 3 co-registered synthetic NDVI observations
    per tile (date d = the closed-form field phase-shifted by d·1500 m
    in x), per-pixel max, exact int64 tile statistics."""
    import ray.data as _rd

    from ..sources.synth import field_ndvi
    from ..stages.composite import max_composite_stats

    n = CT_GRID * CT_GRID * CT_DATES
    col = (np.arange(CT_PX) + 0.5) * CT_RES

    def gen(batch: pa.Table) -> pa.Table:
        k = batch.column("id").to_numpy(zero_copy_only=False)
        d = k % CT_DATES
        t = k // CT_DATES
        txs, tys = t // CT_GRID, t % CT_GRID
        vals = []
        for tx, ty, dd in zip(txs, tys, d):
            xs = tx * CT_EDGE + col + dd * CT_PHASE
            ys = ty * CT_EDGE + col
            gx, gy = np.meshgrid(xs, ys, indexing="xy")
            vals.append(field_ndvi(gx, gy).ravel())
        return pa.table({
            "tx": pa.array(txs), "ty": pa.array(tys),
            "date": pa.array(d),
            "vals": pa.array(list(vals),
                             pa.list_(pa.float64())),
        })

    tiles = _rd.range(n, override_num_blocks=16).map_batches(
        gen, batch_format="pyarrow", zero_copy_batch=True)
    return max_composite_stats(tiles, CT_DATES)


def _composite_sql() -> str:
    def f(shift: float) -> str:
        if shift == 0.0:
            return _NDVI_SQL
        return _NDVI_SQL.replace("px", f"(px + {shift!r})")

    dates = ", ".join(f(d * CT_PHASE) for d in range(CT_DATES))
    return f"""
    WITH t AS (SELECT a.i AS tx, b.i AS ty
               FROM range(0, {CT_GRID}) a(i)
               CROSS JOIN range(0, {CT_GRID}) b(i)),
    p AS (SELECT tx, ty,
            (tx * {CT_EDGE!r} + (i.i + 0.5) * {CT_RES!r}) AS px,
            (ty * {CT_EDGE!r} + (j.j + 0.5) * {CT_RES!r}) AS py
          FROM t CROSS JOIN range(0, {CT_PX}) i(i)
          CROSS JOIN range(0, {CT_PX}) j(j)),
    v AS (SELECT tx, ty, greatest({dates}) AS v FROM p),
    q AS (SELECT tx, ty,
            CAST(round(v * 1000000.0, 0) AS BIGINT) AS vq FROM v),
    g AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n_px,
            CAST(sum(vq) AS BIGINT) AS sum_q FROM q GROUP BY tx, ty)
    SELECT tx, ty, n_px, sum_q,
           CAST(sum_q AS DOUBLE) / n_px / 1000000.0 AS mean_v
    FROM g
    """


ORACLE_SQL["max_composite"] = _composite_sql()


def q_hll_registers(sf_dir: str):
    """HyperLogLog register table (stages/sketch.hll_registers, p=8)
    over the lowercased corpus token stream — the mergeable
    approximate-distinct sketch, integer-exact per register."""
    from ..stages.sketch import hll_registers
    from ..stages.text import _ws_token_lists

    ds = dt.read_table(sf_dir, "documents", columns=["text"])

    def toks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, _, nonempty = _ws_token_lists(col)
        low = pc.utf8_lower(flat).filter(pa.array(nonempty))
        return pa.table({"tok": low})

    stream = ds.map_batches(toks, batch_format="pyarrow",
                            zero_copy_batch=True)
    return hll_registers(stream, "tok")


ORACLE_SQL["hll_registers"] = r"""
    WITH toks AS (
      SELECT unnest(string_split_regex(lower(trim(text)), '\s+')) AS tok
      FROM documents WHERE trim(text) <> ''
    ),
    h AS (
      SELECT list_reduce(
        list_prepend(1469598103934665603::HUGEINT,
          list_transform(regexp_extract_all(tok, '.'),
                         c -> ascii(c)::HUGEINT)),
        (a, b) -> (a * 1000003 + b)
                  % 18446744073709551616::HUGEINT) AS th
      FROM toks WHERE tok <> ''
    ),
    -- th·PHI mod 2^64 without INT128 overflow: PHI split into 32-bit
    -- halves (2654435769·2^32 + 2135587861), each partial < 2^97
    mx AS (SELECT (((th * 2654435769::HUGEINT)
                    % 4294967296::HUGEINT) * 4294967296::HUGEINT
                   + th * 2135587861::HUGEINT)
                  % 18446744073709551616::HUGEINT AS mh FROM h),
    r AS (SELECT mh // 72057594037927936::HUGEINT AS reg,
                 mh % 72057594037927936::HUGEINT AS hp FROM mx),
    rb AS (SELECT reg,
             coalesce((SELECT min(i.i) FROM range(1, 57) i(i)
                       WHERE (hp >> CAST(56 - i.i AS INTEGER)) % 2 = 1),
                      57) AS rho
           FROM r)
    SELECT CAST(reg AS BIGINT) AS register, max(rho) AS rho
    FROM rb GROUP BY reg
"""


def q_cms_registers(sf_dir: str):
    """Count-min sketch register table (stages/sketch.cms_registers,
    d=4, w=64) over the lowercased corpus token stream — the mergeable
    frequency sketch, integer-exact per register (splitmix64 row
    constants replayed via the HLL oracle's 32-bit-split HUGEINT
    multiply)."""
    from ..stages.sketch import cms_registers
    from ..stages.text import _ws_token_lists

    ds = dt.read_table(sf_dir, "documents", columns=["text"])

    def toks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, _, nonempty = _ws_token_lists(col)
        low = pc.utf8_lower(flat).filter(pa.array(nonempty))
        return pa.table({"tok": low})

    stream = ds.map_batches(toks, batch_format="pyarrow",
                            zero_copy_batch=True)
    return cms_registers(stream, "tok")


# count-min registers: same poly-hash token stream as hll_registers;
# each row constant C is split hi·2^32+lo so th·C mod 2^64 stays inside
# HUGEINT; cell = top 6 bits
ORACLE_SQL["cms_registers"] = r"""
    WITH toks AS (
      SELECT unnest(string_split_regex(lower(trim(text)), '\s+')) AS tok
      FROM documents WHERE trim(text) <> ''
    ),
    h AS (
      SELECT list_reduce(
        list_prepend(1469598103934665603::HUGEINT,
          list_transform(regexp_extract_all(tok, '.'),
                         c -> ascii(c)::HUGEINT)),
        (a, b) -> (a * 1000003 + b)
                  % 18446744073709551616::HUGEINT) AS th
      FROM toks WHERE tok <> ''
    ),
    consts AS (SELECT * FROM (VALUES
      (0, 2654435769::HUGEINT, 2135587861::HUGEINT),
      (1, 3210233709::HUGEINT, 484763065::HUGEINT),
      (2, 2496678331::HUGEINT, 321982955::HUGEINT),
      (3, 3605593784::HUGEINT, 1717173651::HUGEINT)) c(r, hi, lo)),
    mx AS (SELECT c.r,
             (((h.th * c.hi) % 4294967296::HUGEINT) * 4294967296::HUGEINT
              + h.th * c.lo)
             % 18446744073709551616::HUGEINT AS mh
           FROM h CROSS JOIN consts c)
    SELECT CAST(r AS BIGINT) AS "row",
           CAST(mh // 288230376151711744::HUGEINT AS BIGINT) AS cell,
           count(*) AS n
    FROM mx GROUP BY 1, 2
"""


def q_triangles(sf_dir: str):
    """Global wedge + triangle count (stages/graphalgo.triangle_count)
    over the deterministic chain graph {(k, k+1)} ∪ {(k, k+2): k even}
    — one triangle per even k."""
    from ..stages.graphalgo import triangle_count
    from ..stages.setops import exists_join

    docs = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def plus(step: int, even_only: bool):
        def fn(b: pa.Table) -> pa.Table:
            k = b.column("doc_id").to_numpy(zero_copy_only=False)
            if even_only:
                k = k[k % 2 == 0]
            return pa.table({"u": pa.array(k), "doc_id": k + step})
        return fn

    e1 = exists_join(docs.map_batches(plus(1, False),
                                      batch_format="pyarrow",
                                      zero_copy_batch=True),
                     docs, on="doc_id")
    e2 = exists_join(docs.map_batches(plus(2, True),
                                      batch_format="pyarrow",
                                      zero_copy_batch=True),
                     docs, on="doc_id")
    edges = e1.union(e2).map_batches(
        lambda b: pa.table({"u": b.column("u"),
                            "v": b.column("doc_id")}),
        batch_format="pyarrow", zero_copy_batch=True)
    return triangle_count(edges)


ORACLE_SQL["triangles"] = """
    WITH ids AS (SELECT doc_id FROM documents),
    e AS (
      SELECT a.doc_id AS u, b.doc_id AS v
      FROM ids a JOIN ids b ON b.doc_id = a.doc_id + 1
      UNION ALL
      SELECT a.doc_id, b.doc_id
      FROM ids a JOIN ids b ON b.doc_id = a.doc_id + 2
      WHERE a.doc_id % 2 = 0
    ),
    deg AS (SELECT node, count(*) AS d
            FROM (SELECT u AS node FROM e
                  UNION ALL SELECT v FROM e) GROUP BY node),
    w AS (SELECT sum(d * (d - 1) // 2) AS n FROM deg),
    t AS (SELECT count(*) AS n FROM e a
          JOIN e b ON a.u = b.u AND a.v < b.v
          JOIN e c ON c.u = a.v AND c.v = b.v)
    SELECT CAST(w.n AS BIGINT) AS n_wedges,
           CAST(t.n AS BIGINT) AS n_triangles
    FROM w, t
"""


def q_embedding_gram(sf_dir: str):
    """Exact integer Gram matrix of the embedding table
    (stages/similarity.embedding_gram): d² partial rows per batch via
    one int64 matmul, one O(d²) groupby."""
    from ..stages.similarity import embedding_gram

    ds = dt.read_table(sf_dir, "embeddings", columns=["embedding"])
    return embedding_gram(ds)


ORACLE_SQL["embedding_gram"] = """
    WITH e AS (SELECT vec_id, r.i AS i,
                 CAST(round(CAST(embedding[CAST(r.i + 1 AS INTEGER)]
                                 AS DOUBLE) * 10000.0, 0) AS BIGINT) AS q
               FROM embeddings CROSS JOIN range(0, 64) r(i)),
    p AS (SELECT a.i AS i, b.i AS j, a.q * b.q AS g
          FROM e a JOIN e b ON a.vec_id = b.vec_id),
    s AS (SELECT i, j, CAST(sum(g) AS BIGINT) AS gram_q
          FROM p GROUP BY i, j)
    SELECT i, j, gram_q,
           CAST(gram_q AS DOUBLE) / 100000000.0 AS gram
    FROM s
"""


QUERIES = {
    "triangles": q_triangles,
    "embedding_gram": q_embedding_gram,
    "hll_registers": q_hll_registers,
    "cms_registers": q_cms_registers,
    "max_composite": q_max_composite,
    "revenue_by_nation": q_revenue_by_nation,
    "window_dedup": q_window_dedup,
    "skyline": q_skyline,
    "postings": q_postings,
    "compact_upsert": q_compact_upsert,
    "dbscan": q_dbscan,
    "pagerank": q_pagerank,
    "components": q_components,
    "moran": q_moran,
    "gi_star": q_gi_star,
    "minmax_scale": q_minmax_scale,
    "corpus_profile": q_corpus_profile,
    "orders_with_bulk_item": q_orders_with_bulk_item,
    "media_ref_rollup": q_media_ref_rollup,
    "span_fingerprint": q_span_fingerprint,
    "compact_text_spans": q_compact_text_spans,
    "orders_no_bulk_item": q_orders_no_bulk_item,
    "distinct_event_types": q_distinct_event_types,
    "embedding_norms": q_embedding_norms,
    "slope_gradient": q_slope_gradient,
    "orders_by_nation": q_orders_by_nation,
    "trajectory": q_trajectory,
    "percent_rank_tokens": q_percent_rank_tokens,
    "zorder_key": q_zorder_key,
    "group_centroids": q_group_centroids,
    "sequence_pack": q_sequence_pack,
    "chunk_plan": q_chunk_plan,
    "unigram_logprob": q_unigram_logprob,
    "kde_grid": q_kde_grid,
    "hexbin": q_hexbin,
    "hex_kring": q_hex_kring,
    "snap_to_road": q_snap_to_road,
    "viterbi_match": q_viterbi_match,
    "line_dedup": q_line_dedup,
    "edit_distance": q_edit_distance,
    "mixture_sample": q_mixture_sample,
    "ols_trend": q_ols_trend,
    "token_entropy": q_token_entropy,
    "tile_pyramid": q_tile_pyramid,
    "rasterize_coverage": q_rasterize_coverage,
    "focal_stats": q_focal_stats,
    "filter_chain": q_filter_chain,
    "partition_checksum": q_partition_checksum,
    "json_prop": q_json_prop,
    "normalize_text": q_normalize_text,
    "idw_interpolation": q_idw_interpolation,
    "haversine_nearest": q_haversine_nearest,
    "pii_redact": q_pii_redact,
    "repetition": q_repetition,
    "decontaminate": q_decontaminate,
    "geometry_validators": q_geometry_validators,
    "dedup_undirected_edges": q_dedup_undirected_edges,
    "regrid_3857": q_regrid_3857,
    "project_3395": q_project_3395,
    "project_utm": q_project_utm,
    "bbox_wgs84": q_bbox_wgs84,
    "buffer_vertices": q_buffer_vertices,
    "polygon_centroid": q_polygon_centroid,
    "hash_split": q_hash_split,
    "topk_per_split": q_topk_per_split,
    "token_quantiles": q_token_quantiles,
    "winsorize": q_winsorize,
    "tfidf_topk": q_tfidf_topk,
    "stratified_sample": q_stratified_sample,
    "bigram_topk": q_bigram_topk,
    "sessionize": q_sessionize,
    "funnel": q_funnel,
    "rolling_window": q_rolling_window,
    "user_mode": q_user_mode,
    "cohort_retention": q_cohort_retention,
    "resample_hourly": q_resample_hourly,
    "bm25_topk": q_bm25_topk,
    "cell_assignment": q_cell_assignment,
    "bbox": q_bbox,
    "knn_greenspace": q_knn_greenspace,
    "pip_count": q_pip_count,
    "pip_count_shuffle": q_pip_count_shuffle,
    "stac_lowest_cloud": q_stac_lowest_cloud,
    "zonal_mean_ndvi": q_zonal_mean_ndvi,
    "landcover_pct": q_landcover_pct,
    "dedup_exact": q_dedup_exact,
    "token_count": q_token_count,
    "quality": q_quality,
    "langid": q_langid,
    "fingerprint": q_fingerprint,
    "minhash_lsh": q_minhash_lsh,
    "near_dedup": q_near_dedup,
    "simhash": q_simhash,
    "embedding_topk": q_embedding_topk,
    "embedding_near_dup": q_embedding_near_dup,
    "events_window": q_events_window,
    "asof_last_order": q_asof_last_order,
    "range_join_count": q_range_join_count,
    "pricing_summary": q_pricing_summary,
    "canopy_pct_rect": q_canopy_pct_rect,
    "line_buffer_ndvi": q_line_buffer_ndvi,
    "cosine_pairs_exact": q_cosine_pairs_exact,
    "spans_mean_ndvi_metrics": q_spans_mean_ndvi_metrics,
    "spans_mean_ndvi_payload": q_spans_mean_ndvi_payload,
    "viewshed_gvi": q_viewshed_gvi,
    "zonal_median": q_zonal_median,
    "raster_downsample": q_raster_downsample,
    "contour_census": q_contour_census,
    "composite_exposure": q_composite_exposure,
    "streetview_gvi": q_streetview_gvi,
    "canopy_pct": q_canopy_pct,
    "greenspace_pct": q_greenspace_pct,
    "network_distance": q_network_distance,
    "od_matrix": q_od_matrix,
    "fca_access": q_fca_access,
    "gravity_access": q_gravity_access,
    "e2sfca_access": q_e2sfca_access,
    "isochrone_ndvi": q_isochrone_ndvi,
    "isochrone_landcover": q_isochrone_landcover,
    "isochrone_greenspace": q_isochrone_greenspace,
    "dissolve": q_dissolve,
    "dissolve_min_area": q_dissolve_min_area,
    "dissolve_distributed": q_dissolve_distributed,
    "ivf_topk": q_ivf_topk,
    "polygon_ndvi": q_polygon_ndvi,
    "polygon_ndvi_buffered": q_polygon_ndvi_buffered,
    "polygon_landcover": q_polygon_landcover,
    "polygon_canopy": q_polygon_canopy,
    "polygon_canopy_buffered": q_polygon_canopy_buffered,
    "polygon_greenspace": q_polygon_greenspace,
    "polygon_viewshed": q_polygon_viewshed,
    "polygon_streetview": q_polygon_streetview,
    "streetview_quarters": q_streetview_quarters,
}


# ---------------------------------------------------------------------------
# Round 4 (cont.): OLAP rollup / pivot / pearson / interval-overlap join
# ---------------------------------------------------------------------------

def q_rollup_revenue(sf_dir: str):
    """GROUP BY ROLLUP(priority, year) revenue (stages/olap.rollup_sum):
    one raw-row shuffle at the finest grain, coarser levels re-aggregate
    the tiny fine table."""
    from ..stages.olap import rollup_sum

    ds = dt.read_table(sf_dir, "orders",
                       columns=["o_orderpriority", "o_orderdate",
                                "o_totalprice"])

    def add_year(b: pa.Table) -> pa.Table:
        yr = b.column("o_orderdate").to_pandas().dt.year.to_numpy()
        return pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "o_year": pa.array(yr.astype(np.int64)),
            "o_totalprice": b.column("o_totalprice"),
        })

    wide = ds.map_batches(add_year, batch_format="pyarrow",
                          zero_copy_batch=True)
    return rollup_sum(wide, ["o_orderpriority", "o_year"],
                      "o_totalprice")


ORACLE_SQL["rollup_revenue"] = """
    WITH q AS (SELECT o_orderpriority,
                 CAST(year(o_orderdate) AS BIGINT) AS o_year,
                 CAST(round(o_totalprice * 100.0, 0) AS BIGINT) AS cents
               FROM orders)
    SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
           COALESCE(o_year, -1) AS o_year,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(cents) AS BIGINT) AS sum_q,
           CAST(2 - GROUPING(o_orderpriority) - GROUPING(o_year)
                AS BIGINT) AS lvl
    FROM q GROUP BY ROLLUP(o_orderpriority, o_year)
"""


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_pivot_user_events(sf_dir: str):
    """Long→wide pivot: per-user count + cents-sum per event type
    (stages/olap.pivot_count_sum; shuffle payload O(#users))."""
    from ..stages.olap import pivot_count_sum

    ds = dt.read_table(sf_dir, "events",
                       columns=["user_id", "event_type", "value"])
    return pivot_count_sum(ds, "user_id", "event_type", _EVENT_TYPES,
                           "value")


ORACLE_SQL["pivot_user_events"] = """
    WITH q AS (SELECT user_id, event_type,
                 CAST(round(value * 100.0, 0) AS BIGINT) AS vq
               FROM events)
    SELECT user_id,
""" + ",\n".join(
    f"""           CAST(count(*) FILTER (event_type = '{t}') AS BIGINT)
             AS n_{t},
           CAST(COALESCE(sum(vq) FILTER (event_type = '{t}'), 0)
                AS BIGINT) AS sum_{t}"""
    for t in _EVENT_TYPES) + """
    FROM q GROUP BY user_id
"""


def q_pearson(sf_dir: str):
    """Per-event-type Pearson r between event_id and quantized value
    (stages/regression.group_pearson; exact integer moments)."""
    from ..stages.regression import group_pearson

    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "event_type", "value"])
    return group_pearson(ds, "event_type", "event_id", "value")


ORACLE_SQL["pearson"] = """
    WITH q AS (SELECT event_type, event_id AS x,
                 CAST(round(value * 100.0, 0) AS BIGINT) AS yq
               FROM events),
    s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
            CAST(sum(x) AS BIGINT) AS sx, CAST(sum(yq) AS BIGINT) AS sy,
            CAST(sum(x * yq) AS BIGINT) AS sxy,
            CAST(sum(x * x) AS BIGINT) AS sxx,
            CAST(sum(yq * yq) AS BIGINT) AS syy
          FROM q GROUP BY event_type),
    f AS (SELECT event_type, n,
            CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE) AS varx,
            CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
              - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) AS vary,
            CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE) AS num
          FROM s)
    SELECT event_type, n,
           CASE WHEN varx > 0.0 AND vary > 0.0
                THEN num / sqrt(varx * vary) ELSE NULL END AS r
    FROM f
"""


_N_WINDOWS = 30
_WIN_US = 86_400_000_000  # one day in microseconds
_WIN_BASE_US = 1_704_067_200_000_000  # epoch_us('2024-01-01')


def q_window_overlap(sf_dir: str):
    """Interval-overlap join: events extended to [ts, ts+dur] intervals
    counted into daily maintenance windows (stages/olap.
    interval_overlap_count; broadcast small side, no row shuffle)."""
    from ..stages.olap import interval_overlap_count

    wins = pa.table({
        "w_id": pa.array(np.arange(_N_WINDOWS, dtype=np.int64)),
        "w_start": pa.array(_WIN_BASE_US
                            + np.arange(_N_WINDOWS, dtype=np.int64)
                            * _WIN_US),
        "w_end": pa.array(_WIN_BASE_US + _WIN_US - 1
                          + np.arange(_N_WINDOWS, dtype=np.int64)
                          * _WIN_US),
    })
    ds = dt.read_table(sf_dir, "events",
                       columns=["event_id", "ts", "value"])

    def to_intervals(b: pa.Table) -> pa.Table:
        s = b.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        dur = (b.column("event_id").to_numpy(zero_copy_only=False)
               % 3600 + 60) * 1_000_000
        return pa.table({
            "s": pa.array(s), "e": pa.array(s + dur),
            "value": b.column("value"),
        })

    iv = ds.map_batches(to_intervals, batch_format="pyarrow",
                        zero_copy_batch=True)
    return interval_overlap_count(iv, wins, "s", "e",
                                  value_col="value")


ORACLE_SQL["window_overlap"] = f"""
    WITH w AS (SELECT CAST(i AS BIGINT) AS w_id,
                 {_WIN_BASE_US} + i * {_WIN_US} AS w_start,
                 {_WIN_BASE_US} + {_WIN_US} - 1 + i * {_WIN_US} AS w_end
               FROM range({_N_WINDOWS}) t(i)),
    ev AS (SELECT epoch_us(ts) AS s,
             epoch_us(ts) + ((event_id % 3600) + 60) * 1000000 AS e,
             CAST(round(value * 100.0, 0) AS BIGINT) AS vq
           FROM events)
    SELECT w.w_id,
           CAST(count(ev.s) AS BIGINT) AS n_overlap,
           CAST(COALESCE(sum(ev.vq), 0) AS BIGINT) AS sum_q
    FROM w LEFT JOIN ev ON ev.s <= w.w_end AND ev.e >= w.w_start
    GROUP BY w.w_id
"""


QUERIES["rollup_revenue"] = q_rollup_revenue
QUERIES["pivot_user_events"] = q_pivot_user_events
QUERIES["pearson"] = q_pearson
QUERIES["window_overlap"] = q_window_overlap


def q_cube_revenue(sf_dir: str):
    """GROUP BY CUBE(priority, year) revenue (stages/olap.cube_sum):
    all four grouping sets derived from one finest-grain shuffle."""
    from ..stages.olap import cube_sum

    ds = dt.read_table(sf_dir, "orders",
                       columns=["o_orderpriority", "o_orderdate",
                                "o_totalprice"])

    def add_year(b: pa.Table) -> pa.Table:
        yr = b.column("o_orderdate").to_pandas().dt.year.to_numpy()
        return pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "o_year": pa.array(yr.astype(np.int64)),
            "o_totalprice": b.column("o_totalprice"),
        })

    wide = ds.map_batches(add_year, batch_format="pyarrow",
                          zero_copy_batch=True)
    return cube_sum(wide, ["o_orderpriority", "o_year"],
                    "o_totalprice")


ORACLE_SQL["cube_revenue"] = """
    WITH q AS (SELECT o_orderpriority,
                 CAST(year(o_orderdate) AS BIGINT) AS o_year,
                 CAST(round(o_totalprice * 100.0, 0) AS BIGINT) AS cents
               FROM orders)
    SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
           COALESCE(o_year, -1) AS o_year,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(cents) AS BIGINT) AS sum_q,
           CAST((1 - GROUPING(o_orderpriority))
                + 2 * (1 - GROUPING(o_year)) AS BIGINT) AS lvl
    FROM q GROUP BY CUBE(o_orderpriority, o_year)
"""


def q_box_overlap_join(sf_dir: str):
    """Box↔box overlap join (2-D range join): per-doc square buffers ×
    part rects via the ownership-cell groupby shuffle
    (stages/spatial_join.cell_box_join) — each overlapping pair is
    reported from exactly one grid cell, no distinct pass."""
    from ..stages.spatial_join import cell_box_join

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)

    def to_boxes(b: pa.Table) -> pa.Table:
        k = b.column("doc_id").to_numpy(zero_copy_only=False)
        x = b.column("x").to_numpy(zero_copy_only=False)
        y = b.column("y").to_numpy(zero_copy_only=False)
        r = 50.0 + (k % 7).astype(np.float64) * 25.0
        return pa.table({
            "doc_id": b.column("doc_id"),
            "bx0": pa.array(x - r), "by0": pa.array(y - r),
            "bx1": pa.array(x + r), "by1": pa.array(y + r),
        })

    boxes = ds.map_batches(to_boxes, batch_format="pyarrow",
                           zero_copy_batch=True)
    return cell_box_join(boxes, _rects_from_part(sf_dir),
                         cell_size=CELL_SIZE)


ORACLE_SQL["box_overlap_join"] = f"""
    WITH boxes AS (SELECT doc_id,
             {_X} - (50.0 + (doc_id % 7) * 25.0) AS bx0,
             {_Y} - (50.0 + (doc_id % 7) * 25.0) AS by0,
             {_X} + (50.0 + (doc_id % 7) * 25.0) AS bx1,
             {_Y} + (50.0 + (doc_id % 7) * 25.0) AS by1
           FROM documents),
    rects AS (
      SELECT p_partkey AS gs_id,
             {_GX} - (100.0 + (p_partkey * 13) % 400) AS x0,
             {_GX} + (100.0 + (p_partkey * 13) % 400) AS x1,
             {_GY} - (100.0 + (p_partkey * 29) % 500) AS y0,
             {_GY} + (100.0 + (p_partkey * 29) % 500) AS y1
      FROM part
    )
    SELECT boxes.doc_id, rects.gs_id
    FROM boxes JOIN rects
      ON boxes.bx0 <= rects.x1 AND boxes.bx1 >= rects.x0
     AND boxes.by0 <= rects.y1 AND boxes.by1 >= rects.y0
"""


QUERIES["cube_revenue"] = q_cube_revenue
QUERIES["box_overlap_join"] = q_box_overlap_join


def q_frame_sample_plan(sf_dir: str):
    """Video frame-sampling schedule over the interleaved table
    (stages/multimodal.frame_sample_plan): distinct media assets × 8
    evenly-spaced deterministic frame indices, pre-deduped per batch."""
    from ..stages.multimodal import frame_sample_plan

    w = _world_paths()
    docs = doc_src.read_documents(w["documents"])
    return frame_sample_plan(docs).select_columns(
        ["band", "tx", "ty", "n_frames", "frame_idx"])


def q_sorted_docs(sf_dir: str):
    """Global sort + limit with dense output rank (SURVEY §2.6 output
    ordering as a value gate): top-100 docs by (n_chars DESC, doc_id)."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    top = ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(100)
    t = pa.Table.from_pandas(top.to_pandas(),
                             preserve_index=False)  # 100 rows — rank stamp
    return t.append_column(
        "rank", pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)))


ORACLE_SQL["sorted_docs"] = """
    SELECT doc_id, n_chars,
           CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id)
                AS BIGINT) AS rank
    FROM documents
    ORDER BY n_chars DESC, doc_id
    LIMIT 100
"""


QUERIES["frame_sample_plan"] = q_frame_sample_plan
QUERIES["sorted_docs"] = q_sorted_docs


def _lsh_topk_sql() -> str:
    """LSH-ANN oracle: the deterministic integer hyperplanes embedded
    as literals; signature dots are exact (|Σ eq·h| < 2^53), so the
    bucket assignment matches the engine bit-for-bit; candidates =
    DISTINCT pairs sharing any band bucket; cosine re-rank over the
    same quantized ints."""
    H = similarity.lsh_planes(EMB_DIM, 16)
    per = 16 // 4
    qids = ", ".join(str(q) for q in TOPK_QUERY_IDS)
    rows = ",\n          ".join(
        "({}, [{}])".format(p, ", ".join(str(int(v)) for v in H[p]))
        for p in range(16))
    return f"""
        WITH planes(p, h) AS (VALUES {rows}),
        e AS (SELECT vec_id,
                list_transform(CAST(embedding AS DOUBLE[]),
                               x -> round(x * 1000000.0)) AS eq
              FROM embeddings),
        bits AS (
          SELECT e.vec_id, planes.p,
                 CASE WHEN list_dot_product(e.eq, CAST(planes.h AS DOUBLE[]))
                      >= 0.0 THEN 1 ELSE 0 END AS b
          FROM e CROSS JOIN planes
        ),
        codes AS (
          SELECT vec_id, p // {per} AS band,
                 CAST(sum(b * (1 << (p % {per}))) AS BIGINT) AS code
          FROM bits GROUP BY vec_id, p // {per}
        ),
        qcodes AS (SELECT vec_id AS qid, band, code FROM codes
                   WHERE vec_id IN ({qids})),
        cand AS (SELECT DISTINCT q.qid, c.vec_id
                 FROM codes c JOIN qcodes q
                   ON c.band = q.band AND c.code = q.code),
        qe AS (SELECT vec_id AS qid, eq FROM e WHERE vec_id IN ({qids})),
        scored AS (
          SELECT cand.qid AS query_id, cand.vec_id,
                 round(list_dot_product(ce.eq, qe.eq)
                       / (sqrt(list_dot_product(ce.eq, ce.eq))
                          * sqrt(list_dot_product(qe.eq, qe.eq))), 6) AS s
          FROM cand JOIN e ce ON ce.vec_id = cand.vec_id
          JOIN qe ON qe.qid = cand.qid
        ),
        ranked AS (
          SELECT query_id, vec_id, s,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY s DESC, vec_id ASC) AS rn
          FROM scored
        )
        SELECT query_id, vec_id, s AS score FROM ranked WHERE rn <= {TOPK_K}
    """


def q_lsh_topk(sf_dir: str):
    """LSH-bucketed ANN (random-hyperplane banding, the bucket-shuffle
    scale path; stages/similarity.lsh_topk).  Complements brute-force
    (embedding_topk) and IVF (ivf_topk)."""
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    V = (emb.column("embedding").combine_chunks().flatten()
         .to_numpy(zero_copy_only=False).reshape(-1, EMB_DIM)
         .astype(np.float64))
    ids = emb.column("vec_id").to_numpy(zero_copy_only=False)
    sel = np.isin(ids, TOPK_QUERY_IDS)
    queries = {"query_id": ids[sel].tolist(), "vectors": V[sel]}
    ds = dt.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return similarity.lsh_topk(ds, queries, TOPK_K, EMB_DIM)


ORACLE_SQL["lsh_topk"] = _lsh_topk_sql()
QUERIES["lsh_topk"] = q_lsh_topk


def q_bloom_bits(sf_dir: str):
    """Bloom-filter set-bit table (stages/sketch.bloom_bits, m=1024,
    k=4) over the lowercased corpus token stream — the mergeable
    membership sketch, integer-exact per bit position."""
    from ..stages.sketch import bloom_bits
    from ..stages.text import _ws_token_lists

    ds = dt.read_table(sf_dir, "documents", columns=["text"])

    def toks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, _, nonempty = _ws_token_lists(col)
        low = pc.utf8_lower(flat).filter(pa.array(nonempty))
        return pa.table({"tok": low})

    stream = ds.map_batches(toks, batch_format="pyarrow",
                            zero_copy_batch=True)
    return bloom_bits(stream, "tok")


ORACLE_SQL["bloom_bits"] = r"""
    WITH toks AS (
      SELECT unnest(string_split_regex(lower(trim(text)), '\s+')) AS tok
      FROM documents WHERE trim(text) <> ''
    ),
    h AS (
      SELECT list_reduce(
        list_prepend(1469598103934665603::HUGEINT,
          list_transform(regexp_extract_all(tok, '.'),
                         c -> ascii(c)::HUGEINT)),
        (a, b) -> (a * 1000003 + b)
                  % 18446744073709551616::HUGEINT) AS th
      FROM toks WHERE tok <> ''
    ),
    mx AS (SELECT (((th * 2654435769::HUGEINT)
                    % 4294967296::HUGEINT) * 4294967296::HUGEINT
                   + th * 2135587861::HUGEINT)
                  % 18446744073709551616::HUGEINT AS mh FROM h),
    hh AS (SELECT mh // 4294967296::HUGEINT AS h1,
                  (mh % 4294967296::HUGEINT)
                    - ((mh % 4294967296::HUGEINT) % 2) + 1 AS h2
           FROM mx)
    SELECT DISTINCT CAST((h1 + i * h2) % 1024 AS BIGINT) AS pos
    FROM hh CROSS JOIN range(4) t(i)
"""


QUERIES["bloom_bits"] = q_bloom_bits


def q_user_event_path(sf_dir: str):
    """Ordered path aggregation: per user, the first letter of each
    event type concatenated in (ts, event_id) order — the classic
    clickstream path string, via sort-within-group map_groups (the
    shuffle carries each user's rows once; the per-group sort is local)."""
    ds = dt.read_table(sf_dir, "events",
                       columns=["user_id", "event_type", "ts", "event_id"])

    def path_group(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        types = tbl.column("event_type").to_pandas().to_numpy()
        path = "".join(t[0] for t in types[order])
        return pa.table({
            "user_id": pa.array([tbl.column("user_id")[0].as_py()]),
            "n_events": pa.array([len(order)], pa.int64()),
            "path": pa.array([path]),
        })

    return ds.groupby("user_id").map_groups(path_group,
                                            batch_format="pyarrow")


ORACLE_SQL["user_event_path"] = """
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
           string_agg(substr(event_type, 1, 1), ''
                      ORDER BY ts, event_id) AS path
    FROM events GROUP BY user_id
"""


def q_price_histogram(sf_dir: str):
    """Fixed-width histogram of order totals: 500-unit bins with count
    and exact cents min/max per bin (per-batch partials collapse to
    O(#bins) rows before the single groupby-sum shuffle)."""
    ds = dt.read_table(sf_dir, "orders", columns=["o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        cents = np.round(p * 100.0, 0).astype(np.int64)
        bins = cents // 50_000
        uniq, inv = np.unique(bins, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        mn = np.full(len(uniq), np.iinfo(np.int64).max)
        mx = np.full(len(uniq), np.iinfo(np.int64).min)
        np.minimum.at(mn, inv, cents)
        np.maximum.at(mx, inv, cents)
        return pa.table({"bin": pa.array(uniq), "n": pa.array(n),
                         "min_cents": pa.array(mn), "max_cents": pa.array(mx)})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("bin").aggregate(
                Sum("n", alias_name="n"),
                Min("min_cents", alias_name="min_cents"),
                Max("max_cents", alias_name="max_cents")))


ORACLE_SQL["price_histogram"] = """
    WITH q AS (SELECT CAST(round(o_totalprice * 100.0, 0) AS BIGINT)
                 AS cents FROM orders)
    SELECT cents // 50000 AS bin, CAST(count(*) AS BIGINT) AS n,
           min(cents) AS min_cents, max(cents) AS max_cents
    FROM q GROUP BY cents // 50000
"""


QUERIES["user_event_path"] = q_user_event_path
QUERIES["price_histogram"] = q_price_histogram


def q_polygon_metrics(sf_dir: str):
    """Shoelace area + rectilinear perimeter per polygon PoI (geom
    .polygon_area semantics over the same L-shaped hexagons as
    polygon_centroid, which covers the WKT decode path) — fully
    vectorized: all six edges in one (n, 6) einsum, no per-row ring
    loop."""
    ds = dt.read_table(sf_dir, "documents", columns=["doc_id"])

    def metrics(batch: pa.Table) -> pa.Table:
        k = batch.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        x, y = dt.derive_xy(k)
        x0 = x - (50.0 + k * 3 % 100)
        x1 = x + (60.0 + k * 7 % 120)
        y0 = y - (40.0 + k * 11 % 90)
        y1 = y + (70.0 + k * 5 % 110)
        vx = np.stack([x0, x1, x1, x, x, x0], axis=1)
        vy = np.stack([y0, y0, y, y, y1, y1], axis=1)
        nx = np.roll(vx, -1, axis=1)
        ny = np.roll(vy, -1, axis=1)
        cross = vx * ny - nx * vy
        area = np.abs(cross.sum(axis=1)) / 2.0
        perim = (np.abs(nx - vx) + np.abs(ny - vy)).sum(axis=1)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "area": pa.array(np.round(area, 4)),
            "perimeter": pa.array(np.round(perim, 4)),
        })

    return ds.map_batches(metrics, batch_format="pyarrow",
                          zero_copy_batch=True)


ORACLE_SQL["polygon_metrics"] = f"""
    WITH d AS (SELECT doc_id, {_X} AS x, {_Y} AS y,
               {_X} - (50.0 + doc_id*3 % 100) AS x0,
               {_X} + (60.0 + doc_id*7 % 120) AS x1,
               {_Y} - (40.0 + doc_id*11 % 90) AS y0,
               {_Y} + (70.0 + doc_id*5 % 110) AS y1
               FROM documents),
    v AS (
      SELECT doc_id, 0 AS i, x0 AS vx, y0 AS vy FROM d UNION ALL
      SELECT doc_id, 1, x1, y0 FROM d UNION ALL
      SELECT doc_id, 2, x1, y FROM d UNION ALL
      SELECT doc_id, 3, x, y FROM d UNION ALL
      SELECT doc_id, 4, x, y1 FROM d UNION ALL
      SELECT doc_id, 5, x0, y1 FROM d),
    p AS (SELECT a.doc_id, a.vx AS x, a.vy AS y, b.vx AS xn, b.vy AS yn
          FROM v a JOIN v b ON a.doc_id = b.doc_id AND b.i = (a.i+1) % 6)
    SELECT doc_id,
           round(abs(sum(x*yn - xn*y)) / 2.0, 4) AS area,
           round(sum(abs(xn - x) + abs(yn - y)), 4) AS perimeter
    FROM p GROUP BY doc_id
"""


QUERIES["polygon_metrics"] = q_polygon_metrics


def q_kmv_sample(sf_dir: str):
    """Bottom-k (KMV) distinct hash sample of the corpus token stream
    (stages/sketch.kmv_bottomk, k=64) — min-merge mergeable sketch:
    uniform distinct sample + cardinality estimator in one table."""
    from ..stages.sketch import kmv_bottomk
    from ..stages.text import _ws_token_lists

    ds = dt.read_table(sf_dir, "documents", columns=["text"])

    def toks(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, _, nonempty = _ws_token_lists(col)
        low = pc.utf8_lower(flat).filter(pa.array(nonempty))
        return pa.table({"tok": low})

    stream = ds.map_batches(toks, batch_format="pyarrow",
                            zero_copy_batch=True)
    return kmv_bottomk(stream, "tok")


ORACLE_SQL["kmv_sample"] = r"""
    WITH toks AS (
      SELECT DISTINCT
        unnest(string_split_regex(lower(trim(text)), '\s+')) AS tok
      FROM documents WHERE trim(text) <> ''
    ),
    h AS (
      SELECT tok, list_reduce(
        list_prepend(1469598103934665603::HUGEINT,
          list_transform(regexp_extract_all(tok, '.'),
                         c -> ascii(c)::HUGEINT)),
        (a, b) -> (a * 1000003 + b)
                  % 18446744073709551616::HUGEINT) AS th
      FROM toks WHERE tok <> ''
    ),
    mx AS (SELECT tok, (((th * 2654435769::HUGEINT)
                    % 4294967296::HUGEINT) * 4294967296::HUGEINT
                   + th * 2135587861::HUGEINT)
                  % 18446744073709551616::HUGEINT AS mh FROM h)
    SELECT CAST(mh - 9223372036854775808::HUGEINT AS BIGINT) AS h, tok
    FROM mx ORDER BY h LIMIT 64
"""


QUERIES["kmv_sample"] = q_kmv_sample


def q_event_transitions(sf_dir: str):
    """Markov transition counts over per-user ordered event streams
    (stages/windows.event_transitions: hash-bucketed users, one lexsort
    per bucket, O(|types|**2) partials into the final reduce)."""
    from ..stages.windows import event_transitions

    ds = dt.read_table(sf_dir, "events",
                       columns=["user_id", "ts", "event_type", "event_id"])
    return event_transitions(ds)


ORACLE_SQL["event_transitions"] = """
    WITH s AS (
      SELECT user_id, event_type,
             lead(event_type) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS nxt
      FROM events
    )
    SELECT event_type AS from_type, nxt AS to_type,
           CAST(count(*) AS BIGINT) AS n
    FROM s WHERE nxt IS NOT NULL
    GROUP BY event_type, nxt
"""


QUERIES["event_transitions"] = q_event_transitions


def q_areal_weights(sf_dir: str):
    """Areal-interpolation weight table: exact rect∩grid-cell overlap
    areas + fractions (stages/zonal.areal_cell_weights) — map-only
    flat explode, no shuffle."""
    from ..stages.zonal import areal_cell_weights

    rects = ray.data.from_arrow(_rects_from_part(sf_dir))
    return areal_cell_weights(rects, cell_size=CELL_SIZE)


ORACLE_SQL["areal_weights"] = f"""
    WITH rects AS (
      SELECT p_partkey AS gs_id,
             {_GX} - (100.0 + (p_partkey * 13) % 400) AS x0,
             {_GX} + (100.0 + (p_partkey * 13) % 400) AS x1,
             {_GY} - (100.0 + (p_partkey * 29) % 500) AS y0,
             {_GY} + (100.0 + (p_partkey * 29) % 500) AS y1
      FROM part
    ),
    g AS (SELECT gs_id, x0, y0, x1, y1,
            unnest(generate_series(CAST(floor(x0/{CELL_SIZE}) AS BIGINT),
                                   CAST(floor(x1/{CELL_SIZE}) AS BIGINT)))
              AS ix
          FROM rects),
    g2 AS (SELECT gs_id, x0, y0, x1, y1, ix,
             unnest(generate_series(CAST(floor(y0/{CELL_SIZE}) AS BIGINT),
                                    CAST(floor(y1/{CELL_SIZE}) AS BIGINT)))
               AS iy
           FROM g),
    o AS (SELECT gs_id, ix * 1048576 + iy AS cell,
            least(x1, ix*{CELL_SIZE} + {CELL_SIZE})
              - greatest(x0, ix*{CELL_SIZE}) AS ox,
            least(y1, iy*{CELL_SIZE} + {CELL_SIZE})
              - greatest(y0, iy*{CELL_SIZE}) AS oy,
            (x1 - x0) * (y1 - y0) AS fa
          FROM g2)
    SELECT gs_id, cell,
           round(ox * oy, 6) AS overlap_area,
           round(ox * oy / fa, 6) AS frac
    FROM o WHERE ox * oy > 0.0
"""


QUERIES["areal_weights"] = q_areal_weights


CAP_PER_CELL = 5


def q_cell_cap_sample(sf_dir: str):
    """Hot-group downsampling: every spatial cell capped at 5 docs in
    deterministic hash-rank order (stages/sampling.cap_per_group —
    per-batch pre-truncation bounds the hot cell's shuffle mass)."""
    from ..stages.sampling import cap_per_group

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    out = cap_per_group(ds.select_columns(["doc_id", "cell"]),
                        "cell", "doc_id", CAP_PER_CELL)
    return out.select_columns(["cell", "doc_id"])


ORACLE_SQL["cell_cap_sample"] = f"""
    WITH d AS (SELECT doc_id, {_CELL} AS cell FROM documents),
    r AS (SELECT cell, doc_id,
            row_number() OVER (
              PARTITION BY cell
              ORDER BY (doc_id * 48271) % 2147483647, doc_id) AS rn
          FROM d)
    SELECT cell, doc_id FROM r WHERE rn <= {CAP_PER_CELL}
"""


QUERIES["cell_cap_sample"] = q_cell_cap_sample


_IJ_BUCKET_US = 3_600_000_000  # 1 h buckets ≈ median interval span


def q_interval_join(sf_dir: str):
    """Large×large interval overlap join (stages/olap.interval_join):
    even-id event intervals × odd-id event intervals via the 1-D
    PBSM bucket shuffle — no broadcast, each pair reported once."""
    from ..stages.olap import interval_join

    ds = dt.read_table(sf_dir, "events", columns=["event_id", "ts"])

    def intervals(parity: int, key: str):
        def fn(b: pa.Table) -> pa.Table:
            eid = b.column("event_id").to_numpy(zero_copy_only=False)
            keep = (eid % 2) == parity
            s = b.column("ts").cast(pa.int64()).to_numpy(
                zero_copy_only=False)[keep]
            dur = (eid[keep] % 1800 + 60) * 1_000_000
            return pa.table({key: pa.array(eid[keep]),
                             "s": pa.array(s), "e": pa.array(s + dur)})
        return fn

    left = ds.map_batches(intervals(0, "a_id"), batch_format="pyarrow",
                          zero_copy_batch=True)
    right = ds.map_batches(intervals(1, "b_id"), batch_format="pyarrow",
                           zero_copy_batch=True)
    return interval_join(left, right, _IJ_BUCKET_US)


ORACLE_SQL["interval_join"] = """
    WITH iv AS (SELECT event_id,
                  epoch_us(ts) AS s,
                  epoch_us(ts) + ((event_id % 1800) + 60) * 1000000 AS e
                FROM events)
    SELECT a.event_id AS a_id, b.event_id AS b_id
    FROM iv a JOIN iv b
      ON a.event_id % 2 = 0 AND b.event_id % 2 = 1
     AND a.s <= b.e AND a.e >= b.s
"""


QUERIES["interval_join"] = q_interval_join


def q_price_rank_ntile(sf_dir: str):
    """Exact global row_number + NTILE(10) over (price cents, orderkey)
    WITHOUT a global sort (stages/quantiles.global_rank_ntile: distinct-
    value histogram pass → broadcast rank bases → per-value local rank)."""
    from ..stages.quantiles import global_rank_ntile

    ds = dt.read_table(sf_dir, "orders",
                       columns=["o_orderkey", "o_totalprice"])
    return global_rank_ntile(ds, "o_totalprice", "o_orderkey")


ORACLE_SQL["price_rank_ntile"] = """
    WITH q AS (SELECT o_orderkey,
                 CAST(round(o_totalprice * 100.0, 0) AS BIGINT) AS cents
               FROM orders)
    SELECT o_orderkey,
           CAST(row_number() OVER (ORDER BY cents, o_orderkey)
                AS BIGINT) AS rank,
           CAST(ntile(10) OVER (ORDER BY cents, o_orderkey)
                AS BIGINT) AS tile
    FROM q
"""


QUERIES["price_rank_ntile"] = q_price_rank_ntile


PMI_K, PMI_MIN = 20, 5


def q_pmi_topk(sf_dir: str):
    """Top-20 collocations by pointwise mutual information
    (stages/text.pmi_topk: partial-combined unigram+bigram counts, two
    bucket-exchange joins, no driver vocabulary)."""
    from ..stages.text import pmi_topk

    ds = dt.read_table(sf_dir, "documents", columns=["text"])
    return pmi_topk(ds, k=PMI_K, min_count=PMI_MIN)


ORACLE_SQL["pmi_topk"] = rf"""
    WITH toks AS (
      SELECT doc_id,
             unnest(string_split_regex(lower(trim(text)), '\s+')) AS tok,
             generate_subscripts(
               string_split_regex(lower(trim(text)), '\s+'), 1) AS i
      FROM documents WHERE trim(text) <> ''
    ),
    uni AS (SELECT tok, CAST(count(*) AS BIGINT) AS uc FROM toks
            WHERE tok <> '' GROUP BY tok),
    bi AS (
      SELECT a.tok || ' ' || b.tok AS bigram, a.tok AS ta, b.tok AS tb,
             CAST(count(*) AS BIGINT) AS c
      FROM toks a JOIN toks b
        ON a.doc_id = b.doc_id AND b.i = a.i + 1
      WHERE a.tok <> '' AND b.tok <> ''
      GROUP BY 1, 2, 3 HAVING count(*) >= {PMI_MIN}
    ),
    tot AS (SELECT (SELECT CAST(sum(uc) AS BIGINT) FROM uni) AS nu,
                   (SELECT CAST(sum(c) AS BIGINT) FROM bi) AS nb),
    s AS (
      SELECT bi.bigram, bi.c,
             round(ln((CAST(bi.c AS DOUBLE) * CAST(tot.nu AS DOUBLE)
                       * CAST(tot.nu AS DOUBLE))
                      / (CAST(tot.nb AS DOUBLE) * CAST(ua.uc AS DOUBLE)
                         * CAST(ub.uc AS DOUBLE))), 6) AS pmi
      FROM bi, tot
      JOIN uni ua ON ua.tok = bi.ta
      JOIN uni ub ON ub.tok = bi.tb
    ),
    r AS (SELECT bigram, c, pmi,
            row_number() OVER (ORDER BY pmi DESC, bigram ASC) AS rank
          FROM s)
    SELECT bigram, c, pmi, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= {PMI_K}
"""


QUERIES["pmi_topk"] = q_pmi_topk


WSAMPLE_K = 100


def q_weighted_sample(sf_dir: str):
    """Price-weighted order sample (stages/sampling.weighted_sample —
    deterministic Efraimidis–Spirakis, local top-k partials)."""
    from ..stages.sampling import weighted_sample

    ds = dt.read_table(sf_dir, "orders",
                       columns=["o_orderkey", "o_totalprice"])
    return weighted_sample(ds, "o_orderkey", "o_totalprice", WSAMPLE_K)


ORACLE_SQL["weighted_sample"] = f"""
    WITH s AS (
      SELECT o_orderkey,
             ln((CAST((o_orderkey * 48271) % 2147483647 AS DOUBLE) + 1.0)
                / 2147483648.0) / o_totalprice AS raw
      FROM orders
    )
    SELECT o_orderkey, round(raw * 1000000.0, 6) AS score_e6
    FROM s ORDER BY raw DESC, o_orderkey LIMIT {WSAMPLE_K}
"""


QUERIES["weighted_sample"] = q_weighted_sample


ZSCAN_BBOX = (4000.0, 6000.0, 9000.0, 11000.0)


def q_zorder_pruned_scan(sf_dir: str):
    """BBox scan over the z-order-partitioned layout (sources/layout):
    only z-blocks the query's cells touch are read (file pruning),
    exact predicate refined per batch."""
    from ..sources.layout import ensure_zorder_layout, zorder_bbox_scan

    root = ensure_zorder_layout(sf_dir, cell_size=CELL_SIZE)
    x0, y0, x1, y1 = ZSCAN_BBOX
    out = zorder_bbox_scan(root, x0, y0, x1, y1, cell_size=CELL_SIZE)

    def rnd(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "x": pa.array(np.round(
                b.column("x").to_numpy(zero_copy_only=False), 6)),
            "y": pa.array(np.round(
                b.column("y").to_numpy(zero_copy_only=False), 6)),
        })

    return out.map_batches(rnd, batch_format="pyarrow",
                           zero_copy_batch=True)


ORACLE_SQL["zorder_pruned_scan"] = f"""
    WITH d AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents)
    SELECT doc_id, round(x, 6) AS x, round(y, 6) AS y
    FROM d
    WHERE x >= {ZSCAN_BBOX[0]} AND x <= {ZSCAN_BBOX[2]}
      AND y >= {ZSCAN_BBOX[1]} AND y <= {ZSCAN_BBOX[3]}
"""


QUERIES["zorder_pruned_scan"] = q_zorder_pruned_scan


def q_lang_drift(sf_dir: str):
    """Per-source chi-square drift of the language mix vs the corpus
    marginal (stages/composite.chi_square_drift — one contingency
    shuffle, closed-form χ² on the tiny table)."""
    from ..stages.composite import chi_square_drift

    ds = dt.read_table(sf_dir, "documents", columns=["source", "lang"])
    return chi_square_drift(ds, "source", "lang")


ORACLE_SQL["lang_drift"] = """
    WITH c AS (SELECT source, lang, CAST(count(*) AS BIGINT) AS n
               FROM documents GROUP BY source, lang),
    rt AS (SELECT source, CAST(sum(n) AS BIGINT) AS r
           FROM c GROUP BY source),
    ct AS (SELECT lang, CAST(sum(n) AS BIGINT) AS col
           FROM c GROUP BY lang),
    tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM c),
    grid AS (SELECT rt.source, ct.lang, rt.r, ct.col
             FROM rt CROSS JOIN ct),
    j AS (SELECT g.source, g.r, g.col,
            CAST(COALESCE(c.n, 0) AS DOUBLE) AS o
          FROM grid g LEFT JOIN c
            ON c.source = g.source AND c.lang = g.lang),
    s AS (SELECT j.source, j.r,
            pow(j.o - CAST(j.r AS DOUBLE) * CAST(j.col AS DOUBLE)
                      / CAST(tot.nn AS DOUBLE), 2)
              / (CAST(j.r AS DOUBLE) * CAST(j.col AS DOUBLE)
                 / CAST(tot.nn AS DOUBLE)) AS term
          FROM j, tot)
    SELECT source, CAST(any_value(r) AS BIGINT) AS n_docs,
           round(sum(term), 6) AS chi2
    FROM s GROUP BY source
"""


QUERIES["lang_drift"] = q_lang_drift


KM_K, KM_ITERS = 8, 2


def q_kmeans_assign(sf_dir: str):
    """Distributed Lloyd k-means assignments after 2 rounds
    (stages/similarity.kmeans_assign_iterations — integer per-cluster
    sufficient statistics, O(k·dim) shuffle payload per batch)."""
    ds = dt.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents = similarity.fixed_random_centroids(EMB_DIM, KM_K)
    out, _ = similarity.kmeans_assign_iterations(
        ds, cents, EMB_DIM, iters=KM_ITERS)
    return out


def _kmeans_sql() -> str:
    C = similarity.fixed_random_centroids(EMB_DIM, KM_K) * 1e4
    rows = ",\n          ".join(
        "({}, [{}], {!r})".format(
            c, ", ".join(repr(float(v)) for v in C[c]),
            float((C[c] * C[c]).sum()))
        for c in range(KM_K))
    return f"""
        WITH cents0(cid, c, cn) AS (VALUES {rows}),
        e AS (SELECT vec_id,
                list_transform(CAST(embedding AS DOUBLE[]),
                               x -> round(x * 10000.0)) AS eq
              FROM embeddings),
        d0 AS (SELECT e.vec_id, e.eq, cents0.cid,
                 -2.0 * list_dot_product(e.eq, cents0.c) + cents0.cn AS dist
               FROM e CROSS JOIN cents0),
        a0 AS (SELECT vec_id, eq, cid AS cl FROM (
                 SELECT vec_id, eq, cid,
                   row_number() OVER (PARTITION BY vec_id
                                      ORDER BY dist ASC, cid ASC) AS rn
                 FROM d0) WHERE rn = 1),
        flat AS (SELECT a0.cl, u.d - 1 AS d, u.x
                 FROM a0, LATERAL (
                   SELECT generate_subscripts(a0.eq, 1) AS d,
                          unnest(a0.eq) AS x) u),
        s1 AS (SELECT cl, d, sum(x) AS s, count(*) AS n
               FROM flat GROUP BY cl, d),
        c1 AS (SELECT cl AS cid,
                 list(CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
                      ORDER BY d) AS c
               FROM s1 GROUP BY cl),
        c1n AS (SELECT cid, c, list_dot_product(c, c) AS cn FROM c1),
        -- clusters that lost every vector keep their seed centroid
        call AS (SELECT cents0.cid,
                   COALESCE(c1n.c, cents0.c) AS c,
                   COALESCE(c1n.cn, cents0.cn) AS cn
                 FROM cents0 LEFT JOIN c1n ON c1n.cid = cents0.cid),
        d1 AS (SELECT e.vec_id, call.cid,
                 -2.0 * list_dot_product(e.eq, call.c) + call.cn AS dist
               FROM e CROSS JOIN call),
        a1 AS (SELECT vec_id, cid AS cluster FROM (
                 SELECT vec_id, cid,
                   row_number() OVER (PARTITION BY vec_id
                                      ORDER BY dist ASC, cid ASC) AS rn
                 FROM d1) WHERE rn = 1)
        SELECT vec_id, CAST(cluster AS BIGINT) AS cluster FROM a1
    """


ORACLE_SQL["kmeans_assign"] = _kmeans_sql()
QUERIES["kmeans_assign"] = q_kmeans_assign


DUPWIN_W = 8


def q_dup_windows(sf_dir: str):
    """ExactSubstr-style duplicate-window dedup flags
    (stages/scrub.dup_window_flags — sliding width-token window hashes,
    distinct-(window, doc) partials before the one O(distinct windows)
    shuffle, dup set broadcast below ``max_broadcast`` else a
    hash-bucketed semi join)."""
    from ..stages.scrub import dup_window_flags

    ds = dt.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_window_flags(ds, width=DUPWIN_W)


# The oracle groups window STRINGS where the engine groups 64-bit window
# hashes, so the hash path is value-verified end-to-end (same pattern as
# the line_dedup gate).
ORACLE_SQL["dup_windows"] = f"""
    WITH t AS (SELECT doc_id, string_split(lower(trim(text)), ' ') AS toks
               FROM documents),
    w AS (SELECT doc_id, unnest(range(1, len(toks) - {DUPWIN_W} + 2)) AS i,
                 toks
          FROM t WHERE len(toks) >= {DUPWIN_W}),
    ws AS (SELECT doc_id, array_to_string(toks[i:i+{DUPWIN_W - 1}], ' ') AS win
           FROM w),
    dup AS (SELECT win FROM ws GROUP BY win
            HAVING count(DISTINCT doc_id) >= 2),
    nd AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup
           FROM ws WHERE win IN (SELECT win FROM dup) GROUP BY doc_id),
    nw AS (SELECT doc_id,
                  CAST(greatest(len(toks) - {DUPWIN_W} + 1, 0) AS BIGINT)
                    AS n_windows
           FROM t)
    SELECT nw.doc_id, nw.n_windows,
           coalesce(nd.n_dup, 0) AS n_dup,
           coalesce(nd.n_dup, 0) = 0 AS keep
    FROM nw LEFT JOIN nd USING (doc_id)
"""


QUERIES["dup_windows"] = q_dup_windows


HULL_CELL = 2000.0
_HULL_CELL_SQL = dt.SQL_CELL.format(k="doc_id", cs=HULL_CELL)


def q_convex_hull(sf_dir: str):
    """Convex hull vertex set per coarse grid cell
    (stages/geostats.group_convex_hull — per-batch local hulls bound
    the shuffle to O(hull size) per group per batch; final hull per
    hash bucket)."""
    from ..stages.geostats import group_convex_hull

    ds = dt.read_docs_with_xy(sf_dir, HULL_CELL)
    return group_convex_hull(ds)


# p is a hull point iff some edge p→q supports the group (every other
# point on its left, cross >= 0) — the halfplane characterization over
# floor(coord·1000) int64 micro-units, so every orientation test is
# exact integer arithmetic in BOTH engines (float crosses flip
# knife-edge collinear keeps between expression trees); the engine's
# collinear-keeping monotone chain computes the same set.
ORACLE_SQL["convex_hull"] = f"""
    WITH d AS (
      SELECT DISTINCT {_HULL_CELL_SQL} AS cell,
             CAST(floor({_X} * 1000.0) AS BIGINT) AS xq,
             CAST(floor({_Y} * 1000.0) AS BIGINT) AS yq
      FROM documents
    ),
    c AS (SELECT cell, count(*) AS n FROM d GROUP BY cell),
    hull AS (
      SELECT d1.cell, d1.xq, d1.yq
      FROM d d1 JOIN c ON c.cell = d1.cell
      WHERE c.n <= 2 OR EXISTS (
        SELECT 1 FROM d d2
        WHERE d2.cell = d1.cell AND (d2.xq <> d1.xq OR d2.yq <> d1.yq)
          AND NOT EXISTS (
            SELECT 1 FROM d d3 WHERE d3.cell = d1.cell
              AND (d2.xq - d1.xq) * (d3.yq - d1.yq)
                - (d2.yq - d1.yq) * (d3.xq - d1.xq) < 0)))
    SELECT cell, xq, yq FROM hull
"""


QUERIES["convex_hull"] = q_convex_hull


def q_hillshade(sf_dir: str):
    """Hillshade from the quantized raster gradient
    (stages/terrain.hillshade_batch — trig-free normal·light dot over
    the int64 nano-unit gx_q/gy_q, constants precomputed once)."""
    from ..stages.terrain import hillshade_batch, point_gradient

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    out = point_gradient(ds.select_columns(["doc_id", "x", "y"]),
                         _world_tiles_root(), band="ndvi",
                         res=synth.RASTER_RES)
    out = out.map_batches(hillshade_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
    return out.select_columns(["doc_id", "hs_q"])


def _hillshade_oracle_sql() -> str:
    from ..stages.terrain import HS_COSZ, HS_LX, HS_LY

    gx = "(CAST(gx_q AS DOUBLE) / 1000000000.0)"
    gy = "(CAST(gy_q AS DOUBLE) / 1000000000.0)"
    shade = (f"(({HS_COSZ!r} - {gx} * {HS_LX!r} - {gy} * {HS_LY!r})"
             f" / sqrt(1.0 + {gx} * {gx} + {gy} * {gy}))")
    return f"""
    WITH s AS ({_slope_oracle_sql()})
    SELECT doc_id,
           CASE WHEN gx_q IS NOT NULL THEN
             CAST(round(greatest({shade}, 0.0) * 1000000000.0, 0)
                  AS BIGINT) END AS hs_q
    FROM s
    """


ORACLE_SQL["hillshade"] = _hillshade_oracle_sql()
QUERIES["hillshade"] = q_hillshade


EDITK = 12


def q_edit_near_pairs(sf_dir: str):
    """Levenshtein-distance self-join (stages/dedup.edit_near_pairs —
    lossless |ΔL| <= k length blocking with ghost-bucket pair
    ownership, batch-vectorized DP verify)."""
    from ..stages.dedup import edit_near_pairs

    ds = dt.read_table(sf_dir, "documents",
                       columns=["doc_id", "text", "lang"])
    return edit_near_pairs(ds, k=EDITK)


ORACLE_SQL["edit_near_pairs"] = f"""
    WITH d AS (SELECT doc_id, lang, text, length(text) AS L
               FROM documents),
    cand AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             levenshtein(a.text, b.text) AS dist
      FROM d a JOIN d b
        ON a.lang = b.lang AND a.doc_id < b.doc_id
       AND abs(a.L - b.L) <= {EDITK}
    )
    SELECT doc_a, doc_b, CAST(dist AS BIGINT) AS dist
    FROM cand WHERE dist <= {EDITK}
"""


QUERIES["edit_near_pairs"] = q_edit_near_pairs


def q_d8_flow(sf_dir: str):
    """D8 steepest-descent flow direction per doc pixel
    (stages/terrain.D8FlowDirection — int64 nano-unit drops, smallest
    code wins ties, NULL at the stored extent edge)."""
    from ..stages.terrain import d8_flow_direction

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    out = d8_flow_direction(ds.select_columns(["doc_id", "x", "y"]),
                            _world_tiles_root(), res=synth.RASTER_RES)
    return out.select_columns(["doc_id", "d8"])


def _d8_oracle_sql() -> str:
    """8 neighbor values re-derived from the closed-form field; drops
    quantized identically; argmax = greatest() with min-code ties."""
    from ..stages.terrain import D8_OFFS, SQRT2

    res = synth.RASTER_RES

    def fld(pxe: str, pye: str) -> str:
        return _NDVI_SQL.replace("px", pxe).replace("py", pye)

    v0 = fld(f"(col * {res} + {res/2})", f'("row" * {res} + {res/2})')
    drops, oks = [], []
    for code, (dr, dc) in enumerate(D8_OFFS, start=1):
        vn = fld(f"((col + {dc}) * {res} + {res/2})",
                 f'(("row" + {dr}) * {res} + {res/2})')
        dist = repr(res * SQRT2 if dr and dc else float(res))
        drops.append(
            f"CAST(round((({v0}) - ({vn})) / {dist} * 1000000000.0, 0)"
            f" AS BIGINT) AS dq{code}")
        oks.append(f'(col + {dc} >= 0 AND col + {dc} <= {_NPIX} '
                   f'AND "row" + {dr} >= 0 AND "row" + {dr} <= {_NPIX})')
    mx = "greatest(" + ", ".join(f"dq{c}" for c in range(1, 9)) + ")"
    pick = " ".join(f"WHEN dq{c} = mx THEN {c}" for c in range(1, 9))
    return f"""
    WITH d AS (SELECT doc_id, {_X} AS x, {_Y} AS y FROM documents),
    c AS (SELECT doc_id, CAST(floor(x / {res}) AS BIGINT) AS col,
                 CAST(floor(y / {res}) AS BIGINT) AS "row"
          FROM d),
    g AS (SELECT doc_id, {", ".join(drops)},
            ({" AND ".join(oks)}) AS ok
          FROM c),
    m AS (SELECT doc_id, ok, {mx} AS mx, * FROM g)
    SELECT doc_id,
           CASE WHEN NOT ok THEN NULL
                WHEN mx <= 0 THEN 0
                {pick} END AS d8
    FROM m
    """


ORACLE_SQL["d8_flow"] = _d8_oracle_sql()
QUERIES["d8_flow"] = q_d8_flow


def q_landcover_majority(sf_dir: str):
    """Zonal majority (dominant landcover class) per doc buffer
    (pipelines/availability.landcover_majority — per-class integer
    pixel counts, per-row argmax, ties to the smallest class code)."""
    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return availability.landcover_majority(
        ds.select_columns(["doc_id", "x", "y"]), _world_tiles_root(),
        LULC_RADIUS)


ORACLE_SQL["landcover_majority"] = "WITH " + _PIXELS_CTE.format(
    r=LULC_RADIUS) + f"""
    , vals AS (SELECT doc_id, {_LULC_SQL} AS cls FROM pix),
    c AS (SELECT doc_id, cls, CAST(count(*) AS BIGINT) AS n
          FROM vals GROUP BY doc_id, cls),
    t AS (SELECT doc_id, CAST(sum(n) AS BIGINT) AS cnt_total
          FROM c GROUP BY doc_id),
    r AS (SELECT doc_id, cls, n,
            row_number() OVER (PARTITION BY doc_id
                               ORDER BY n DESC, cls ASC) AS rn
          FROM c)
    SELECT r.doc_id, CAST(r.cls AS BIGINT) AS majority_class,
           r.n AS cnt_major, t.cnt_total
    FROM r JOIN t USING (doc_id) WHERE r.rn = 1
"""


QUERIES["landcover_majority"] = q_landcover_majority


def q_group_medoid(sf_dir: str):
    """Per-label embedding medoid (stages/similarity.group_medoid —
    sum-trick argmin, no pairwise pass; int64-exact scores)."""
    from ..stages.similarity import group_medoid

    ds = dt.read_table(sf_dir, "embeddings",
                       columns=["vec_id", "embedding", "label"])
    return group_medoid(ds, EMB_DIM)


# all quantities are integers < 2^53, so DuckDB's double
# list_dot_product is exact and CAST(... AS BIGINT) equals the
# engine's int64 arithmetic bit-for-bit
ORACLE_SQL["group_medoid"] = """
    WITH e AS (
      SELECT vec_id, CAST(label AS BIGINT) AS grp,
             list_transform(CAST(embedding AS DOUBLE[]),
                            x -> round(x * 10000.0)) AS q
      FROM embeddings),
    flat AS (SELECT grp, u.d AS d, u.x
             FROM e, LATERAL (SELECT generate_subscripts(e.q, 1) AS d,
                                     unnest(e.q) AS x) u),
    s AS (SELECT grp, d, sum(x) AS sq FROM flat GROUP BY grp, d),
    sl AS (SELECT grp, list(sq ORDER BY d) AS S FROM s GROUP BY grp),
    n AS (SELECT grp, CAST(count(*) AS BIGINT) AS n FROM e GROUP BY grp),
    sc AS (SELECT e.vec_id, e.grp,
             n.n * list_dot_product(e.q, e.q)
               - 2.0 * list_dot_product(e.q, sl.S) AS score
           FROM e JOIN n USING (grp) JOIN sl USING (grp)),
    r AS (SELECT grp, vec_id, CAST(score AS BIGINT) AS score_q,
            row_number() OVER (PARTITION BY grp
                               ORDER BY score ASC, vec_id ASC) AS rn
          FROM sc)
    SELECT grp, vec_id, score_q FROM r WHERE rn = 1
"""


QUERIES["group_medoid"] = q_group_medoid


MMR_K, MMR_M, MMR_LAM = 8, 40, 7


def q_mmr_topk(sf_dir: str):
    """MMR-diversified top-k retrieval (stages/similarity.mmr_topk —
    distributed relevance top-M scan, integer-quantized driver greedy,
    λ in tenths)."""
    import pyarrow.compute as _pc
    import pyarrow.parquet as _pq

    from ..stages.similarity import mmr_topk

    emb = _pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    row0 = emb.filter(_pc.equal(emb.column("vec_id"), 0))
    qv = np.asarray(row0.column("embedding")[0].as_py(), dtype=np.float64)
    ds = dt.read_table(sf_dir, "embeddings",
                       columns=["vec_id", "embedding"])
    return mmr_topk(ds, qv, k=MMR_K, dim=EMB_DIM, m=MMR_M,
                    lam_tenths=MMR_LAM)


def _mmr_oracle_sql() -> str:
    """Unrolled greedy: cands = relevance top-M with round(cos·1e6)
    int scores; step t picks argmax(lam·relq − (10−lam)·max simq to
    selected), ties to the smaller vec_id — every compared quantity is
    an integer."""
    simq = ("CAST(round(list_cosine_similarity("
            "CAST(c.qe AS DOUBLE[]), CAST(s.qe AS DOUBLE[]))"
            " * 1000000.0, 0) AS BIGINT)")
    parts = [f"""
    WITH q AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0),
    cands AS MATERIALIZED (
      SELECT vec_id, qe, relq FROM (
        SELECT e.vec_id, e.embedding AS qe,
               CAST(round(list_cosine_similarity(
                   CAST(e.embedding AS DOUBLE[]),
                   CAST(q.qv AS DOUBLE[])) * 1000000.0, 0) AS BIGINT)
                 AS relq,
               row_number() OVER (
                 ORDER BY list_cosine_similarity(
                   CAST(e.embedding AS DOUBLE[]),
                   CAST(q.qv AS DOUBLE[])) DESC, e.vec_id ASC) AS rn
        FROM embeddings e CROSS JOIN q)
      WHERE rn <= {MMR_M}),
    sel0 AS (SELECT vec_id, CAST(0 AS BIGINT) AS rank FROM cands
             ORDER BY relq DESC, vec_id ASC LIMIT 1)"""]
    for t in range(1, MMR_K):
        parts.append(f""",
    m{t} AS MATERIALIZED (
      SELECT c.vec_id, c.relq, max({simq}) AS msim
      FROM cands c
      JOIN sel{t - 1} sv ON TRUE
      JOIN cands s ON s.vec_id = sv.vec_id
      WHERE c.vec_id NOT IN (SELECT vec_id FROM sel{t - 1})
      GROUP BY c.vec_id, c.relq),
    p{t} AS (SELECT vec_id, CAST({t} AS BIGINT) AS rank FROM m{t}
             ORDER BY {MMR_LAM} * relq - {10 - MMR_LAM} * msim DESC,
                      vec_id ASC LIMIT 1),
    sel{t} AS MATERIALIZED (SELECT * FROM sel{t - 1}
                           UNION ALL SELECT * FROM p{t})""")
    parts.append(f"""
    SELECT s.rank, s.vec_id, c.relq
    FROM sel{MMR_K - 1} s JOIN cands c USING (vec_id)""")
    return "".join(parts)


ORACLE_SQL["mmr_topk"] = _mmr_oracle_sql()
QUERIES["mmr_topk"] = q_mmr_topk


RIPLEY_RADII = (200.0, 500.0, 800.0)


def q_ripley_k(sf_dir: str):
    """Ripley's K ordered-pair counts at three radii
    (stages/geostats.ripley_pair_counts — PBSM cell shuffle at
    max(r), vectorized per-cell distance kernel, integer partials)."""
    from ..stages.geostats import ripley_pair_counts

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return ripley_pair_counts(ds.select_columns(["doc_id", "x", "y"]),
                              list(RIPLEY_RADII))


def _ripley_oracle_sql() -> str:
    arms = []
    for r in RIPLEY_RADII:
        arms.append(f"""
        SELECT CAST({r!r} AS DOUBLE) AS r,
               (SELECT CAST(count(*) AS BIGINT) FROM d a JOIN d b
                  ON a.doc_id <> b.doc_id
                 AND (a.x - b.x) * (a.x - b.x)
                   + (a.y - b.y) * (a.y - b.y) <= {r * r!r}) AS n_pairs""")
    return (f"WITH d AS (SELECT doc_id, {_X} AS x, {_Y} AS y"
            " FROM documents)" + " UNION ALL ".join(arms))


ORACLE_SQL["ripley_k"] = _ripley_oracle_sql()
QUERIES["ripley_k"] = q_ripley_k


def q_local_moran(sf_dir: str):
    """Local Moran's I (LISA) per occupied density cell
    (stages/geostats.local_morans_i — queen weights excluding self,
    exact int64 sufficient statistics, one closed-form division)."""
    from ..stages.geostats import local_morans_i

    ds = dt.read_docs_with_xy(sf_dir, CELL_SIZE)
    return local_morans_i(ds, MORAN_CELL)


ORACLE_SQL["local_moran"] = f"""
    WITH d AS (SELECT CAST(floor({_X} / {MORAN_CELL!r}) AS BIGINT) AS ix,
                      CAST(floor({_Y} / {MORAN_CELL!r}) AS BIGINT) AS iy
               FROM documents),
    c AS (SELECT ix, iy, CAST(count(*) AS BIGINT) AS x
          FROM d GROUP BY ix, iy),
    g AS (SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(x) AS BIGINT) AS sx,
                 CAST(sum(x * x) AS BIGINT) AS sxx FROM c),
    nb AS (SELECT a.ix, a.iy, max(a.x) AS xi,
                  CAST(sum(b.x) AS BIGINT) AS nx,
                  CAST(count(*) AS BIGINT) AS w
           FROM c a JOIN c b
           ON abs(a.ix - b.ix) <= 1 AND abs(a.iy - b.iy) <= 1
           GROUP BY a.ix, a.iy)
    SELECT nb.ix, nb.iy, nb.w - 1 AS n_nbr,
           CAST((g.n * nb.xi - g.sx)
                * (g.n * (nb.nx - nb.xi) - g.sx * (nb.w - 1)) AS DOUBLE)
             / CAST(g.n * g.sxx - g.sx * g.sx AS DOUBLE) AS local_i
    FROM nb, g
"""


QUERIES["local_moran"] = q_local_moran
