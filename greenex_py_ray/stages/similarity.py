"""Similarity search over an embedding column (ANN operators).

* ``BruteForceTopK`` — baseline: per-batch numpy matmul of the batch's
  embeddings against a BROADCAST query matrix (shipped once), local
  top-k per batch, then a global top-k reduce via
  ``sort(score).limit(k)`` over the small per-batch candidate set.
* ``ivf_assign`` / IVF path — the scale variant: k-means-style coarse
  centroids (trained on a driver-side sample), each vector assigned to
  its nearest centroid cell; queries probe only ``nprobe`` cells — the
  spatial-cell pattern applied to embedding space.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..functions.joins import KernelStage, cluster_cpus
from ..sidefiles import shipped, side_table


def _to_matrix(col, dim: int) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim).astype(np.float64)


class BruteForceTopK:
    """Local top-k cosine per query against each batch.

    Emits (query_id, key, score) rows — at most k per (query, batch);
    the global answer is the top-k of the union (guaranteed superset
    property of per-partition top-k).
    """

    def __init__(self, queries_ref, k: int, dim: int, key_col: str = "vec_id",
                 vec_col: str = "embedding", probe_cells=None,
                 cell_col: str = "ivf_cell"):
        q = side_table(queries_ref)
        self.qids = q["query_id"]
        Q = np.asarray(q["vectors"], dtype=np.float64)
        qn = np.linalg.norm(Q, axis=1)
        qn[qn == 0] = 1.0
        self.Qn = Q / qn[:, None]
        self.k = k
        self.dim = dim
        self.key_col = key_col
        self.vec_col = vec_col
        # IVF mode: (nq, nprobe) per-query probed cell ids — each query
        # is scored ONLY against rows in its own probe cells, not the
        # union across queries (the round-1 over-scan)
        self.probe_cells = (np.asarray(probe_cells, dtype=np.int64)
                            if probe_cells is not None else None)
        self.cell_col = cell_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        V = _to_matrix(batch.column(self.vec_col), self.dim)
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        norms = np.linalg.norm(V, axis=1)
        norms[norms == 0] = 1.0
        sim = (V / norms[:, None]) @ self.Qn.T  # (batch, nq)
        if self.probe_cells is not None:
            cells = batch.column(self.cell_col).to_numpy(zero_copy_only=False)
            allowed = (cells[:, None, None]
                       == self.probe_cells[None, :, :]).any(axis=2)
            sim = np.where(allowed, sim, -np.inf)
        k = min(self.k, len(keys))
        out_q, out_key, out_score = [], [], []
        for j, qid in enumerate(self.qids):
            s = sim[:, j]
            top = np.argpartition(-s, k - 1)[:k] if k < len(s) else np.arange(len(s))
            top = top[np.isfinite(s[top])]
            out_q.append(np.full(len(top), qid, dtype=np.int64))
            out_key.append(keys[top])
            out_score.append(s[top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                self.key_col: pa.array(np.concatenate(out_key)),
                "score": pa.array(np.concatenate(out_score)),
            }
        )


def brute_force_topk(
    ds: "ray.data.Dataset", queries: dict, k: int, dim: int,
    key_col: str = "vec_id", probe_cells=None, vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """Global top-k per query: broadcast queries, per-batch local top-k,
    then a tiny per-query reduce (the candidate set is ≤ k·num_batches
    rows — small).

    The scan runs as plain TASKS: the only "state" is the broadcast
    query matrix, and ``ray.get`` of a plasma object inside a task is a
    zero-copy handle.  The reduce is a single-partition vectorized
    lexsort instead of a sort-shuffle ``groupby.map_groups`` — the
    candidate set is k·num_batches rows by construction, so one narrow
    exchange beats all-to-all machinery at every scale."""
    ref = shipped(queries)

    def scan(batch: pa.Table) -> pa.Table:
        return BruteForceTopK(ref, k=k, dim=dim, key_col=key_col,
                              vec_col=vec_col,
                              probe_cells=probe_cells)(batch)

    cand = ds.map_batches(scan, batch_format="pyarrow")

    def final_topk(tbl: pa.Table) -> pa.Table:
        qid = tbl.column("query_id").to_numpy(zero_copy_only=False)
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        score = tbl.column("score").to_numpy(zero_copy_only=False)
        # deterministic tie-break (score desc, key asc) per query
        order = np.lexsort((keys, -score, qid))
        qs = qid[order]
        starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
        rank = np.arange(len(qs)) - np.repeat(starts, np.diff(np.r_[starts, len(qs)]))
        keep = order[rank < k]
        return pa.table({
            "query_id": pa.array(qid[keep]),
            key_col: pa.array(keys[keep]),
            "score": pa.array(score[keep]),
        })

    return cand.repartition(1).map_batches(
        final_topk, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# IVF (inverted file) scale path
# ---------------------------------------------------------------------------


def fixed_random_centroids(dim: int, n_centroids: int = 16,
                           seed: int = 17) -> np.ndarray:
    """Deterministic, data-independent coarse centroids (seeded standard
    gaussian).  Production IVF trains the quantizer on a sample
    (:func:`train_centroids`); the correctness GATE uses this fixed
    quantizer so the DuckDB oracle can embed the centroid constants as
    full-precision literals regardless of scale factor."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_centroids, dim))


def train_centroids(sample: np.ndarray, n_centroids: int, iters: int = 10,
                    seed: int = 17) -> np.ndarray:
    """Lloyd k-means on a driver-side sample (the coarse quantizer)."""
    rng = np.random.default_rng(seed)
    C = sample[rng.choice(len(sample), n_centroids, replace=False)].astype(np.float64)
    for _ in range(iters):
        d = ((sample[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(n_centroids):
            pts = sample[assign == c]
            if len(pts):
                C[c] = pts.mean(0)
    return C


class IVFAssign:
    """Kernel: append ``ivf_cell`` = nearest coarse centroid id."""

    def __init__(self, centroids_ref, dim: int, vec_col: str = "embedding"):
        self.C = np.asarray(side_table(centroids_ref), dtype=np.float64)
        self.dim = dim
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        V = _to_matrix(batch.column(self.vec_col), self.dim)
        # ||v-c||² = ||v||² - 2 v·c + ||c||²; argmin over c
        d = -2.0 * (V @ self.C.T) + (self.C * self.C).sum(1)[None, :]
        return batch.append_column("ivf_cell", pa.array(d.argmin(1).astype(np.int64)))


def ivf_topk(
    ds: "ray.data.Dataset", queries: dict, centroids: np.ndarray, k: int, dim: int,
    nprobe: int = 4, key_col: str = "vec_id",
) -> "ray.data.Dataset":
    """ANN: probe only the ``nprobe`` nearest IVF cells per query.
    Approximate — recall measured against ``brute_force_topk`` in tests."""
    assigned = _ivf_assign(ds, centroids, dim)
    probe_cells = _probe_cells(queries, centroids, nprobe)
    cells = np.unique(probe_cells)
    # prune the dataset to probed cells, then brute-force inside
    pruned = assigned.map_batches(
        lambda b, cs=set(cells.tolist()): b.filter(
            pa.array(np.isin(b.column("ivf_cell").to_numpy(zero_copy_only=False), list(cs)))
        ),
        batch_format="pyarrow",
    )
    per_query = {
        "query_id": queries["query_id"],
        "vectors": queries["vectors"],
    }
    return brute_force_topk(pruned, per_query, k, dim, key_col,
                            probe_cells=probe_cells)


def _ivf_assign(ds: "ray.data.Dataset", centroids: np.ndarray, dim: int,
                vec_col: str = "embedding") -> "ray.data.Dataset":
    """``ds`` with each vector's ``ivf_cell`` (:class:`IVFAssign`)."""
    return KernelStage(
        IVFAssign,
        dict(centroids_ref=shipped(np.asarray(centroids, dtype=np.float64)),
             dim=dim, vec_col=vec_col),
        dict(num_cpus=0.25)).on(ds)


def _probe_cells(queries: dict, centroids: np.ndarray,
                 nprobe: int) -> np.ndarray:
    """(nq, nprobe) nearest coarse cells per query — the single probe
    rule shared by the one-shot and persisted-index paths."""
    C = np.asarray(centroids, dtype=np.float64)
    Q = np.asarray(queries["vectors"], dtype=np.float64)
    d = -2.0 * (Q @ C.T) + (C * C).sum(1)[None, :]
    return np.argsort(d, axis=1)[:, :nprobe]


def ivf_build(ds: "ray.data.Dataset", centroids: np.ndarray, dim: int,
              out_dir: str, vec_col: str = "embedding",
              overwrite: bool = False) -> str:
    """Build a persisted IVF index: assign every vector to its coarse
    cell and write CELL-PARTITIONED parquet (one hive directory per
    ``ivf_cell``).  This is the build-once/query-many split
    :func:`ivf_topk` lacks — that one-shot form re-assigns the whole
    table per call, so it can never beat a brute scan; with the index
    on disk a query reads ONLY its probed cells' files
    (nprobe/n_centroids of the data).

    Refuses a non-empty ``out_dir`` unless ``overwrite=True`` (which
    clears it): ``write_parquet`` appends uuid-named files, so writing
    into a stale index would silently mix old and new vectors."""
    import os as _os
    import shutil as _shutil

    if _os.path.isdir(out_dir) and _os.listdir(out_dir):
        if not overwrite:
            raise FileExistsError(
                f"{out_dir} is not empty — a rebuild into a stale index "
                "would mix old and new files; pass overwrite=True")
        _shutil.rmtree(out_dir)
    _ivf_assign(ds, centroids, dim, vec_col).write_parquet(
        out_dir, partition_cols=["ivf_cell"])
    return out_dir


def ivf_query_index(index_dir: str, queries: dict, centroids: np.ndarray,
                    k: int, dim: int, nprobe: int = 4,
                    key_col: str = "vec_id",
                    vec_col: str = "embedding") -> "ray.data.Dataset":
    """Top-k per query against a persisted :func:`ivf_build` index —
    reads only the probed cells' partitions, then brute-forces inside
    (the standard IVF probe).  Approximate: recall depends on how well
    the quantizer separates the data (isotropic gaussians are the
    worst case; clustered embeddings probe well)."""
    import os as _os

    if not _os.path.isdir(index_dir):
        raise FileNotFoundError(
            f"IVF index dir {index_dir} does not exist — run ivf_build "
            "first (a silent empty result would be indistinguishable "
            "from an empty probe)")
    probe_cells = _probe_cells(queries, centroids, nprobe)
    cells = np.unique(probe_cells)
    import glob as _glob

    # expand each probed cell dir to its parquet files (a list of
    # directories is not reliably expanded by the reader)
    paths = []
    for c in cells.tolist():
        d = _os.path.join(index_dir, f"ivf_cell={c}")
        if _os.path.isdir(d):
            paths.extend(sorted(_glob.glob(_os.path.join(d, "*.parquet"))))
    if not paths:
        return brute_force_topk(
            ray.data.from_arrow(pa.table({key_col: pa.array([], pa.int64())})),
            queries, k, dim, key_col)
    # the hive path segment (ivf_cell=N) is restored as a column on
    # read (as a string — cast back to int64), so per-query probe
    # masking stays strict: each query scores only ITS cells, not the
    # union across queries
    import pyarrow.compute as _pc

    def cast_cell(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("ivf_cell")
        col = _pc.cast(_pc.cast(b.column("ivf_cell"), pa.string()),
                       pa.int64())
        return b.set_column(i, "ivf_cell", col)

    # a partitioned build leaves ~write-concurrency small files per
    # cell; one read task per tiny file would swamp the probe with
    # scheduling overhead, so bundle files into at most ~2×CPUs blocks
    pruned = ray.data.read_parquet(
        paths, override_num_blocks=min(len(paths), 2 * cluster_cpus()),
    ).map_batches(cast_cell, batch_format="pyarrow", zero_copy_batch=True)
    return brute_force_topk(pruned, queries, k, dim, key_col,
                            probe_cells=probe_cells, vec_col=vec_col)


class CosinePairsExact:
    """Kernel: exact all-pairs cosine similarity join against a
    BROADCAST (id, vector) matrix — each batch emits its pairs
    ``(key_a < key_b, cosine >= threshold)`` against the whole table.

    This is the exact O(n²) similarity join: size-gated by construction
    (the broadcast side must fit an object-store entry; the bucketed LSH
    operators in :mod:`~greenex_py_ray.stages.dedup` are the 100 TB
    path).  Cosine is computed as dot/(norm·norm) in float64, the same
    form as DuckDB's ``list_cosine_similarity``, and rounded to 6
    decimals so the value hash is stable across summation orders.
    """

    def __init__(self, all_ref, dim: int, threshold: float,
                 key_col: str = "vec_id", vec_col: str = "embedding"):
        a = side_table(all_ref)
        self.all_ids = np.asarray(a["ids"], dtype=np.int64)
        V = np.asarray(a["vectors"], dtype=np.float64)
        n = np.linalg.norm(V, axis=1)
        n[n == 0] = 1.0
        self.V = V
        self.norms = n
        self.dim = dim
        self.threshold = float(threshold)
        self.key_col = key_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        Vb = _to_matrix(batch.column(self.vec_col), self.dim)
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        nb = np.linalg.norm(Vb, axis=1)
        nb[nb == 0] = 1.0
        sim = (Vb @ self.V.T) / (nb[:, None] * self.norms[None, :])
        # keep key_a < key_b so each unordered pair is emitted exactly once
        lt = keys[:, None] < self.all_ids[None, :]
        hit = lt & (sim >= self.threshold)
        bi, aj = np.nonzero(hit)
        return pa.table({
            "key_a": pa.array(keys[bi]),
            "key_b": pa.array(self.all_ids[aj]),
            "cosine": pa.array(np.round(sim[bi, aj], 6)),
        })


def cosine_pairs_exact(
    ds: "ray.data.Dataset", dim: int, threshold: float,
    key_col: str = "vec_id", vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """Exact cosine similarity self-join (pairs with cosine >= threshold).

    Ships the full (id, vector) matrix to the object store once; each
    batch computes its block of the similarity matrix."""
    parts = list(ds.select_columns([key_col, vec_col])
                 .iter_batches(batch_format="pyarrow"))
    full = pa.concat_tables(parts)
    ids = full.column(key_col).to_numpy(zero_copy_only=False)
    V = _to_matrix(full.column(vec_col), dim)
    return KernelStage(
        CosinePairsExact,
        dict(all_ref=shipped({"ids": ids, "vectors": V}), dim=dim,
             threshold=threshold, key_col=key_col, vec_col=vec_col),
        dict(num_cpus=0.25)).on(ds)


#: centroid quantization grid (int64 micro-units per component)
CENTROID_Q = 1e6


def group_centroids(
    ds: "ray.data.Dataset", dim: int, group_col: str = "label",
    key_col: str = "vec_id", vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """Per-group embedding centroid (the k-means M-step / cluster
    profiling primitive).  Per-batch partials collapse each batch to
    one row per (group, dim) with int64 micro-unit component sums —
    order-independent, so the groupby merge is exact — then one
    O(#groups × dim) shuffle.  Emits (grp, dim, n, sum_q, mean)."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        M = _to_matrix(batch.column(vec_col), dim)
        q = np.round(M * CENTROID_Q).astype(np.int64)
        ug, inv = np.unique(g, return_inverse=True)
        sums = np.zeros((len(ug), dim), dtype=np.int64)
        np.add.at(sums, inv, q)
        n = np.bincount(inv, minlength=len(ug)).astype(np.int64)
        return pa.table({
            "grp": pa.array(np.repeat(ug, dim)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(ug))),
            "n": pa.array(np.repeat(n, dim)),
            "sum_q": pa.array(sums.ravel()),
        })

    from ray.data.aggregate import Sum

    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    agg = part.groupby(["grp", "dim"]).aggregate(
        Sum("n", alias_name="n"), Sum("sum_q", alias_name="sum_q"))

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        s = batch.column("sum_q").to_numpy(zero_copy_only=False)
        mean = np.round((s.astype(np.float64) / CENTROID_Q) / n, 6)
        return batch.append_column("mean", pa.array(mean))

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


#: squared-component quantization for exact-integer norm sums
NORM_SQ_Q = 1e12


def vector_norms(
    ds: "ray.data.Dataset", dim: int,
    key_col: str = "vec_id", vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """Per-vector L2 norm with an exact-integer interior: each squared
    component quantizes to int64 pico-units BEFORE the sum, so the
    accumulation order can never move the result across engines; the
    norm is one sqrt of the exact integer sum.  Emits (key, sumsq_q,
    norm_q6).  Stateless map — no shuffle."""

    def body(batch: pa.Table) -> pa.Table:
        M = _to_matrix(batch.column(vec_col), dim)
        q = np.round((M * M) * NORM_SQ_Q).astype(np.int64)
        s = q.sum(axis=1)
        norm_q6 = np.round(np.sqrt(s / NORM_SQ_Q) * 1e6).astype(np.int64)
        return pa.table({
            key_col: batch.column(key_col),
            "sumsq_q": pa.array(s),
            "norm_q6": pa.array(norm_q6),
        })

    return ds.map_batches(body, batch_format="pyarrow", zero_copy_batch=True)


def embedding_gram(ds: "ray.data.Dataset", col: str = "embedding",
                   dim: int = 64, q_scale: float = 1e4) -> "ray.data.Dataset":
    """Exact integer Gram matrix G = Σ_vec q qᵀ of an embedding column
    (the whitening / PCA-input statistic an embedding-quality pass
    accumulates).  Values quantize to int64 ``q_scale`` units FIRST, so
    the d×d sums are exact under any partitioning; each batch collapses
    to d² partial rows via one integer matmul — the shuffle is O(d²)
    per batch regardless of row count.  Returns (i, j, gram_q, gram)
    with gram = gram_q / q_scale²."""
    from ray.data.aggregate import Sum as _Sum

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = np.asarray(arr.flatten(), dtype=np.float64)
        q = np.round(flat * q_scale, 0).astype(np.int64).reshape(-1, dim)
        g = q.T @ q  # int64 matmul — exact
        ii, jj = np.meshgrid(np.arange(dim, dtype=np.int64),
                             np.arange(dim, dtype=np.int64),
                             indexing="ij")
        return pa.table({"i": ii.ravel(), "j": jj.ravel(),
                         "g": g.ravel()})

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["i", "j"]).aggregate(_Sum("g", alias_name="gram_q")))

    def fin(batch: pa.Table) -> pa.Table:
        gq = batch.column("gram_q").to_numpy(zero_copy_only=False)
        return pa.table({
            "i": batch.column("i"), "j": batch.column("j"),
            "gram_q": batch.column("gram_q"),
            "gram": gq.astype(np.float64) / (q_scale * q_scale),
        })

    return agg.map_batches(fin, batch_format="pyarrow",
                           zero_copy_batch=True)


# ---------------------------------------------------------------------------
# LSH (random-hyperplane / SimHash-style) bucketed ANN — scale path
# ---------------------------------------------------------------------------

#: quantization scale making every signature dot exact: emb values are
#: O(1) floats, round(v·1e6) ≤ ~1e8 per dim; |Σ eq·h| ≤ 64·1e8·48 ≈ 3e11
#: — exactly representable in both int64 and float64, so numpy and any
#: SQL replay agree on every sign bit.
LSH_QUANT = 1_000_000.0


def lsh_planes(dim: int, n_planes: int = 16) -> np.ndarray:
    """Deterministic integer hyperplanes: H[p,d] = ((131·p + 197·d)
    mod 97) − 48 — zero-mean small ints any engine reproduces exactly
    (same role as fixed_random_centroids for IVF)."""
    p = np.arange(n_planes, dtype=np.int64)[:, None]
    d = np.arange(dim, dtype=np.int64)[None, :]
    return (131 * p + 197 * d) % 97 - 48


def _band_codes(eq: np.ndarray, planes: np.ndarray,
                n_bands: int) -> np.ndarray:
    """(n, dim) quantized-int vectors → (n, n_bands) band codes.
    bit_p = [eq·H_p ≥ 0]; band b packs its bits little-endian."""
    bits = (eq @ planes.T >= 0).astype(np.int64)        # (n, n_planes)
    per = planes.shape[0] // n_bands
    w = 1 << np.arange(per, dtype=np.int64)
    return bits.reshape(len(eq), n_bands, per) @ w      # (n, n_bands)


def lsh_topk(
    ds: "ray.data.Dataset", queries: dict, k: int, dim: int,
    n_planes: int = 16, n_bands: int = 4, key_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """LSH-bucketed approximate top-k: vectors and queries hash to
    ``n_bands`` band codes; candidates are vectors sharing ANY band
    bucket with a query; exact cosine re-rank inside the bucket.

    This is the bucket-SHUFFLE plan (the scale path): each vector
    explodes to its (band, code) rows and candidates meet in a
    ``groupby(band, code)`` exchange — no broadcast of the corpus, hot
    buckets spread across band groups, and at 10^12 rows the exploded
    side is n_bands × corpus (bounded, linear).  A vector matching a
    query in several bands is scored in each — the final per-query
    top-k reduce collapses duplicates (identical (vec, score) rows)
    before ranking.  Recall tunes with n_planes / n_bands exactly like
    MinHash-LSH banding.
    """
    planes = lsh_planes(dim, n_planes)
    qv = np.asarray(queries["vectors"], dtype=np.float64)
    qids = np.asarray(queries["query_id"], dtype=np.int64)
    qq = np.round(qv * LSH_QUANT).astype(np.int64)
    qcodes = _band_codes(qq, planes, n_bands)           # (nq, n_bands)
    qref = shipped({"qids": qids, "qq": qq, "qcodes": qcodes})

    def explode(batch: pa.Table) -> pa.Table:
        v = _to_matrix(batch.column(vec_col), dim)
        eq = np.round(v * LSH_QUANT).astype(np.int64)
        codes = _band_codes(eq, planes, n_bands)
        q = side_table(qref)
        # pre-filter: only (vector, band) rows whose code matches SOME
        # query in that band survive — the exploded shuffle side drops
        # from n_bands×rows to the true candidate postings
        hit = (codes[:, :, None] == q["qcodes"].T[None, :, :]).any(2)
        vi, bi = np.nonzero(hit)
        return pa.table({
            key_col: batch.column(key_col).take(pa.array(vi)),
            "band": pa.array(bi.astype(np.int64)),
            "code": pa.array(codes[vi, bi]),
            "eq": pa.array(list(eq[vi]), type=pa.list_(pa.int64())),
        })

    posts = ds.map_batches(explode, batch_format="pyarrow",
                           zero_copy_batch=True)

    def score_group(tbl: pa.Table) -> pa.Table:
        band = int(tbl.column("band")[0].as_py())
        code = int(tbl.column("code")[0].as_py())
        q = side_table(qref)
        qsel = np.flatnonzero(q["qcodes"][:, band] == code)
        if len(qsel) == 0 or tbl.num_rows == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             key_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        eq = np.asarray(tbl.column("eq").combine_chunks()
                        .flatten().to_numpy(zero_copy_only=False)
                        ).reshape(tbl.num_rows, dim).astype(np.float64)
        qm = q["qq"][qsel].astype(np.float64)
        dots = eq @ qm.T
        sim = dots / (np.linalg.norm(eq, axis=1)[:, None]
                      * np.linalg.norm(qm, axis=1)[None, :])
        vi, qi = np.nonzero(np.ones_like(sim, dtype=bool))
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "query_id": pa.array(q["qids"][qsel][qi]),
            key_col: pa.array(keys[vi]),
            "score": pa.array(np.round(sim[vi, qi], 6)),
        })

    cand = posts.groupby(["band", "code"]).map_groups(
        score_group, batch_format="pyarrow")

    def final_topk(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        df = tbl.to_pandas().drop_duplicates(["query_id", key_col])
        df = df.sort_values(["query_id", "score", key_col],
                            ascending=[True, False, True])
        df = df.groupby("query_id", sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return cand.repartition(1).map_batches(final_topk,
                                           batch_format="pyarrow",
                                           batch_size=None)


def pca_components(ds: "ray.data.Dataset", n_components: int = 2,
                   col: str = "embedding", dim: int = 64,
                   q_scale: float = 1e4,
                   center: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Distributed PCA: top principal directions of an embedding column.

    The heavy statistic is ONE distributed pass — the exact integer
    Gram (:func:`embedding_gram` kernel) plus the column-sum / count for
    centering, all O(d²) shuffle payload.  The eigen step runs
    driver-side on the tiny d×d covariance via ``numpy.linalg.eigh``
    (sign fixed so each component's largest-|.| coordinate is positive)
    — the classic two-stage layout: cluster for the sufficient
    statistic, driver for the d³ tail.  Power iteration was measured
    too slow to converge on the near-degenerate spectrum of real
    embedding clouds.  Returns (components (k, d), eigenvalues (k,)).
    """
    from ray.data.aggregate import Sum as _Sum

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = np.asarray(arr.flatten(), dtype=np.float64)
        q = np.round(flat * q_scale, 0).astype(np.int64).reshape(-1, dim)
        g = q.T @ q
        out = {"i": pa.array(np.repeat(np.arange(dim + 1, dtype=np.int64),
                                       dim)),
               "j": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                     dim + 1))}
        # row dim == the column-sum row; cell (dim, 0) also carries n
        extra = q.sum(axis=0, dtype=np.int64)
        vals = np.concatenate([g.ravel(), extra])
        out["g"] = pa.array(vals)
        out["n"] = pa.array(np.r_[np.zeros(dim * dim, dtype=np.int64),
                                  np.full(dim, len(q), dtype=np.int64)])
        return pa.table(out)

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["i", "j"]).aggregate(_Sum("g", alias_name="g"),
                                          _Sum("n", alias_name="n"))
           ).to_pandas()
    G = np.zeros((dim, dim))
    s = np.zeros(dim)
    n = 0
    for _, r in agg.iterrows():
        if r["i"] < dim:
            G[int(r["i"]), int(r["j"])] = r["g"]
        else:
            s[int(r["j"])] = r["g"]
            n = max(n, int(r["n"]))
    G /= q_scale * q_scale
    s /= q_scale
    cov = G / n - np.outer(s / n, s / n) if center else G / n

    w, U = np.linalg.eigh(cov)
    order = np.argsort(-w)[:n_components]
    comps, eigs = [], []
    for c in order:
        v = U[:, c]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        comps.append(v)
        eigs.append(float(w[c]))
    return np.asarray(comps), np.asarray(eigs)


def lsh_build(ds: "ray.data.Dataset", dim: int, out_dir: str,
              n_planes: int = 32, n_bands: int = 4,
              key_col: str = "vec_id", vec_col: str = "embedding",
              overwrite: bool = False) -> str:
    """Persist the LSH posting layout: every vector's (band, code)
    postings written as hive-partitioned parquet (one directory per
    ``lsh_bucket = band * 2^bits + code``).  The build-once/query-many
    split for :func:`lsh_topk` — the one-shot form re-hashes the corpus
    per call and measured SLOWER than a brute scan at 1M × 64
    (BASELINE.md); against the persisted postings a query opens only
    its n_bands bucket directories."""
    import os as _os
    import shutil as _shutil

    if _os.path.isdir(out_dir) and _os.listdir(out_dir):
        if not overwrite:
            raise FileExistsError(
                f"{out_dir} is not empty — pass overwrite=True")
        _shutil.rmtree(out_dir)
    planes = lsh_planes(dim, n_planes)
    per = n_planes // n_bands

    def explode(batch: pa.Table) -> pa.Table:
        v = _to_matrix(batch.column(vec_col), dim)
        eq = np.round(v * LSH_QUANT).astype(np.int64)
        codes = _band_codes(eq, planes, n_bands)
        n = len(eq)
        rep = np.repeat(np.arange(n), n_bands)
        band = np.tile(np.arange(n_bands, dtype=np.int64), n)
        bucket = band * (1 << per) + codes[rep, band]
        return pa.table({
            key_col: batch.column(key_col).take(pa.array(rep)),
            "lsh_bucket": pa.array(bucket),
            "eq": pa.array(list(eq[rep]), type=pa.list_(pa.int64())),
        })

    posts = ds.map_batches(explode, batch_format="pyarrow",
                           zero_copy_batch=True)
    posts.write_parquet(out_dir, partition_cols=["lsh_bucket"])
    return out_dir


def lsh_query_index(index_dir: str, queries: dict, k: int, dim: int,
                    n_planes: int = 32, n_bands: int = 4,
                    key_col: str = "vec_id") -> "ray.data.Dataset":
    """Top-k per query against a persisted :func:`lsh_build` layout:
    open ONLY the query's n_bands bucket directories, dedup candidate
    keys, exact quantized-cosine re-rank."""
    import glob as _glob
    import os as _os

    if not _os.path.isdir(index_dir):
        raise FileNotFoundError(f"LSH index dir {index_dir} missing — "
                                "run lsh_build first")
    planes = lsh_planes(dim, n_planes)
    per = n_planes // n_bands
    qv = np.asarray(queries["vectors"], dtype=np.float64)
    qids = np.asarray(queries["query_id"], dtype=np.int64)
    qq = np.round(qv * LSH_QUANT).astype(np.int64)
    qcodes = _band_codes(qq, planes, n_bands)
    buckets = np.unique(
        (np.arange(n_bands, dtype=np.int64)[None, :] * (1 << per)
         + qcodes).ravel())
    paths = []
    for b in buckets.tolist():
        d = _os.path.join(index_dir, f"lsh_bucket={b}")
        if _os.path.isdir(d):
            paths.extend(sorted(_glob.glob(_os.path.join(d, "*.parquet"))))
    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      key_col: pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not paths:
        return ray.data.from_arrow(empty)
    qref = shipped({"qids": qids, "qq": qq,
                    "qbuckets": {int(b): np.flatnonzero(
                        (np.arange(n_bands)[None, :] * (1 << per)
                         + qcodes == b).any(1)).astype(np.int64)
                        for b in buckets.tolist()}})
    ds = ray.data.read_parquet(paths)

    def score(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        if batch.num_rows == 0:
            return empty
        q = side_table(qref)
        bcol = batch.column("lsh_bucket")
        if not pa.types.is_integer(bcol.type):
            bcol = _pc.cast(bcol, pa.int64())
        bks = bcol.to_numpy(zero_copy_only=False)
        eq = np.asarray(batch.column("eq").combine_chunks().flatten()
                        .to_numpy(zero_copy_only=False)
                        ).reshape(batch.num_rows, dim).astype(np.float64)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        outs = []
        for b in np.unique(bks):
            qsel = q["qbuckets"].get(int(b))
            if qsel is None or len(qsel) == 0:
                continue
            rows = np.flatnonzero(bks == b)
            qm = q["qq"][qsel].astype(np.float64)
            sub = eq[rows]
            sim = (sub @ qm.T) / (np.linalg.norm(sub, axis=1)[:, None]
                                  * np.linalg.norm(qm, axis=1)[None, :])
            vi, qi = np.nonzero(np.ones_like(sim, dtype=bool))
            outs.append(pa.table({
                "query_id": pa.array(q["qids"][qsel][qi]),
                key_col: pa.array(keys[rows][vi]),
                "score": pa.array(np.round(sim[vi, qi], 6)),
            }))
        return pa.concat_tables(outs) if outs else empty

    cand = ds.map_batches(score, batch_format="pyarrow")

    def final(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        df = tbl.to_pandas().drop_duplicates(["query_id", key_col])
        df = df.sort_values(["query_id", "score", key_col],
                            ascending=[True, False, True])
        df = df.groupby("query_id", sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return cand.repartition(1).map_batches(final, batch_format="pyarrow",
                                           batch_size=None)


def kmeans_assign_iterations(ds: "ray.data.Dataset", centroids0: np.ndarray,
                             dim: int, iters: int = 2,
                             q_scale: float = 1e4,
                             key_col: str = "vec_id",
                             vec_col: str = "embedding"):
    """Distributed Lloyd k-means, exact enough to value-gate: vectors
    quantize to int64 once, every centroid update is an INTEGER
    per-cluster (n, Σq per dim) reduce (O(k·d) shuffle payload per
    batch), and new centroids are the single double division Σq/n — so
    any SQL replay of the same expressions lands on identical
    assignments.  Distances use the ``-2·q·c + ‖c‖²`` form with
    first-index tie-break (same as IVFAssign).

    Returns (assignments Dataset (key, cluster) after ``iters``
    assignment rounds, final centroids ndarray in quantized units).
    """
    from ray.data.aggregate import Sum as _Sum

    C = np.asarray(centroids0, dtype=np.float64) * q_scale
    k = len(C)

    def assign_of(Ccur: np.ndarray):
        cref = shipped(Ccur)

        def fn(batch: pa.Table) -> pa.Table:
            Cl = side_table(cref)
            v = _to_matrix(batch.column(vec_col), dim)
            eq = np.round(v * q_scale).astype(np.int64).astype(np.float64)
            d = -2.0 * (eq @ Cl.T) + (Cl * Cl).sum(1)[None, :]
            cl = np.argmin(d, axis=1).astype(np.int64)  # first-index tie
            return pa.table({key_col: batch.column(key_col),
                             "cluster": pa.array(cl)})
        return fn

    for it in range(iters - 1):
        assigned = ds.map_batches(assign_of(C), batch_format="pyarrow",
                                  zero_copy_batch=True)
        # integer sufficient statistics for the update
        cref = shipped(C)

        def stats(batch: pa.Table) -> pa.Table:
            Cl = side_table(cref)
            v = _to_matrix(batch.column(vec_col), dim)
            eqf = np.round(v * q_scale).astype(np.int64)
            d = (-2.0 * (eqf.astype(np.float64) @ Cl.T)
                 + (Cl * Cl).sum(1)[None, :])
            cl = np.argmin(d, axis=1)
            n = np.bincount(cl, minlength=k).astype(np.int64)
            sums = np.zeros((k, dim), dtype=np.int64)
            np.add.at(sums, cl, eqf)
            cid = np.repeat(np.arange(k, dtype=np.int64), dim)
            dd = np.tile(np.arange(dim, dtype=np.int64), k)
            return pa.table({"cluster": pa.array(cid), "d": pa.array(dd),
                             "s": pa.array(sums.ravel()),
                             "n": pa.array(np.repeat(n, dim))})

        agg = (ds.map_batches(stats, batch_format="pyarrow",
                              zero_copy_batch=True)
               .groupby(["cluster", "d"])
               .aggregate(_Sum("s", alias_name="s"),
                          _Sum("n", alias_name="n"))).to_pandas()
        Cn = C.copy()
        for cid in range(k):
            sub = agg[agg.cluster == cid].sort_values("d")
            if len(sub) and int(sub["n"].iloc[0]) > 0:
                # per-(cluster, d) partials: s and n accumulate the
                # SAME batch set, so Σq/n is the exact mean per dim
                Cn[cid] = (sub["s"].to_numpy(dtype=np.float64)
                           / sub["n"].to_numpy(dtype=np.float64))
        C = Cn
    out = ds.map_batches(assign_of(C), batch_format="pyarrow",
                         zero_copy_batch=True)
    return out, C


#: medoid quantization (per-component units; |vq| ~ 1e4·|x| keeps
#: n·|vq|² within int64 up to n ≈ 5e7 rows/group at dim 64)
MEDOID_Q = 1e4


def group_medoid(ds: "ray.data.Dataset", dim: int,
                 group_col: str = "label", key_col: str = "vec_id",
                 vec_col: str = "embedding") -> "ray.data.Dataset":
    """Per-group medoid (the exemplar-selection primitive for cluster
    summarization / curation): the member minimizing the sum of squared
    distances to its group.

    No pairwise pass: ``Σ_j |v_i − v_j|² = n·|v_i|² − 2·v_i·S + Σ|v_j|²``
    — the last term is constant per group, so the argmin needs only the
    group sum vector ``S`` and count ``n``.  Pass 1 reuses the
    :func:`group_centroids` integer partials (one O(groups × dim)
    shuffle); the tiny (S, n) table broadcasts; pass 2 scores each row
    with one int64 expression and emits per-batch argmin PARTIALS, so
    the final reduce moves one row per (group, batch).  Ties break to
    the smaller ``key_col``.  All arithmetic is exact int64 on
    ``round(x·MEDOID_Q)`` components (both engines replay the identical
    integers)."""
    from ray.data.aggregate import Sum

    def sum_partial(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        M = _to_matrix(batch.column(vec_col), dim)
        q = np.round(M * MEDOID_Q).astype(np.int64)
        ug, inv = np.unique(g, return_inverse=True)
        sums = np.zeros((len(ug), dim), dtype=np.int64)
        np.add.at(sums, inv, q)
        n = np.bincount(inv, minlength=len(ug)).astype(np.int64)
        return pa.table({
            "grp": pa.array(np.repeat(ug, dim)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                    len(ug))),
            "n": pa.array(np.repeat(n, dim)),
            "sum_q": pa.array(sums.ravel()),
        })

    stats = (ds.map_batches(sum_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["grp", "dim"]).aggregate(
                 Sum("n", alias_name="n"), Sum("sum_q", alias_name="sum_q"))
             .to_pandas())
    groups = np.sort(stats["grp"].unique())
    gi = np.searchsorted(groups, stats["grp"].to_numpy(dtype=np.int64))
    di = stats["dim"].to_numpy(dtype=np.int64)
    S = np.zeros((len(groups), dim), dtype=np.int64)
    N = np.zeros(len(groups), dtype=np.int64)
    S[gi, di] = stats["sum_q"].to_numpy(dtype=np.int64)
    N[gi] = stats["n"].to_numpy(dtype=np.int64)
    ref = shipped((groups, S, N))

    def score_partial(batch: pa.Table) -> pa.Table:
        gr, Sm, Nn = side_table(ref)
        g = batch.column(group_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        k = batch.column(key_col).to_numpy(zero_copy_only=False)
        M = _to_matrix(batch.column(vec_col), dim)
        q = np.round(M * MEDOID_Q).astype(np.int64)
        gi = np.searchsorted(gr, g)
        # score = n·|v|² − 2·v·S  (int64-exact)
        score = (Nn[gi] * (q * q).sum(axis=1)
                 - 2 * (q * Sm[gi]).sum(axis=1))
        # per-(group, batch) argmin partial, ties to smaller key
        order = np.lexsort((k, score, g))
        gs, ks, ss = g[order], k[order], score[order]
        first = np.ones(len(gs), dtype=bool)
        first[1:] = gs[1:] != gs[:-1]
        return pa.table({"grp": pa.array(gs[first]),
                         key_col: pa.array(ks[first]),
                         "score_q": pa.array(ss[first])})

    part = ds.map_batches(score_partial, batch_format="pyarrow",
                          zero_copy_batch=True)

    def final(grp_df):
        import pandas as pd

        d = grp_df.sort_values(["grp", "score_q", key_col])
        out = d.groupby("grp", sort=False).head(1)
        return out.reset_index(drop=True)

    return part.groupby("grp").map_groups(final, batch_format="pandas")


#: MMR score quantization (micro-units) — rel and sim cosines round to
#: int64 before the λ mix, so the greedy argmax is integer-exact.
MMR_Q = 1e6


def mmr_topk(ds: "ray.data.Dataset", query_vec: np.ndarray, k: int,
             dim: int, m: int = 40, lam_tenths: int = 7,
             key_col: str = "vec_id",
             vec_col: str = "embedding") -> "pa.Table":
    """Maximal-marginal-relevance diversified top-k (Carbonell &
    Goldstein 1998): greedily pick ``k`` of the ``m`` most-relevant
    candidates, each step maximizing
    ``λ·rel(c) − (1−λ)·max_{s∈selected} sim(c, s)``.

    Distribution shape: relevance top-``m`` is the full
    :func:`brute_force_topk` scan (the only pass over the corpus); the
    greedy loop runs on the driver over the m-row candidate pool —
    inherently sequential in k and O(k·m) scalar work, exactly the
    "small side" a driver should own.  λ is carried in TENTHS so the
    mixed score is ``lam·relq − (10−lam)·msimq`` — pure int64, ties to
    the smaller id, bit-equal in any engine."""
    q64 = np.asarray(query_vec, dtype=np.float64)
    cand = brute_force_topk(
        ds, {"query_id": [0], "vectors": q64[None, :]}, m, dim,
        key_col=key_col, vec_col=vec_col).to_pandas()
    ids = np.sort(cand[key_col].to_numpy(dtype=np.int64))
    idset = set(ids.tolist())

    def pick(batch: pa.Table) -> pa.Table:
        kk = batch.column(key_col).to_numpy(zero_copy_only=False)
        keep = np.isin(kk, ids)
        return batch.filter(pa.array(keep))

    pool = (ds.map_batches(pick, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
            .sort_values(key_col).reset_index(drop=True))
    assert set(pool[key_col]) == idset
    V = np.stack([np.asarray(v, dtype=np.float64)
                  for v in pool[vec_col]])
    vid = pool[key_col].to_numpy(dtype=np.int64)
    norms = np.sqrt((V * V).sum(axis=1))
    relq = np.round(V @ q64 / (norms * np.sqrt(q64 @ q64))
                    * MMR_Q).astype(np.int64)
    simq = np.round((V @ V.T) / (norms[:, None] * norms[None, :])
                    * MMR_Q).astype(np.int64)

    n = len(vid)
    selected: list[int] = []
    avail = np.ones(n, dtype=bool)
    # step 0: pure relevance, ties to smaller id
    order0 = np.lexsort((vid, -relq))
    first = order0[0]
    selected.append(first)
    avail[first] = False
    for _ in range(1, min(k, n)):
        msim = simq[:, selected].max(axis=1)
        mmr = lam_tenths * relq - (10 - lam_tenths) * msim
        # sort key is the NEGATED score: push unavailable rows to +max
        # (negating an int64.min sentinel would overflow back to min
        # and sort them first)
        neg = np.where(avail, -mmr, np.iinfo(np.int64).max)
        order = np.lexsort((vid, neg))
        nxt = order[0]
        selected.append(nxt)
        avail[nxt] = False
    sel = np.asarray(selected)
    return pa.table({
        "rank": pa.array(np.arange(len(sel), dtype=np.int64)),
        key_col: pa.array(vid[sel]),
        "relq": pa.array(relq[sel]),
    })
