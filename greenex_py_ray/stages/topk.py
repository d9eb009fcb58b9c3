"""Grouped top-k selection (training-data op: "best k documents per
language / domain / cluster").

Scale design: a vectorized per-batch PARTIAL top-k first (at most k
rows per group survive each batch), so only ``k × num_batches`` rows
enter the ``groupby`` shuffle instead of the full table; the final
per-group reduce applies the identical kernel and emits a 1-based
``rank``.  Ties are broken by an explicit tie column so the result is
deterministic and SQL-reproducible (``row_number() OVER (PARTITION BY
group ORDER BY score DESC, tie ASC)``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def _topk_indices(group: np.ndarray, score: np.ndarray, tie: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the top-k rows per group (score desc, tie asc)
    plus their 0-based within-group ranks.  Fully vectorized:
    factorize → lexsort → per-group rank via run starts."""
    gi = np.unique(group, return_inverse=True)[1]
    if score.dtype.kind == "u":
        # negation wraps for unsigned dtypes (score==0 would sort as
        # the BEST row); reinterpret in a signed/float domain first
        score = (score.astype(np.int64)
                 if score.size == 0 or score.max() <= np.iinfo(np.int64).max
                 else score.astype(np.float64))
    # lexsort: last key is primary → group asc, then score desc, tie asc
    order = np.lexsort((tie, -score, gi))
    gs = gi[order]
    first = np.concatenate(([0], np.flatnonzero(np.diff(gs)) + 1))
    runs = np.diff(np.concatenate((first, [len(gs)])))
    rank = np.arange(len(gs)) - np.repeat(first, runs)
    keep = rank < k
    return order[keep], rank[keep]


def topk_per_group(ds: "ray.data.Dataset", group_col: str, score_col: str,
                   k: int, tie_col: str,
                   emit_rank: bool = True) -> "ray.data.Dataset":
    """Top ``k`` rows per ``group_col`` by ``score_col`` (desc), ties by
    ``tie_col`` (asc).  Numeric scores only (int or float); the partial
    pass keeps ≤k rows per group per batch, so the shuffle moves a
    bounded sliver of the input regardless of table size."""

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch):
            idx, _ = _topk_indices(
                batch.column(group_col).to_numpy(zero_copy_only=False),
                batch.column(score_col).to_numpy(zero_copy_only=False),
                batch.column(tie_col).to_numpy(zero_copy_only=False), k)
            batch = batch.take(pa.array(idx))
        # see functions/exchange.bucket_exchange: no pandas metadata
        return batch.replace_schema_metadata()

    def final(batch: pa.Table) -> pa.Table:
        idx, rank = _topk_indices(
            batch.column(group_col).to_numpy(zero_copy_only=False),
            batch.column(score_col).to_numpy(zero_copy_only=False),
            batch.column(tie_col).to_numpy(zero_copy_only=False), k)
        out = batch.take(pa.array(idx))
        if emit_rank:
            out = out.append_column(
                "rank", pa.array(rank + 1, pa.int64()))
        return out

    reduced = ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
    return reduced.groupby(group_col).map_groups(
        final, batch_format="pyarrow")


def _skyline_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-dominated mask for maximize-x / minimize-y: row B is
    dominated iff some A has x≥, y≤ with one strict.  Vectorized:
    sort x desc / y asc, then a row is dominated when the min y over
    STRICTLY greater x is ≤ its y, or the min y within its equal-x
    block is < its y (exact duplicates survive together)."""
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((y, -x))
    xs, ys = x[order], y[order]
    new_block = np.concatenate(([True], xs[1:] != xs[:-1]))
    block_id = np.cumsum(new_block) - 1
    block_min = ys[new_block]          # y asc within block → first is min
    prev_best = np.concatenate(
        ([np.iinfo(np.int64).max],
         np.minimum.accumulate(block_min)[:-1]))
    dom = (prev_best[block_id] <= ys) | (ys > block_min[block_id])
    keep = np.zeros(n, dtype=bool)
    keep[order] = ~dom
    return keep


def group_skyline(ds: "ray.data.Dataset", group_col: str, max_col: str,
                  min_col: str) -> "ray.data.Dataset":
    """Per-group skyline (Pareto frontier): rows not dominated on
    (``max_col`` maximize, ``min_col`` minimize) by any same-group row
    — the classic multi-criteria shortlist query.  Both criteria must
    be int64 (quantize floats first) so dominance is exact.

    Scale shape: the per-batch partial drops locally dominated rows
    (the frontier of a batch is tiny — O(√batch) for random data), so
    the groupby shuffle ships only local frontiers; the final per-group
    kernel is the identical vectorized mask."""

    def _apply(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        g = batch.column(group_col).to_numpy(zero_copy_only=False)
        x = batch.column(max_col).to_numpy(zero_copy_only=False)
        y = batch.column(min_col).to_numpy(zero_copy_only=False)
        keep = np.zeros(len(g), dtype=bool)
        gi = np.unique(g, return_inverse=True)[1]
        order = np.argsort(gi, kind="stable")
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(gi[order])) + 1, [len(g)]))
        for s, e in zip(bounds[:-1], bounds[1:]):
            idx = order[s:e]
            keep[idx] = _skyline_mask(x[idx], y[idx])
        return batch.filter(pa.array(keep))

    reduced = ds.map_batches(_apply, batch_format="pyarrow",
                             zero_copy_batch=True)
    return reduced.groupby(group_col).map_groups(
        _apply, batch_format="pyarrow")


def group_mode(ds: "ray.data.Dataset", group_col: str,
               value_col: str) -> "ray.data.Dataset":
    """Most frequent ``value_col`` per ``group_col`` (the per-group MODE
    — "dominant event type per user", "majority label per cluster"),
    ties broken by the lexicographically smallest value so the result
    is deterministic and SQL-reproducible (``row_number() OVER
    (PARTITION BY group ORDER BY cnt DESC, value ASC)``).

    Scale shape: per-batch partial counts collapse rows to distinct
    (group, value) pairs BEFORE the first shuffle, the exact-count
    groupby moves only that distinct sliver, and a second partial top-1
    pass bounds the final per-group reduce at one row per group per
    batch.  String values are ranked via ``np.unique`` codes (ascending
    codes ARE lexicographic order) — no Python compares in the pick."""

    def partial_counts(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({group_col: pa.array([], pa.int64()),
                             value_col: pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        t = batch.select([group_col, value_col]).group_by(
            [group_col, value_col]).aggregate([([], "count_all")])
        return t.rename_columns([group_col, value_col, "cnt"]).set_column(
            2, "cnt", t.column("count_all").cast(pa.int64()))

    def pick(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        g = batch.column(group_col).to_numpy(zero_copy_only=False)
        c = batch.column("cnt").to_numpy(zero_copy_only=False)
        v = np.asarray(batch.column(value_col).to_pylist(), dtype="U")
        vcodes = np.unique(v, return_inverse=True)[1]
        order = np.lexsort((vcodes, -c.astype(np.int64), g))
        gs = g[order]
        first = np.ones(len(gs), dtype=bool)
        if len(gs) > 1:
            first[1:] = gs[1:] != gs[:-1]
        return batch.take(pa.array(order[first]))

    from ray.data.aggregate import Sum

    counts = (ds.map_batches(partial_counts, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby([group_col, value_col])
              .aggregate(Sum("cnt", alias_name="cnt")))
    best = (counts.map_batches(pick, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby(group_col).map_groups(pick, batch_format="pyarrow"))

    def rename(batch: pa.Table) -> pa.Table:
        names = [("mode_value" if n == value_col else n)
                 for n in batch.column_names]
        return batch.rename_columns(names)

    return best.map_batches(rename, batch_format="pyarrow",
                            zero_copy_batch=True)
