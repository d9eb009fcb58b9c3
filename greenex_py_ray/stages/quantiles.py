"""Exact distribution quantiles over an integer-valued column
(training-data op: corpus length/score percentiles for filter-threshold
selection).

Scale design: per-batch value-count partials (``np.unique`` — rows
collapse to distinct values before anything moves), a ``groupby(value)``
sum whose shuffle payload is O(#distinct values) not O(rows), and a
driver-side quantile walk over the tiny merged histogram.  The quantile
definition is explicit — the smallest value whose cumulative count
reaches ``ceil(q·n)`` (``quantile_disc`` semantics) — so ANSI SQL
reproduces it with a windowed cumulative sum, no engine-specific
quantile builtin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

from ..functions.joins import KernelStage
from ..sidefiles import shipped, side_table


def value_counts(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """(v, c) distinct-value counts of ``ds[col]`` — partial per-batch
    counts, then a groupby-sum over values only."""

    def partial(batch: pa.Table) -> pa.Table:
        v, c = np.unique(
            batch.column(col).to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"v": pa.array(v.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("v").aggregate(Sum("c", alias_name="c")))


def exact_quantiles(ds: "ray.data.Dataset", col: str,
                    qs: "tuple[float, ...]") -> pa.Table:
    """Exact discrete quantiles of an integer column: for each ``q``,
    the smallest value whose cumulative count ≥ ``ceil(q·n)``.  The
    driver only ever sees the merged (value, count) histogram — pulled
    as Arrow blocks (not Python row dicts) and bounded at 5M distinct
    values so a mistakenly high-cardinality column raises instead of
    materializing an unbounded histogram."""
    tbls, total = [], 0
    for b in value_counts(ds, col).sort("v").iter_batches(
            batch_format="pyarrow"):
        total += len(b)
        if total > 5_000_000:
            raise ValueError(
                f"{col}: more than 5M distinct values — not a sensible "
                "integer-histogram quantile column")
        tbls.append(b)
    hist = (pa.concat_tables(tbls) if tbls
            else pa.table({"v": pa.array([], pa.int64()),
                           "c": pa.array([], pa.int64())}))
    v = hist.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    c = hist.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    cum = np.cumsum(c)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        if n == 0:
            continue
        target = int(np.ceil(q * n))
        out_q.append(float(q))
        out_v.append(int(v[np.searchsorted(cum, max(target, 1))]))
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.int64())})


class _RankLookup:
    """Kernel: percent-rank lookup from the broadcast cumulative
    histogram (built once per kernel in ``__init__``)."""

    def __init__(self, hist_ref, col: str, out_col: str):
        self.v, cum, self.n = side_table(hist_ref)
        # count of rows strictly below each distinct value
        self.below = np.concatenate(([0], cum[:-1]))
        self.col = col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(self.v, x)
        denom = max(self.n - 1, 1)
        below = self.below[idx]
        pr = np.round(below / float(denom), 6)
        # integer floor-div micro-rank: hash-exact across engines (the
        # float can land on a 6th-decimal half and trip rounding-mode
        # differences)
        pr_q6 = (below * 1_000_000) // denom
        return (batch.append_column(self.out_col,
                                    pa.array(pr, pa.float64()))
                .append_column(self.out_col + "_q6",
                               pa.array(pr_q6.astype(np.int64))))


def percent_rank(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """SQL ``percent_rank()`` over the whole dataset without a global
    sort: ``(#rows < value) / (n - 1)``, ties share a rank.

    Two passes: the O(#distinct) value-count histogram (same bounded
    pull as :func:`exact_quantiles`) cumsums on the driver and ships
    to the object store; a lookup kernel stage then maps each row
    through one ``searchsorted``.  No row ever shuffles."""
    tbls, total = [], 0
    for b in value_counts(ds, col).sort("v").iter_batches(
            batch_format="pyarrow"):
        total += len(b)
        if total > 5_000_000:
            raise ValueError(
                f"{col}: more than 5M distinct values — not a sensible "
                "integer-histogram rank column")
        tbls.append(b)
    hist = (pa.concat_tables(tbls) if tbls
            else pa.table({"v": pa.array([], pa.int64()),
                           "c": pa.array([], pa.int64())}))
    v = hist.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    c = hist.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    cum = np.cumsum(c)
    n = int(cum[-1]) if len(cum) else 0
    return KernelStage(
        _RankLookup,
        dict(hist_ref=shipped((v, cum, n)), col=col, out_col="pct_rank"),
        dict(num_cpus=0.25)).on(ds)


def group_winsorize(ds: "ray.data.Dataset", group_col: str, col: str,
                    p_lo: float = 0.1,
                    p_hi: float = 0.9) -> "ray.data.Dataset":
    """Per-group winsorized statistics of an integer column: exact
    discrete ``p_lo``/``p_hi`` quantiles per group (same smallest-value-
    with-cum ≥ ceil(q·n) convention as :func:`exact_quantiles`), the
    group's clipped sum Σ clip(v, lo, hi), and how many rows each tail
    clipped — the outlier-robust length/score statistic a corpus pass
    computes before setting filter thresholds.

    Scale shape: per-batch (group, value) distinct counts collapse rows
    BEFORE the one shuffle (payload O(#groups × #distinct values)); the
    per-group final walks its own tiny value histogram.  Everything is
    int64-exact — no float quantile interpolation."""
    if not (0.0 < p_lo < p_hi < 1.0):
        raise ValueError("need 0 < p_lo < p_hi < 1")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col)
        v = batch.column(col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        t = pa.table({group_col: g, "v": pa.array(v)}).group_by(
            [group_col, "v"]).aggregate([([], "count_all")])
        return pa.table({group_col: t.column(group_col),
                         "v": t.column("v"),
                         "c": t.column("count_all").cast(pa.int64())})

    def final(df) -> "object":
        import pandas as pd

        if not len(df):
            return pd.DataFrame({group_col: pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64"),
                                 "lo": pd.Series([], dtype="int64"),
                                 "hi": pd.Series([], dtype="int64"),
                                 "sum_winsor": pd.Series([], dtype="int64"),
                                 "n_lo": pd.Series([], dtype="int64"),
                                 "n_hi": pd.Series([], dtype="int64")})
        v = df["v"].to_numpy(np.int64)
        c = df["c"].to_numpy(np.int64)
        order = np.argsort(v, kind="stable")
        v, c = v[order], c[order]
        cum = np.cumsum(c)
        n = int(cum[-1])
        lo = int(v[np.searchsorted(
            cum, max(int(np.ceil(p_lo * n)), 1))])
        hi = int(v[np.searchsorted(
            cum, max(int(np.ceil(p_hi * n)), 1))])
        clipped = np.clip(v, lo, hi)
        return pd.DataFrame({
            group_col: [df[group_col].iloc[0]],
            "n": np.array([n], np.int64),
            "lo": np.array([lo], np.int64),
            "hi": np.array([hi], np.int64),
            "sum_winsor": np.array([int((c * clipped).sum())], np.int64),
            "n_lo": np.array([int(c[v < lo].sum())], np.int64),
            "n_hi": np.array([int(c[v > hi].sum())], np.int64),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby([group_col, "v"]).aggregate(Sum("c", alias_name="c"))
            .groupby(group_col).map_groups(final, batch_format="pandas"))


def global_rank_ntile(ds: "ray.data.Dataset", col: str, key_col: str,
                      tiles: int = 10) -> "ray.data.Dataset":
    """Exact global ``row_number()`` + ``NTILE(tiles)`` ordered by
    (quantized value, key) — WITHOUT a global sort.

    Two passes: (1) per-batch (value, count) partials reduce to the
    distinct-value histogram, whose sorted cumulative sums broadcast as
    the rank base per value (driver state is O(#distinct values) —
    bounded by the value domain, not the row count); (2) a
    groupby(value) pass ranks each value's keys locally and adds the
    broadcast base.  NTILE uses SQL's exact fill rule (first ``n % t``
    tiles get the extra row).
    """

    def counts(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        q = np.round(v * 100.0, 0).astype(np.int64)
        uniq, cnt = np.unique(q, return_counts=True)
        return pa.table({"q": pa.array(uniq),
                         "n": pa.array(cnt.astype(np.int64))})

    hist = (ds.map_batches(counts, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("q").aggregate(Sum("n", alias_name="n"))
            .to_pandas().sort_values("q"))
    qs = hist["q"].to_numpy()
    base = np.concatenate(([0], np.cumsum(hist["n"].to_numpy())[:-1]))
    n_total = int(hist["n"].sum())
    ref = shipped({"qs": qs, "base": base})
    per, rem = divmod(n_total, tiles)

    def add_q(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: batch.column(key_col),
            "q": pa.array(np.round(v * 100.0, 0).astype(np.int64)),
        })

    def rank_group(tbl: pa.Table) -> pa.Table:
        st = side_table(ref)
        qv = int(tbl.column("q")[0].as_py())
        b = int(st["base"][np.searchsorted(st["qs"], qv)])
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        r0 = np.empty(len(keys), dtype=np.int64)  # 0-based global rank
        r0[order] = b + np.arange(len(keys), dtype=np.int64)
        cut = (per + 1) * rem
        tile = np.where(r0 < cut, r0 // (per + 1),
                        rem + (r0 - cut) // per if per else rem)
        return pa.table({
            key_col: tbl.column(key_col),
            "rank": pa.array(r0 + 1),
            "tile": pa.array(tile.astype(np.int64) + 1),
        })

    proj = ds.map_batches(add_q, batch_format="pyarrow",
                          zero_copy_batch=True)
    return proj.groupby("q").map_groups(rank_group, batch_format="pyarrow")
