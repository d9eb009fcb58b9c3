"""Mergeable cardinality sketch: HyperLogLog registers.

The approximate-distinct primitive a 100 TB profiler runs where an
exact ``distinct_count`` shuffle is unaffordable: every batch collapses
to ≤ ``m`` (register, rho) rows, partial maxima merge associatively
under ANY partitioning/retry order, and the final register table is
KB-sized however large the input.  Flajolet et al. 2007 (public
algorithm).

Exactness contract: the register table is INTEGER-exact — value hash =
the corpus 64-bit polynomial hash (`stages/text.hash_string_array`,
the same hash the simhash oracle replays in HUGEINT SQL), register =
``h mod m``, rho = leading-zero count of the remaining 64−p bits + 1 —
so a SQL oracle reproduces every row bit-for-bit.  Only the final
scalar estimate (``hll_estimate``) involves floats; it is computed
driver-side from the tiny register table and verified by accuracy
bounds in pytest rather than a hash gate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Max

from .text import hash_string_array


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Integer bit length per element (no float round trip — a float64
    conversion rounds 2^56−1 up to 2^56 and lies about the exponent)."""
    v = v.copy()
    bl = np.zeros(v.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        v[m] >>= np.uint64(s)
    bl += (v == 1)
    return bl


#: Fibonacci-hash finalizer (2^64/φ, odd): one modular multiply spreads
#: low-entropy polynomial hashes across the TOP bits — the corpus
#: poly-hash alone leaves near-identical strings clustered there
#: (measured: HLL read 41% low on sequential tokens without it), and a
#: plain multiply is HUGEINT-replayable in SQL where xor-avalanche
#: finalizers are not.
_PHI64 = np.uint64(11400714819323198485)


def hll_partial(values_hash: np.ndarray, p: int = 8) -> pa.Table:
    """(register, rho) partial maxima for one batch of 64-bit hashes."""
    m = 1 << p
    with np.errstate(over="ignore"):  # mod-2^64 wrap is the mix
        mixed = values_hash * _PHI64
    reg = (mixed >> np.uint64(64 - p)).astype(np.int64)
    width = 64 - p
    rest = mixed & ((np.uint64(1) << np.uint64(width)) - np.uint64(1))
    rho = (width + 1) - _bit_length_u64(rest)
    slots = np.zeros(m, dtype=np.int64)
    np.maximum.at(slots, reg, rho)
    touched = np.flatnonzero(slots)
    return pa.table({"register": touched,
                     "rho": slots[touched]})


def hll_registers(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """HLL register table of a string column: one row per touched
    register, ``rho`` = max leading-zero rank seen.  One O(m·batches)
    groupby — the input never shuffles."""

    def partial(batch: pa.Table) -> pa.Table:
        c = batch.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return hll_partial(hash_string_array(c), 8)

    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.groupby("register").aggregate(
        Max("rho", alias_name="rho"))


def hll_estimate(registers: pa.Table, p: int = 8) -> float:
    """Standard bias-corrected HLL estimate (with the small-range
    linear-counting correction) from a (register, rho) table."""
    m = 1 << p
    rho = np.zeros(m, dtype=np.int64)
    rho[registers.column("register").to_numpy(zero_copy_only=False)] = \
        registers.column("rho").to_numpy(zero_copy_only=False)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -rho.astype(np.float64)))
    zeros = int(np.sum(rho == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


#: splitmix64 mixing constants (public domain, Vigna 2015) — one odd
#: multiplier per count-min row; each is SQL-replayable in HUGEINT via
#: the same 32-bit-split multiply as the HLL oracle
CMS_ROW_CONSTS = (
    np.uint64(11400714819323198485),   # 0x9E3779B97F4A7C15
    np.uint64(13787848793156543929),   # 0xBF58476D1CE4E5B9
    np.uint64(10723151780598845931),   # 0x94D049BB133111EB
    np.uint64(15485907386658061715),   # 0xD6E8FEB86659FD93
)


def cms_partial(values_hash: np.ndarray, d: int = 4,
                log2w: int = 6) -> pa.Table:
    """(row, cell, n) partial counts for one batch of 64-bit hashes —
    the count-min update, collapsed to ≤ d·w rows per batch."""
    w = 1 << log2w
    rows, cells, ns = [], [], []
    shift = np.uint64(64 - log2w)
    for r in range(d):
        with np.errstate(over="ignore"):  # mod-2^64 wrap is the mix
            m = values_hash * CMS_ROW_CONSTS[r]
        cell = (m >> shift).astype(np.int64)
        cnt = np.bincount(cell, minlength=w).astype(np.int64)
        touched = np.flatnonzero(cnt)
        rows.append(np.full(len(touched), r, dtype=np.int64))
        cells.append(touched)
        ns.append(cnt[touched])
    return pa.table({"row": pa.array(np.concatenate(rows)),
                     "cell": pa.array(np.concatenate(cells)),
                     "n": pa.array(np.concatenate(ns))})


def cms_registers(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """Count-min sketch register table of a string stream: d×w int64
    occurrence counters, each batch collapsing to ≤ d·w partial rows
    before the one O(d·w·batches) groupby — the mergeable heavy-hitter
    /frequency sketch (Cormode & Muthukrishnan 2005) a 100 TB profiler
    keeps where an exact per-token count shuffle is unaffordable.
    Integer-exact: hash = the corpus 64-bit polynomial hash, row r's
    cell = top 6 bits of ``hash · CMS_ROW_CONSTS[r] mod 2^64``
    — every register SQL-replayable bit-for-bit."""

    def partial(batch: pa.Table) -> pa.Table:
        c = batch.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return cms_partial(hash_string_array(c), 4, 6)

    from ray.data.aggregate import Sum

    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.groupby(["row", "cell"]).aggregate(
        Sum("n", alias_name="n"))


def cms_query(registers: pa.Table, token_hashes: np.ndarray, d: int = 4,
              log2w: int = 6) -> np.ndarray:
    """Point-frequency estimates (min over rows) from a register
    table — never under the true count, over by ≤ εN w.h.p."""
    w = 1 << log2w
    grid = np.zeros((d, w), dtype=np.int64)
    grid[registers.column("row").to_numpy(zero_copy_only=False),
         registers.column("cell").to_numpy(zero_copy_only=False)] = \
        registers.column("n").to_numpy(zero_copy_only=False)
    shift = np.uint64(64 - log2w)
    est = np.full(len(token_hashes), np.iinfo(np.int64).max)
    for r in range(d):
        with np.errstate(over="ignore"):
            m = token_hashes * CMS_ROW_CONSTS[r]
        est = np.minimum(est, grid[r, (m >> shift).astype(np.int64)])
    return est


# ---------------------------------------------------------------------------
# Bloom filter (mergeable membership sketch)
# ---------------------------------------------------------------------------

def bloom_positions(values_hash: np.ndarray, mbits: int = 1024,
                    k: int = 4) -> np.ndarray:
    """Kirsch–Mitzenmacher double hashing: bit positions
    ``(h1 + i·h2) mod mbits`` for i < k, with h1 = top 32 bits and
    h2 = (low 32 bits | 1) of the φ-mixed 64-bit value hash — all
    integer-exact and HUGEINT-replayable in SQL."""
    with np.errstate(over="ignore"):
        mixed = values_hash.astype(np.uint64) * _PHI64
    h1 = (mixed >> np.uint64(32)).astype(np.int64)
    h2 = ((mixed & np.uint64(0xFFFFFFFF)) | np.uint64(1)).astype(np.int64)
    i = np.arange(k, dtype=np.int64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % mbits).ravel()


def bloom_bits(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """Build a Bloom filter over a string column as its SET-BIT table.

    Each batch collapses to ≤ mbits distinct ``pos`` rows (the batch's
    OR-mask), partials merge by distinct-union under any partitioning —
    the same mergeable-sketch shape as the HLL/CMS register gates; the
    final table IS the filter (assemble words driver-side if a packed
    bitmap is needed).  Probe via :func:`bloom_probe`."""
    from ray.data.aggregate import Count

    def partial(batch: pa.Table) -> pa.Table:
        c = batch.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        h = hash_string_array(c)
        pos = np.unique(bloom_positions(h, 1024, 4))
        return pa.table({"pos": pa.array(pos)})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("pos").aggregate(Count(alias_name="_n"))
            .select_columns(["pos"]))


def bloom_probe(bits: set[int], keys_hash: np.ndarray, mbits: int = 1024,
                k: int = 4) -> np.ndarray:
    """Membership test (driver-side, tiny filter): True ⇔ all k bit
    positions are set.  No false negatives by construction."""
    pos = bloom_positions(keys_hash, mbits, k).reshape(-1, k)
    isin = np.isin(pos, np.fromiter(bits, dtype=np.int64,
                                    count=len(bits)))
    return isin.all(axis=1)


# ---------------------------------------------------------------------------
# KMV / bottom-k hash sample (mergeable distinct-sample + cardinality)
# ---------------------------------------------------------------------------

def kmv_bottomk(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """Bottom-k distinct sample: the k smallest φ-mixed 64-bit hashes
    of a string column, with their values.

    The third mergeable sketch shape (after max-merge HLL and sum-merge
    CMS): min-merge.  Each batch collapses to its local bottom-k
    DISTINCT (hash, value) rows, partials union and re-truncate — the
    global result is order-independent because bottom-k of a union is
    bottom-k of partial bottom-ks.  The sample is simultaneously a
    uniform distinct-value sample AND a KMV cardinality estimator
    (``kmv_estimate``: (k−1)/max_normalized_hash).  Hashes are the
    HUGEINT-replayable corpus polynomial hash × φ, compared as
    UNSIGNED 64-bit (stored as int64 offset by −2^63 so SQL ORDER BY
    matches numpy uint64 order).
    """
    def partial(batch: pa.Table) -> pa.Table:
        c = batch.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        h = hash_string_array(c)
        with np.errstate(over="ignore"):
            mixed = h.astype(np.uint64) * _PHI64
        # signed-offset representation keeps unsigned order under int64
        signed = (mixed - np.uint64(1 << 63)).view(np.int64)
        vals = c.to_pandas().to_numpy()
        uniq, idx = np.unique(signed, return_index=True)
        take = min(64, len(uniq))
        return pa.table({"h": pa.array(uniq[:take]),
                         col: pa.array(vals[idx[:take]])})

    def merge(tbl: pa.Table) -> pa.Table:
        h = tbl.column("h").to_numpy(zero_copy_only=False)
        uniq, idx = np.unique(h, return_index=True)
        take = min(64, len(uniq))
        return pa.table({"h": pa.array(uniq[:take]),
                         col: tbl.column(col).take(pa.array(idx[:take]))})

    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.repartition(1).map_batches(merge, batch_format="pyarrow",
                                           batch_size=None)


def kmv_estimate(sample_h: np.ndarray, k: int = 64) -> float:
    """KMV distinct-count estimate from the bottom-k signed hashes:
    (k−1) / U(k) with U(k) = the k-th smallest hash mapped to (0,1]."""
    if len(sample_h) < k:
        return float(len(sample_h))      # saw everything
    u = (sample_h.astype(np.int64)[k - 1].astype(np.float64)
         + 2.0 ** 63) / 2.0 ** 64
    return (k - 1) / u
