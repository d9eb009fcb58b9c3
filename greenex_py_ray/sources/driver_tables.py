"""Driver-testdata adapters: TPC-H-ish parquet tables → spatial inputs.

The correctness gate (``__ray_entry__.queries`` vs ``oracle_sql`` in
DuckDB) runs over ``/root/testdata/sf*/``.  Those tables carry no
geometry, so spatial queries derive coordinates *arithmetically* from
integer keys with expressions that numpy and ANSI SQL evaluate to
bit-identical float64 — the DuckDB oracle recomputes the exact same
points, cells and distances.

The shared derivation (keep in sync with :data:`SQL_X` / :data:`SQL_Y`):

    x(k) = ((k * 2654435761) % 1000003) / 1000003.0 * 20000.0
    y(k) = ((k * 40503 + 12345) % 1000003) / 1000003.0 * 20000.0

Multiplications stay far below 2**63 for all test key ranges, and both
engines perform the same IEEE-754 double ops in the same order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .. import cells

MOD = 1_000_003
WORLD = 20_000.0

#: SQL templates — {k} is the integer key column expression.
SQL_X = f"((({{k}} * 2654435761) % {MOD}) / {MOD}.0 * {WORLD})"
SQL_Y = f"((({{k}} * 40503 + 12345) % {MOD}) / {MOD}.0 * {WORLD})"
#: SQL for the linear cell id at cell size {cs} (matches cells.cell_id).
SQL_CELL = (
    f"(CAST(floor({SQL_X} / {{cs}}) AS BIGINT) * {cells.CELL_STRIDE} "
    f"+ CAST(floor({SQL_Y} / {{cs}}) AS BIGINT))"
)


def derive_xy(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = np.asarray(key, dtype=np.int64)
    x = ((k * 2654435761) % MOD) / float(MOD) * WORLD
    y = ((k * 40503 + 12345) % MOD) / float(MOD) * WORLD
    return x, y


class DeriveXY:
    """map_batches stage: append x, y, cell derived from an int key column.

    The output carries no schema metadata: the testdata files' pandas
    metadata is a dict, which makes pyarrow's ``Schema.__hash__`` fail
    when Ray unifies the schemas of batched blocks (it logs "Failed to
    hash the schemas")."""

    def __init__(self, key_col: str, cell_size: float = cells.DEFAULT_CELL_SIZE):
        self.key_col = key_col
        self.cell_size = cell_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        k = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        x, y = derive_xy(k)
        cell = cells.cell_of(x, y, self.cell_size)
        return (
            batch.replace_schema_metadata()
            .append_column("x", pa.array(x, pa.float64()))
            .append_column("y", pa.array(y, pa.float64()))
            .append_column("cell", pa.array(cell, pa.int64()))
        )


def _small_table_blocks(path: str) -> int | None:
    """Block-count override for SMALL single-file tables.  Ray's default
    read splitting targets ~2×CPUs blocks regardless of input size,
    which turns a 5k-row gate table into 64 ~80-row blocks — per-task
    scheduling then dominates every downstream stage and the shuffles
    fan out 64×64 tiny pieces (measured: minhash_lsh over sf0.1
    5.8 → 3.4 s with 16 blocks).  Target ≥~300 rows per block, capped
    at 2×CPUs; ``None`` (Ray's default) for big tables so the
    scale-path streaming splits are untouched."""
    try:
        import pyarrow.parquet as _pq

        md = _pq.ParquetFile(path).metadata
        rows = md.num_rows
        nbytes = sum(md.row_group(i).total_byte_size
                     for i in range(md.num_row_groups))
    except Exception:
        return None
    # wide-row tables (few rows, big payloads) must keep Ray's
    # byte-based splitting: a row-count cap alone would force e.g.
    # 900k multi-KB docs into 2×CPUs oversized blocks
    if rows >= 1_000_000 or nbytes >= 256 * 1024 * 1024:
        return None
    cpus = 8
    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 8) or 8)
    nb = max(1, min(rows // 300 + 1, 2 * cpus))
    # keep blocks under ~64 MB (uncompressed) even when the row count
    # alone would allow fewer
    return max(nb, nbytes // (64 * 1024 * 1024) + 1)


def read_table(sf_dir: str, name: str, columns=None) -> "ray.data.Dataset":
    path = f"{sf_dir}/{name}.parquet"
    kwargs = {"columns": columns}
    nb = _small_table_blocks(path)
    if nb is not None:
        kwargs["override_num_blocks"] = nb
    return ray.data.read_parquet(path, **kwargs)


def read_docs_with_xy(sf_dir: str, cell_size: float = cells.DEFAULT_CELL_SIZE,
                      columns=("doc_id",)) -> "ray.data.Dataset":
    """documents table + derived (x, y, cell) — the PoI side of every
    driver-table spatial query."""
    ds = read_table(sf_dir, "documents", columns=list(columns))
    return ds.map_batches(DeriveXY("doc_id", cell_size), batch_format="pyarrow",
                          zero_copy_batch=True)


def greenspace_centroids_from_part(sf_dir: str) -> "pa.Table":
    """Greenspace centroid side table derived from ``part`` (small side —
    broadcast, never shuffled).  gx/gy use p_partkey with the same
    arithmetic scheme."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    k = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    x, y = derive_xy(k)
    return pa.table({"gs_id": pa.array(k), "cx": pa.array(x), "cy": pa.array(y)})
