"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (spans documents → decode →
zonal mean-NDVI appended to each document batch) on a deterministic synthetic
interleaved-document world plus the sf0.001 driver tables smoke path.
``queries()``/``oracle_sql()`` expose every implemented operator from
SURVEY.md §2 over ``sf_dir`` with DuckDB oracles where SQL-expressible.

Ray is initialised by the driver BEFORE this module is imported — no
``ray.init``/``ray.shutdown`` here or in the library.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline; driver checks rows >= 0 and a stable schema."""
    import os

    from greenex_py_ray.pipelines import availability
    from greenex_py_ray.sources import synth

    root = "/tmp/greenex_entry_world"
    paths = synth.ensure_world(root, n_docs=500, seed=42)
    out = availability.get_mean_ndvi_documents(
        paths["documents"], paths["tiles"], buffer_dist=300.0, concurrency=2
    )
    return out


def queries() -> dict[str, Callable[[str], Any]]:
    from greenex_py_ray.pipelines.driver_queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from greenex_py_ray.pipelines.driver_queries import (
        ORACLE_SQL,
        world_oracle_sql,
    )

    out = dict(ORACLE_SQL)
    # world-docs oracles read the same /tmp world parquet the Ray side
    # uses (materialized here if absent — pure pyarrow, no Ray needed)
    out.update(world_oracle_sql())
    return out
