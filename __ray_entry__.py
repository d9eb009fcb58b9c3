"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline, the public ``get_mean_NDVI``
(spans documents → decode → zonal mean-NDVI appended to each document
batch), on a deterministic synthetic interleaved-document world.
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
    import greenex_py_ray as gx
    from greenex_py_ray.sources import synth

    paths = synth.ensure_world("/tmp/greenex_entry_world", n_docs=500, seed=42)
    return gx.get_mean_NDVI(paths["documents"], paths["tiles"],
                            buffer_dist=300.0)


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
