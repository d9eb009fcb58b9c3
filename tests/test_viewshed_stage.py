"""Viewshed GVI as one kernel stage: plan shape, log hygiene, the
rollup against its own per-point table, and the kernel cache key."""

import logging
import shutil

import pyarrow.parquet as pq

from ray.data import ActorPoolStrategy

import greenex_py_ray as gx
from greenex_py_ray.functions.joins import _freeze
from greenex_py_ray.pipelines import visibility as vpipe
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.stages.visibility import (SamplePointsViewshed,
                                              edge_coords_table)
from test_zonal_pipeline import _operator_names, _table


def _viewshed(world, buffer_dist):
    return gx.get_viewshed_GVI(world["documents"], world["tiles"],
                               world["network_nodes"], world["network_edges"],
                               buffer_dist=buffer_dist)


def _compute_strategies(ds) -> list:
    out, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        out.append(getattr(op, "_compute", None))
        todo += op.input_dependencies
    return out


def test_viewshed_plan_is_one_read_no_exchange(world):
    """get_viewshed_GVI on a documents path: one ReadDocuments, kernel
    tasks only — no actor pool, no all-to-all, no union or sort."""
    ds, _ = _viewshed(world, 100.0)
    assert not [c for c in _compute_strategies(ds)
                if isinstance(c, ActorPoolStrategy)]
    assert _table(ds).num_rows == 300
    names = _operator_names(ds)
    assert sum("ReadDocuments" in n for n in names) == 1, names
    exchange = ("Sort", "Aggregate", "MapGroups", "Repartition", "Shuffle",
                "Union", "Join", "ActorPool")
    assert not [n for n in names if any(k in n for k in exchange)], names


def test_viewshed_logs_no_schema_warning(world):
    """At 30 m many documents have no sample point; neither table logs
    Ray's schema-mismatch warning."""
    warnings = []

    class Collect(logging.Handler):
        def emit(self, record):
            warnings.append(record.getMessage())

    handler = Collect(level=logging.WARNING)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        rollup, per_point = _viewshed(world, 30.0)
        assert 0 < _table(rollup).num_rows < 300
        assert _table(per_point).num_rows > 0
    finally:
        logger.removeHandler(handler)
    assert not [m for m in warnings if "different schema" in m]


def test_viewshed_rollup_matches_its_per_point_table(world):
    """Each rollup row is the count and rounded mean of that document's
    per-point rows; documents without a sample point are in neither
    table."""
    rollup, per_point = _viewshed(world, 30.0)
    roll = _table(rollup).drop(["spans"]).to_pandas().set_index("doc_id")
    pts = _table(per_point).to_pandas()
    grouped = pts.groupby("doc_id")["GVI"]
    assert set(pts["doc_id"]) == set(roll.index)
    counts = grouped.size()
    assert (counts.loc[roll.index] == roll["nr_of_points"]).all()
    means = grouped.mean().round(3)
    assert (means.loc[roll.index] == roll["GVI"]).all()

    # the documents left out are exactly those the sampler gives no point
    docs = doc_src.decode_geom(doc_src.read_documents(world["documents"]))
    poi = _table(docs.select_columns(["doc_id", "x", "y"]))
    sampler = SamplePointsViewshed(
        edge_coords_table(world["network_nodes"], world["network_edges"]),
        buffer_dist=30.0, sample_dist=50.0)
    with_points = set(sampler(poi).column("doc_id").to_pylist())
    assert with_points == set(roll.index)
    assert len(with_points) < poi.num_rows


def test_viewshed_stage_cache_key_follows_the_files(world, tmp_path):
    """Two builds on the same files share one kernel cache key; an edges
    file rewritten in place gets a new one."""
    edges = str(tmp_path / "edges.parquet")
    shutil.copyfile(world["network_edges"], edges)

    def key():
        stage = vpipe.viewshed_stage(world["network_nodes"], edges,
                                     world["tiles"])
        return (stage.cls, _freeze(stage.kwargs))

    first = key()
    assert key() == first
    t = pq.read_table(edges)
    pq.write_table(t.slice(0, t.num_rows // 2), edges)
    assert key() != first
