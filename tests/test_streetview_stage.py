"""Streetview GVI as one kernel stage: plan shape, the rollup against
its own per-point table, PoIs whose points have no image, and documents
that share a ``doc_id``."""

import numpy as np
import pyarrow.parquet as pq

import ray.data as rd
from ray.data import ActorPoolStrategy

import greenex_py_ray as gx
from greenex_py_ray.stages.visibility import (edge_coords_table,
                                              streetview_sample_batch)
from test_polygon_poi_visibility import _docs_table
from test_viewshed_stage import _compute_strategies
from test_zonal_pipeline import _operator_names, _table


def _streetview(world, poi, buffer_dist=100.0, features=None):
    return gx.get_streetview_GVI(
        poi, world["network_nodes"], world["network_edges"],
        features or world["image_features"], buffer_dist=buffer_dist)


def _network_points(world):
    """The network's 50 m sample points, deduplicated by value."""
    pts = streetview_sample_batch(
        edge_coords_table(world["network_nodes"], world["network_edges"]),
        50.0)
    return np.unique(np.column_stack([pts.column("sp_x").to_numpy(),
                                      pts.column("sp_y").to_numpy()]), axis=0)


def _points_docs(ids, xy):
    return rd.from_arrow(_docs_table(
        ids, [f"POINT({x!r} {y!r})" for x, y in xy]))


def _with_image(world, xy):
    """The first sample point of ``xy`` with an image within 100 m."""
    feats = pq.read_table(world["image_features"])
    fx, fy = feats.column("x").to_numpy(), feats.column("y").to_numpy()
    for x, y in xy:
        if (np.hypot(fx - x, fy - y) <= 100.0).any():
            return x, y
    raise AssertionError("no sample point has an image")


def test_streetview_plan_is_one_read_no_exchange(world):
    """get_streetview_GVI on a documents path: one ReadDocuments, kernel
    tasks only — no actor pool, no all-to-all, no union or join."""
    ds, _ = _streetview(world, world["documents"])
    assert not [c for c in _compute_strategies(ds)
                if isinstance(c, ActorPoolStrategy)]
    assert 0 < _table(ds).num_rows <= 300
    names = _operator_names(ds)
    assert sum("ReadDocuments" in n for n in names) == 1, names
    exchange = ("Sort", "Aggregate", "MapGroups", "Repartition", "Shuffle",
                "Union", "Join", "ActorPool")
    assert not [n for n in names if any(k in n for k in exchange)], names


def test_streetview_per_point_table_matches_the_rollup(world):
    """Each rollup row is the count and rounded mean of the non-null
    GVIs among that document's per-point rows; both tables hold the
    same documents."""
    rollup, per_point = _streetview(world, world["documents"])
    roll = _table(rollup).drop(["spans"]).to_pandas().set_index("doc_id")
    pts = _table(per_point).to_pandas()
    assert list(pts.columns) == ["sp_x", "sp_y", "image_id", "is_panoramic",
                                 "feature_distance", "GVI", "doc_id"]
    assert set(pts["doc_id"]) == set(roll.index)
    grouped = pts.groupby("doc_id")["GVI"]
    assert (grouped.count().loc[roll.index] == roll["nr_of_points"]).all()
    means = grouped.mean().round(3).loc[roll.index]
    assert means.equals(roll["GVI"]), (means, roll["GVI"])
    # the world has points without an image within 100 m, kept as NaN
    assert pts["GVI"].isna().any() and (pts["image_id"] == "").any()


def test_streetview_poi_without_image_keeps_a_null_row(world, tmp_path):
    """A PoI whose sample points have no image within 100 m keeps its
    row with a null GVI and 0 points (the oracle's LEFT JOIN); a PoI
    with no road within reach gets no row."""
    d = 100.0
    xy = _network_points(world)
    a = xy[np.argmin(np.hypot(xy[:, 0] - 5000.0, xy[:, 1] - 5000.0))]
    far = xy[np.hypot(xy[:, 0] - a[0], xy[:, 1] - a[1]) > 5000.0]
    b = _with_image(world, far)
    near_a = xy[np.hypot(xy[:, 0] - a[0], xy[:, 1] - a[1]) <= d]
    feats = pq.read_table(world["image_features"])
    fx, fy = feats.column("x").to_numpy(), feats.column("y").to_numpy()
    dist = np.hypot(fx[:, None] - near_a[:, 0], fy[:, None] - near_a[:, 1])
    path = str(tmp_path / "features.parquet")
    pq.write_table(feats.filter(dist.min(axis=1) > 100.0), path)

    docs = _points_docs(["a", "b", "c"], [a, b, (-5000.0, -5000.0)])
    rollup, _ = _streetview(world, docs, d, features=path)
    df = _table(rollup).drop(["spans"]).to_pandas().set_index("doc_id")
    assert sorted(df.index) == ["a", "b"]
    assert np.isnan(df.loc["a", "GVI"]) and df.loc["a", "nr_of_points"] == 0
    assert df.loc["b", "nr_of_points"] > 0
    assert 0 <= df.loc["b", "GVI"] <= 1


def test_streetview_documents_sharing_a_doc_id_keep_their_own_values(world):
    """Two documents with the same doc_id at different places each get
    the value they get alone."""
    xy = _network_points(world)
    a = _with_image(world, xy[np.argsort(np.hypot(xy[:, 0] - 4000.0,
                                                  xy[:, 1] - 6000.0))])
    b = _with_image(world, xy[np.argsort(np.hypot(xy[:, 0] - 15000.0,
                                                  xy[:, 1] - 12000.0))])
    cols = ["GVI", "nr_of_points"]
    alone, _ = _streetview(world, _points_docs(["a", "b"], [a, b]))
    exp = _table(alone).to_pandas().set_index("doc_id")[cols]
    assert not exp.loc["a"].equals(exp.loc["b"])
    dup, _ = _streetview(world, _points_docs(["p", "p"], [a, b]))
    got = _table(dup).to_pandas()[cols]
    assert sorted(map(tuple, got.to_numpy())) == sorted(
        map(tuple, exp.to_numpy()))


def test_streetview_kernel_scores_each_image_once(world):
    """Over several batches, one kernel scores each distinct image once,
    however many batches see it, and its per-point output is the same
    as a fresh kernel's per batch."""
    from collections import Counter

    from greenex_py_ray.sources.documents import DecodeGeom
    from greenex_py_ray.stages.visibility import StreetviewPoI

    def kernel():
        return StreetviewPoI(world["network_nodes"], world["network_edges"],
                             world["image_features"], buffer_dist=100.0,
                             per_point=True)

    memo = kernel()
    scored = Counter()
    score = memo.score

    def counting(images):
        scored.update(images.column("image_id").to_pylist())
        return score(images)

    memo.score = counting
    pts = DecodeGeom()(pq.read_table(world["documents"])).select(
        ["doc_id", "x", "y"])
    batches = [pts.slice(s, 40) for s in range(0, pts.num_rows, 40)]
    per_batch = [set(memo(b).column("image_id").to_pylist()) for b in batches]
    assert sum(map(len, per_batch)) > len(set().union(*per_batch))
    assert set(scored) == set().union(*per_batch)
    assert set(scored.values()) == {1}
    for b in batches[-2:]:
        assert memo(b).to_pandas().equals(kernel()(b).to_pandas())
