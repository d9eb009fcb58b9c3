"""Visibility pillar stage definitions: viewshed GVI + streetview GVI.

Ray-Data-native reimplementation of
``GreenExp/visibility.py::get_viewshed_GVI`` (`:50-293`) and
``::get_streetview_GVI`` (`:296-437`).  Each is one one-row-per-PoI
``KernelStage`` (sample, score, roll up in one task, no exchange) that
gives the reference's per-PoI rollup (``GVI`` mean rounded 3 +
``nr_of_points``); the per-sample-point table is a second run of the
same stage in per-point mode.  A PoI without sample points has no
rollup row: callers filter the viewshed rollup with
``drop_zero_count(..., "nr_of_points")`` and the streetview rollup with
:func:`keep_sampled`.
"""

from __future__ import annotations

import ray.data

from ..functions.joins import KernelStage, drop_zero_count
from ..stages import visibility as vis
from ..stages.visibility import edge_coords_table  # noqa: F401  (re-export)


def viewshed_stage(
    nodes_path: str,
    edges_path: str,
    tile_root: str,
    buffer_dist: float | None = 100.0,
    viewing_dist: float = 250.0,
    sample_dist: float = 50.0,
    observer_height: float = 1.7,
    key_col: str = "doc_id",
    poi_kind: str = "point",
    per_point: bool = False,
) -> KernelStage:
    """poi(key,x,y) → (key, GVI, nr_of_points), one row per PoI row
    (``per_point=True``: the scored sample points (key, sp_x, sp_y,
    GVI)); see :class:`~greenex_py_ray.stages.visibility.ViewshedPoI`.
    One task stage, no shuffle: sampling, scoring and the rollup run in
    the worker's cached kernel, whose edge index and tile store outlive
    the call (the kwargs are paths, so the cache key repeats).

    ``poi_kind='polygon'`` expects ``key, ring_x, ring_y, ring_sizes``
    rows instead (``polygon_type='neighbourhood'``): edges intersecting
    each PoI's own polygon (dilated by ``buffer_dist`` when set) are
    sampled (visibility.py:568-572); ``buffer_dist`` may be ``None``."""
    return KernelStage(
        vis.ViewshedPoI,
        dict(nodes_path=nodes_path, edges_path=edges_path,
             tile_root=tile_root, buffer_dist=buffer_dist,
             viewing_dist=viewing_dist, sample_dist=sample_dist,
             observer_height=observer_height, key_col=key_col,
             poi_kind=poi_kind, per_point=per_point),
        # PoIs per task: each costs tens of sample-point kernel calls, so
        # small batches still amortize a task and spread a few hundred
        # PoIs over the whole pool
        dict(batch_size=32, num_cpus=1))


def streetview_stage(
    nodes_path: str,
    edges_path: str,
    features_path: str,
    buffer_dist: float | None = 100.0,
    key_col: str = "doc_id",
    poi_kind: str = "point",
    crop_by_road_centres: bool = True,
    per_point: bool = False,
) -> KernelStage:
    """poi(key,x,y) → (key, GVI, nr_of_points, sample_points), one row
    per PoI row (``per_point=True``: one row per (PoI, sample point),
    see :class:`~greenex_py_ray.stages.visibility.StreetviewPoI`).  One
    task stage, no shuffle: the worker's cached kernel holds the sampled
    network, its index and the image features across calls (the kwargs
    are paths, so the cache key repeats).

    ``poi_kind='polygon'`` expects ``key, ring_x, ring_y, ring_sizes``
    rows instead (``polygon_type='neighbourhood'``): the sample points
    inside each PoI's own polygon (dilated by ``buffer_dist`` when set)
    roll up; ``buffer_dist`` may be ``None``.  ``crop_by_road_centres``
    goes to the panorama scorer (visibility.py:944-949)."""
    return KernelStage(
        vis.StreetviewPoI,
        dict(nodes_path=nodes_path, edges_path=edges_path,
             features_path=features_path, buffer_dist=buffer_dist,
             key_col=key_col, poi_kind=poi_kind,
             crop_by_road_centres=crop_by_road_centres,
             per_point=per_point),
        # PoIs per task: a few hundred, so each task's index queries and
        # its worker's image memo amortize over many PoIs
        dict(batch_size=256, num_cpus=1))


def keep_sampled(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """The rows of a streetview rollup whose PoI holds a sample point,
    without the ``sample_points`` column: a PoI with points but no image
    keeps its null-``GVI`` row (the oracle's ``LEFT JOIN``), a PoI
    without points has none."""
    return drop_zero_count(ds, "sample_points").drop_columns(
        ["sample_points"])
