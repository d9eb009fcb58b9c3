"""Availability pillar stage definitions (mean NDVI, landcover, coverage).

Ray-Data-native reimplementation of
``GreenExp/availability.py::get_mean_NDVI`` (`:41-342`),
``::get_landcover_percentages`` (`:344-597`) and the canopy /
greenspace percentages (`:600-1010`): euclidean-buffer, own-polygon and
isochrone AoIs against a tiled raster store or a polygon side table.

Each ``*_stage`` function is the one definition of its kernel's task
stage: the public API appends it to the documents
(``append_metrics``), the gates run it over decoded PoI rows
(``KernelStage.on``: columns ``key, x, y`` or the ``ring_*`` polygon
columns, one metric row per PoI).  Each worker process keeps the
kernel it built, so repeated calls on the same tile store reuse its
tiles and SAT tables.  No zonal statistic shuffles: every kernel
reduces a row's whole AoI in its own task.  The two functions that
return a dataset (:func:`mean_ndvi_line_aoi`,
:func:`landcover_majority`) also drop the rows whose AoI holds no pixel.
"""

from __future__ import annotations

import ray.data

from ..functions.joins import KernelStage, drop_zero_count
from ..sidefiles import shipped
from ..stages import zonal

#: default classmap for the synthetic lulc band (ESA-WorldCover-style
#: values produced by sources/synth.field_lulc)
DEFAULT_CLASSMAP = {10: "pct_tree", 30: "pct_grass", 40: "pct_crop",
                    50: "pct_builtup", 60: "pct_bare", 80: "pct_water"}


def mean_ndvi_stage(tile_root: str, radius: float,
                    batch_size: int = 2048) -> KernelStage:
    """(key,x,y) → (key, mean_NDVI, std_NDVI); semantics of
    availability.py:289 (clamp ≥0, population std, round 3).  One task
    stage (``ZonalStatsLocal``), no shuffle: each disk's aggregation is
    local to the worker's cached kernel and its tile store.  The kernel
    is cheap per row, so ``append_metrics`` runs it inside the document
    read task (``fused``)."""
    return KernelStage(
        zonal.ZonalStatsLocal,
        dict(tile_root=tile_root, band="ndvi", radius=radius),
        dict(batch_size=batch_size, num_cpus=1),
        fused=True)


def landcover_stage(tile_root: str, radius: float,
                    classmap: dict[int, str] | None = None,
                    stringify: bool = False) -> KernelStage:
    """(key,x,y) → (key, pct_<class>...); availability.py:1068-1082
    semantics (count/total*100 round 3; ``stringify=True`` reproduces the
    reference's ``"12.345%"`` string columns)."""
    return KernelStage(
        zonal.LandcoverLocal,
        dict(tile_root=tile_root, radius=radius,
             classmap=classmap or DEFAULT_CLASSMAP, stringify=stringify),
        dict(batch_size=4096, num_cpus=1))


def coverage_stage(
    polys,
    buffer_dist: float,
    stringify: bool = False,
    name: str = "canopy_cover",
    aoi_shape: str = "circle",
    dissolve: bool = True,
) -> KernelStage:
    """get_canopy_percentage / get_greenspace_percentage
    (availability.py:600-1010): percent of each PoI's AoI covered by the
    polygon table ``polys`` (a table goes to the object store, an
    ``ObjectRef`` as given).  ``aoi_shape="self"`` uses each row's own
    polygon (``ring_*`` columns) dilated by ``buffer_dist`` as the AoI;
    ``"square"`` is the SQL-verifiable gate form (an exact square AoI
    instead of the 64-gon buffer); ``dissolve=False`` reproduces the
    reference's raw ``clip().area.sum()`` (overlaps double-count,
    availability.py:764).  See
    :class:`~greenex_py_ray.stages.coverage.PolygonCoverage`."""
    from ..stages.coverage import PolygonCoverage

    if aoi_shape == "self":
        pool = dict(batch_size=256, num_cpus=0.5)
    else:
        pool = dict(num_cpus=0.25)
    return KernelStage(
        PolygonCoverage,
        dict(polys_ref=shipped(polys), buffer_dist=buffer_dist,
             name=name, stringify=stringify,
             aoi_shape=aoi_shape, dissolve=dissolve),
        pool)


def isochrone_stage(kernel_cls, nodes, edges,
                    **kwargs) -> KernelStage:
    """An isochrone kernel stage (``IsochroneZonal``,
    ``IsochroneLandcover`` or ``IsochroneCoverage`` from
    :mod:`~greenex_py_ray.stages.netaccess`) over the street graph;
    ``kwargs`` go to its constructor.  Graph tables go to the object
    store, so each call builds the kernel afresh; the API passes the
    ``ObjectRef`` s that :func:`~greenex_py_ray.sidefiles.shared` keeps
    per network file version, so each worker builds it once per version."""
    return KernelStage(
        kernel_cls,
        dict(nodes_ref=shipped(nodes), edges_ref=shipped(edges), **kwargs),
        dict(batch_size=256, num_cpus=1))


def mean_ndvi_polygon_stage(tile_root: str,
                            dilate: float = 0.0) -> KernelStage:
    """(key, ring_x, ring_y[, ring_sizes]) → (key, mean_NDVI,
    std_NDVI) over each row's own polygon dilated by ``dilate``
    (``PolygonZonalLocal``)."""
    return KernelStage(
        zonal.PolygonZonalLocal,
        dict(tile_root=tile_root, band="ndvi", dilate=dilate),
        dict(batch_size=256, num_cpus=1))


def landcover_polygon_stage(tile_root: str,
                            classmap: dict[int, str] | None = None,
                            dilate: float = 0.0,
                            stringify: bool = False) -> KernelStage:
    """(key, ring_x, ring_y[, ring_sizes]) → (key, pct_<class>...)
    over each row's own polygon dilated by ``dilate``
    (``PolygonLandcoverLocal``)."""
    return KernelStage(
        zonal.PolygonLandcoverLocal,
        dict(tile_root=tile_root, classmap=classmap or DEFAULT_CLASSMAP,
             dilate=dilate, stringify=stringify),
        dict(batch_size=256, num_cpus=1))


def mean_ndvi_line_aoi(
    edges: "ray.data.Dataset",
    tile_root: str,
    buffer_dist: float,
) -> "ray.data.Dataset":
    """get_mean_NDVI over STREET EDGES as PoI rows — the reference's
    place-query flow (availability.py:52-61): each edge's AoI is its
    buffered polyline (``poi.geometry.buffer(buffer_dist)``, :134).

    ``edges`` needs (edge_id, ax, ay, bx, by) and optionally
    ``geom_x``/``geom_y`` polyline columns.  An edge whose buffer
    covers no stored pixel gets no row, like a keyed rollup over its
    pixels."""
    stage = KernelStage(
        zonal.LineZonalLocal,
        dict(tile_root=tile_root, band="ndvi", buffer_dist=buffer_dist),
        dict(batch_size=512, num_cpus=1))
    return drop_zero_count(stage.on(edges), "n_pixels").drop_columns(
        ["n_pixels"])


def landcover_majority_stage(
        tile_root: str, radius: float, key_col: str = "doc_id",
        classmap: dict[int, str] | None = None) -> KernelStage:
    """(key,x,y) → (key, majority_class, cnt_major, cnt_total) per disk
    (``LandcoverMajorityLocal``)."""
    return KernelStage(
        zonal.LandcoverMajorityLocal,
        dict(tile_root=tile_root, radius=radius,
             classmap=classmap or DEFAULT_CLASSMAP, key_col=key_col),
        dict(batch_size=4096, num_cpus=1))


def landcover_majority(
    poi: "ray.data.Dataset",
    tile_root: str,
    radius: float,
) -> "ray.data.Dataset":
    """Zonal MAJORITY (dominant landcover class) per PoI buffer — the
    standard GIS zonal-statistics mode, from the same exact int64
    per-class pixel counts as :func:`landcover_stage`, so the
    majority can't wobble across engines.  Ties break to the smallest
    class code.  A PoI whose disk holds no pixel (outside the tiled
    world) gets no row, like a keyed rollup over its pixels."""
    return drop_zero_count(
        landcover_majority_stage(tile_root, radius, "doc_id",
                                 None).on(poi),
        "cnt_total")
