"""Availability pillar pipelines (mean NDVI, landcover percentages).

Ray-Data-native reimplementation of
``GreenExp/availability.py::get_mean_NDVI`` (`:41-342`) and
``::get_landcover_percentages`` (`:344-597`): euclidean-buffer, own-
polygon and isochrone AoIs, zonal statistics against a tiled raster
store.

Each function takes an already-decoded PoI dataset (columns ``key, x,
y`` or the ``ring_*`` polygon columns) and returns a metrics Dataset
keyed by ``key``, one row per PoI.  A ``*_stage`` function is the one
definition of its kernel's task stage, run by both the metric pipeline
(``KernelStage.on``) and the span-preserving append path
(``append_metrics``); each worker process keeps the kernel it built, so
repeated calls on the same tile store reuse its tiles and SAT tables.
No zonal statistic shuffles: every kernel reduces a row's whole AoI in
its own task.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ..functions.joins import KernelStage, append_metrics, drop_zero_count
from ..sidefiles import shipped
from ..sources import documents as doc_src
from ..stages import zonal

#: default classmap for the synthetic lulc band (ESA-WorldCover-style
#: values produced by sources/synth.field_lulc)
DEFAULT_CLASSMAP = {10: "pct_tree", 30: "pct_grass", 40: "pct_crop",
                    50: "pct_builtup", 60: "pct_bare", 80: "pct_water"}


def mean_ndvi_stage(tile_root: str, radius: float, key_col: str = "doc_id",
                    concurrency: int | None = None,
                    batch_size: int = 2048) -> KernelStage:
    """(key,x,y) → (key, mean_NDVI, std_NDVI); semantics of
    availability.py:289 (clamp ≥0, population std, round 3).  One task
    stage (``ZonalStatsLocal``), no shuffle: each disk's aggregation is
    local to the worker's cached kernel and its tile store."""
    return KernelStage(
        zonal.ZonalStatsLocal,
        dict(tile_root=tile_root, band="ndvi", radius=radius, key_col=key_col),
        dict(batch_size=batch_size, num_cpus=1, concurrency=concurrency))


def mean_ndvi(poi: "ray.data.Dataset", tile_root: str, radius: float,
              key_col: str = "doc_id", concurrency: int | None = None,
              batch_size: int = 2048) -> "ray.data.Dataset":
    """poi(key,x,y) → (key, mean_NDVI, std_NDVI); see
    :func:`mean_ndvi_stage`."""
    return mean_ndvi_stage(tile_root, radius, key_col, concurrency,
                           batch_size).on(poi)


def landcover_stage(tile_root: str, radius: float, key_col: str = "doc_id",
                    classmap: dict[int, str] | None = None,
                    concurrency: int | None = None, batch_size: int = 4096,
                    stringify: bool = False) -> KernelStage:
    """(key,x,y) → (key, pct_<class>...); availability.py:1068-1082
    semantics (count/total*100 round 3; ``stringify=True`` reproduces the
    reference's ``"12.345%"`` string columns)."""
    return KernelStage(
        zonal.LandcoverLocal,
        dict(tile_root=tile_root, radius=radius,
             classmap=classmap or DEFAULT_CLASSMAP, key_col=key_col,
             stringify=stringify),
        dict(batch_size=batch_size, num_cpus=1, concurrency=concurrency))


def landcover_percentages(
    poi: "ray.data.Dataset",
    tile_root: str,
    radius: float,
    key_col: str = "doc_id",
    classmap: dict[int, str] | None = None,
    concurrency: int | None = None,
    batch_size: int = 4096,
    stringify: bool = False,
) -> "ray.data.Dataset":
    """poi(key,x,y) → (key, pct_<class>...); see
    :func:`landcover_stage`."""
    return landcover_stage(tile_root, radius, key_col, classmap, concurrency,
                           batch_size, stringify).on(poi)


# ---------------------------------------------------------------------------
# Interleaved-document entry points (reference public-API parity)
# ---------------------------------------------------------------------------


def get_mean_ndvi_documents(
    documents_path: str, tile_root: str, buffer_dist: float = 300.0,
    concurrency: int | None = None, batch_size: int = 2048,
) -> "ray.data.Dataset":
    """Flagship pipeline: spans documents → one task stage that decodes
    each batch, runs the zonal NDVI kernel and appends mean/std to the
    untouched documents (span passthrough).  One read, no exchange.

    ``batch_size``: rows per kernel task.  The kernel's chord pass works
    through a batch a few hundred points at a time (``zonal.disk_sums``),
    so a larger batch saves little beyond per-task overhead; keep it
    small enough that the input splits into a task per CPU."""
    return append_metrics(
        doc_src.read_documents(documents_path),
        mean_ndvi_stage(tile_root, buffer_dist,
                        concurrency=concurrency, batch_size=batch_size))


def coverage_stage(
    polys,
    buffer_dist: float,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    stringify: bool = False,
    name: str = "canopy_cover",
    aoi_shape: str = "circle",
    dissolve: bool = True,
) -> KernelStage:
    """Percent of each PoI's AoI covered by the polygon table ``polys``
    (a table goes to the object store, an ``ObjectRef`` as given).
    ``aoi_shape="self"`` uses each row's own polygon (``ring_*``
    columns) dilated by ``buffer_dist`` as the AoI (see
    :class:`~greenex_py_ray.stages.coverage.PolygonCoverage`)."""
    from ..stages.coverage import PolygonCoverage

    if aoi_shape == "self":
        pool = dict(batch_size=256, concurrency=concurrency, num_cpus=0.5)
    else:
        pool = dict(concurrency=concurrency, num_cpus=0.25)
    return KernelStage(
        PolygonCoverage,
        dict(polys_ref=shipped(polys), buffer_dist=buffer_dist,
             key_col=key_col, name=name, stringify=stringify,
             aoi_shape=aoi_shape, dissolve=dissolve),
        pool)


def canopy_percentage(
    poi: "ray.data.Dataset",
    canopy: "pa.Table",
    buffer_dist: float = 250.0,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    stringify: bool = False,
    name: str = "canopy_cover",
    aoi_shape: str = "circle",
    dissolve: bool = True,
) -> "ray.data.Dataset":
    """get_canopy_percentage (availability.py:600-780): percent of the
    buffer AoI covered by canopy polygons (broadcast small side).
    ``aoi_shape="square"`` is the SQL-verifiable gate form (exact square
    AoI instead of the shapely 64-gon buffer); ``dissolve=False``
    reproduces the reference's raw ``clip().area.sum()`` (overlaps
    double-count, availability.py:764)."""
    return coverage_stage(canopy, buffer_dist, key_col, concurrency,
                          stringify, name, aoi_shape, dissolve).on(poi)


def greenspace_percentage(
    poi: "ray.data.Dataset",
    greenspace: "pa.Table",
    buffer_dist: float = 300.0,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    stringify: bool = False,
    aoi_shape: str = "circle",
) -> "ray.data.Dataset":
    """get_greenspace_percentage (availability.py:783-1010): same
    machinery with the dissolved greenspace table."""
    return canopy_percentage(
        poi, greenspace, buffer_dist, key_col, concurrency, stringify,
        name="greenspace_cover", aoi_shape=aoi_shape,
    )


def isochrone_stage(kernel_cls, nodes, edges,
                    concurrency: int | None = None,
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
        dict(batch_size=256, num_cpus=1, concurrency=concurrency))


def mean_ndvi_isochrone(
    poi: "ray.data.Dataset",
    nodes: "pa.Table",
    edges: "pa.Table",
    tile_root: str,
    buffer_dist: float = 500.0,
    key_col: str = "doc_id",
    concurrency: int | None = None,
) -> "ray.data.Dataset":
    """get_mean_NDVI with buffer_type='network' (availability.py:263-275):
    per-PoI isochrone AoI from the street graph, zonal stats in the
    isochrone kernel stage."""
    from ..stages.netaccess import IsochroneZonal

    return isochrone_stage(
        IsochroneZonal, nodes, edges, concurrency, tile_root=tile_root,
        buffer_dist=buffer_dist, key_col=key_col).on(poi)


def landcover_percentages_isochrone(
    poi: "ray.data.Dataset",
    nodes: "pa.Table",
    edges: "pa.Table",
    tile_root: str,
    buffer_dist: float = 500.0,
    classmap: dict[int, str] | None = None,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    stringify: bool = False,
) -> "ray.data.Dataset":
    """get_landcover_percentages with buffer_type='network'
    (availability.py:505-516): per-PoI isochrone AoI, per-class pixel
    percentages in the isochrone kernel stage."""
    from ..stages.netaccess import IsochroneLandcover

    return isochrone_stage(
        IsochroneLandcover, nodes, edges, concurrency, tile_root=tile_root,
        buffer_dist=buffer_dist, classmap=classmap or DEFAULT_CLASSMAP,
        key_col=key_col, stringify=stringify).on(poi)


def canopy_percentage_isochrone(
    poi: "ray.data.Dataset",
    nodes: "pa.Table",
    edges: "pa.Table",
    polys: "pa.Table",
    buffer_dist: float = 500.0,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    stringify: bool = False,
    name: str = "canopy_cover",
    dissolve: bool = True,
) -> "ray.data.Dataset":
    """get_canopy_percentage / get_greenspace_percentage with
    buffer_type='network' (availability.py:710-764 / 943-997): percent
    of the isochrone AoI covered by the vector layer (see the
    raster-analog deviation note on
    :class:`~greenex_py_ray.stages.netaccess.IsochroneCoverage`)."""
    from ..stages.netaccess import IsochroneCoverage

    return isochrone_stage(
        IsochroneCoverage, nodes, edges, concurrency,
        polys_ref=shipped(polys), buffer_dist=buffer_dist, key_col=key_col,
        name=name, stringify=stringify, dissolve=dissolve).on(poi)


def mean_ndvi_polygon_stage(tile_root: str, key_col: str = "doc_id",
                            concurrency: int | None = None,
                            dilate: float = 0.0) -> KernelStage:
    """(key, ring_x, ring_y[, ring_sizes]) → (key, mean_NDVI,
    std_NDVI) over each row's own polygon dilated by ``dilate``
    (``PolygonZonalLocal``)."""
    return KernelStage(
        zonal.PolygonZonalLocal,
        dict(tile_root=tile_root, band="ndvi", key_col=key_col,
             dilate=dilate),
        dict(batch_size=256, num_cpus=1, concurrency=concurrency))


def mean_ndvi_polygon_aoi(
    poi_polygons: "ray.data.Dataset",
    tile_root: str,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    dilate: float = 0.0,
) -> "ray.data.Dataset":
    """get_mean_NDVI with POLYGON PoIs — the AoI is each row's own
    polygon (``buffer_type=None``, availability.py:230-234), dilated by
    ``dilate`` for the buffered-polygon form (``buffer_type='euclidean'``
    on polygon PoIs, availability.py:235-237).  Input must carry
    ``ring_x``/``ring_y`` columns (DecodeGeom(parse_polygons=True)).
    One row per input row, in input order."""
    return mean_ndvi_polygon_stage(tile_root, key_col, concurrency,
                                   dilate).on(poi_polygons)


def landcover_polygon_stage(tile_root: str,
                            classmap: dict[int, str] | None = None,
                            key_col: str = "doc_id",
                            concurrency: int | None = None,
                            dilate: float = 0.0,
                            stringify: bool = False) -> KernelStage:
    """(key, ring_x, ring_y[, ring_sizes]) → (key, pct_<class>...)
    over each row's own polygon dilated by ``dilate``
    (``PolygonLandcoverLocal``)."""
    return KernelStage(
        zonal.PolygonLandcoverLocal,
        dict(tile_root=tile_root, classmap=classmap or DEFAULT_CLASSMAP,
             key_col=key_col, dilate=dilate, stringify=stringify),
        dict(batch_size=256, num_cpus=1, concurrency=concurrency))


def landcover_percentages_polygon_aoi(
    poi_polygons: "ray.data.Dataset",
    tile_root: str,
    classmap: dict[int, str] | None = None,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    dilate: float = 0.0,
    stringify: bool = False,
) -> "ray.data.Dataset":
    """get_landcover_percentages with POLYGON PoIs (availability.py:
    361-377): per-class pixel percentages of each row's own (optionally
    dilated) polygon AoI, one row per input row."""
    return landcover_polygon_stage(tile_root, classmap, key_col,
                                   concurrency, dilate,
                                   stringify).on(poi_polygons)


def coverage_percentage_polygon_aoi(
    poi_polygons: "ray.data.Dataset",
    polys: "pa.Table",
    key_col: str = "doc_id",
    concurrency: int | None = None,
    stringify: bool = False,
    name: str = "canopy_cover",
    dissolve: bool = False,
    dilate: float = 0.0,
) -> "ray.data.Dataset":
    """get_canopy_percentage / get_greenspace_percentage with POLYGON
    PoIs: percent of each row's own polygon AoI covered by the vector
    layer — exact scanline overlay at ``dilate=0``, pixel-center analog
    of the buffered-polygon AoI at ``dilate>0`` (see
    :class:`~greenex_py_ray.stages.coverage.PolygonCoverage`)."""
    ring_cols = [key_col, "ring_x", "ring_y"]
    if "ring_sizes" in poi_polygons.schema().names:
        ring_cols.append("ring_sizes")
    return coverage_stage(
        polys, dilate, key_col, concurrency, stringify, name,
        aoi_shape="self", dissolve=dissolve,
    ).on(poi_polygons.select_columns(ring_cols))


def mean_ndvi_line_aoi(
    edges: "ray.data.Dataset",
    tile_root: str,
    buffer_dist: float,
    key_col: str = "edge_id",
    concurrency: int | None = None,
    batch_size: int = 512,
) -> "ray.data.Dataset":
    """get_mean_NDVI over STREET EDGES as PoI rows — the reference's
    place-query flow (availability.py:52-61): each edge's AoI is its
    buffered polyline (``poi.geometry.buffer(buffer_dist)``, :134).

    ``edges`` needs (key_col, ax, ay, bx, by) and optionally
    ``geom_x``/``geom_y`` polyline columns.  An edge whose buffer
    covers no stored pixel gets no row, like a keyed rollup over its
    pixels."""
    stage = KernelStage(
        zonal.LineZonalLocal,
        dict(tile_root=tile_root, band="ndvi", buffer_dist=buffer_dist,
             key_col=key_col),
        dict(batch_size=batch_size, num_cpus=1, concurrency=concurrency))
    return drop_zero_count(stage.on(edges), "n_pixels").drop_columns(
        ["n_pixels"])


def landcover_majority_stage(tile_root: str, radius: float,
                             key_col: str = "doc_id",
                             classmap: dict[int, str] | None = None,
                             concurrency: int | None = None) -> KernelStage:
    """(key,x,y) → (key, majority_class, cnt_major, cnt_total) per disk
    (``LandcoverMajorityLocal``)."""
    return KernelStage(
        zonal.LandcoverMajorityLocal,
        dict(tile_root=tile_root, radius=radius,
             classmap=classmap or DEFAULT_CLASSMAP, key_col=key_col),
        dict(batch_size=4096, num_cpus=1, concurrency=concurrency))


def landcover_majority(
    poi: "ray.data.Dataset",
    tile_root: str,
    radius: float,
    key_col: str = "doc_id",
    classmap: dict[int, str] | None = None,
    concurrency: int | None = None,
) -> "ray.data.Dataset":
    """Zonal MAJORITY (dominant landcover class) per PoI buffer — the
    standard GIS zonal-statistics mode, from the same exact int64
    per-class pixel counts as :func:`landcover_percentages`, so the
    majority can't wobble across engines.  Ties break to the smallest
    class code.  A PoI whose disk holds no pixel (outside the tiled
    world) gets no row, like a keyed rollup over its pixels."""
    return drop_zero_count(
        landcover_majority_stage(tile_root, radius, key_col, classmap,
                                 concurrency).on(poi),
        "cnt_total")
