"""Visibility pillar pipelines: viewshed GVI + streetview GVI.

Ray-Data-native reimplementation of
``GreenExp/visibility.py::get_viewshed_GVI`` (`:50-293`) and
``::get_streetview_GVI`` (`:296-437`).  Both return the reference's two
tables: per-PoI rollup (``GVI`` mean rounded 3 + ``nr_of_points``) and
the per-sample-point table.  The viewshed is one one-row-per-PoI
``KernelStage`` (sample, score, roll up in one task); streetview samples
the whole network once and rolls up over keyed exchanges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Sum

from ..functions.joins import KernelStage, as_pool, drop_zero_count, heavy_pool
from ..sources import documents as doc_src
from ..stages import visibility as vis
from ..stages.visibility import edge_coords_table


def viewshed_stage(
    nodes_path: str,
    edges_path: str,
    tile_root: str,
    buffer_dist: float | None = 100.0,
    viewing_dist: float = 250.0,
    sample_dist: float = 50.0,
    observer_height: float = 1.7,
    key_col: str = "doc_id",
    concurrency: int | None = None,
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
        dict(batch_size=32, **heavy_pool(concurrency)))


def viewshed_gvi(poi: "ray.data.Dataset", nodes_path: str, edges_path: str,
                 tile_root: str, **kw
                 ) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """poi → (per-PoI rollup, per-sample-point GVI rows), both lazy
    :func:`viewshed_stage` runs over ``poi``; ``kw`` go to
    :func:`viewshed_stage`.  A PoI without sample points has no row in
    either table, as in the gates' oracle, which joins sample points to
    PoIs."""
    return (drop_zero_count(viewshed_stage(nodes_path, edges_path, tile_root,
                                           **kw).on(poi), "nr_of_points"),
            viewshed_stage(nodes_path, edges_path, tile_root, per_point=True,
                           **kw).on(poi))


def streetview_gvi(
    poi_table: "pa.Table | ray.data.Dataset",
    edges_coords: pa.Table,
    features: pa.Table,
    buffer_dist: float = 100.0,
    interval: float = 50.0,
    key_col: str = "doc_id",
    concurrency: int | None = None,
    broadcast_threshold: int = 100_000,
    poi_kind: str = "point",
    crop_by_road_centres: bool = True,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """Streetview GVI with the stubbed segmentation scorer.

    edges → points every ``interval`` m → exact dedup (groupby point key)
    → semi-join vs PoI buffers → nearest image feature ≤100 m →
    SegmentationGVI actor → explode to PoIs → null-skipping Mean +
    non-null Count (pandas ``mean``/``count`` semantics,
    visibility.py:1048-1049).

    The PoI side may be a pyarrow Table (broadcast into the join actors)
    or a Dataset: Datasets over ``broadcast_threshold`` rows take the
    cell-bucketed shuffle join
    (:func:`~greenex_py_ray.stages.spatial_join.cell_buffer_join`) —
    the 10^12-doc path where the PoI table fits no single machine.
    """
    edges_ds = ray.data.from_arrow(edges_coords)
    pts = edges_ds.map_batches(
        lambda b: vis.streetview_sample_batch(b, interval), batch_format="pyarrow"
    )

    from ..stages.dedup import bucket_dedup
    from ..stages.spatial_join import cell_buffer_join

    pts = bucket_dedup(pts, subset=["sp_x", "sp_y"])  # D2: exact geometry dedup

    # the semi filter (before the feature/scoring stages) and the
    # rollup explode (after) are the SAME join with semi toggled; pick
    # its implementation once per PoI side so the shared middle
    # pipeline exists exactly once
    if poi_kind == "polygon":
        # polygon PoIs (polygon_type='neighbourhood') are a SIDE table
        # like greenspace/canopy — neighbourhood sets are orders of
        # magnitude smaller than the network/point sides, so the
        # broadcast membership join is the scale path here
        poly_cols = [key_col, "ring_x", "ring_y", "ring_sizes"]
        if isinstance(poi_table, ray.data.Dataset):
            poi_table = pa.concat_tables(
                t.select(poly_cols) for t in ray.get(
                    poi_table.select_columns(poly_cols).to_arrow_refs()))
        pref = ray.put(poi_table)

        def join_stage(ds, semi: bool):
            return ds.map_batches(
                vis.PointsToPolygonPoi,
                fn_constructor_kwargs=dict(
                    poly_ref=pref, buffer_dist=buffer_dist,
                    key_col=key_col, semi=semi),
                batch_format="pyarrow", concurrency=as_pool(concurrency),
                num_cpus=0.25,
            )
    else:
        poi_is_ds = isinstance(poi_table, ray.data.Dataset)
        if poi_is_ds:
            # materialize the 3-column projection ONCE: it feeds count()
            # and both join stages (fanning out an unmaterialized shared
            # lineage — especially one containing a limit() — re-executes
            # the decode per consumer and can stall the streaming
            # executor); 3 columns spill fine at scale
            poi_ds = poi_table.select_columns([key_col, "x", "y"]).materialize()
            use_shuffle = poi_ds.count() > broadcast_threshold
        else:
            poi_ds = None
            use_shuffle = False
        if use_shuffle:
            def join_stage(ds, semi: bool):
                return cell_buffer_join(ds, poi_ds, buffer_dist,
                                        key_col=key_col, semi=semi)
        else:
            if poi_is_ds:
                poi_table = pa.concat_tables(
                    t.select([key_col, "x", "y"])
                    for t in ray.get(poi_ds.to_arrow_refs())
                )
            pref = ray.put(poi_table)

            def join_stage(ds, semi: bool):
                return ds.map_batches(
                    vis.PointsToPoi,
                    fn_constructor_kwargs=dict(
                        poi_ref=pref, buffer_dist=buffer_dist,
                        key_col=key_col, semi=semi),
                    batch_format="pyarrow", concurrency=as_pool(concurrency),
                    num_cpus=0.25,
                )

    pts = join_stage(pts, True)
    fref = ray.put(features)
    pts = pts.map_batches(
        vis.NearestImageFeature,
        fn_constructor_kwargs=dict(features_ref=fref),
        batch_format="pyarrow", batch_size=256,
        concurrency=as_pool(concurrency), num_cpus=0.25,
    )
    scored = pts.map_batches(
        vis.SegmentationGVI,
        fn_constructor_kwargs=dict(crop_by_road_centres=crop_by_road_centres),
        batch_format="pyarrow",
        **heavy_pool(concurrency),
    )
    exploded = join_stage(scored, False)
    return _streetview_rollup(exploded, key_col)


def _streetview_rollup(exploded, key_col):
    """Shared per-PoI null-skipping Mean + non-null Count tail
    (visibility.py:1048-1049 pandas mean/count semantics)."""

    def pre_rollup(batch: pa.Table) -> pa.Table:
        g = batch.column("GVI").to_numpy(zero_copy_only=False)
        ok = np.isfinite(g)
        return pa.table(
            {
                key_col: batch.column(key_col),
                "gvi_sum": pa.array(np.where(ok, g, 0.0)),
                "gvi_n": pa.array(ok.astype(np.int64)),
            }
        )

    agg = exploded.map_batches(pre_rollup, batch_format="pyarrow") \
        .groupby(key_col).aggregate(Sum("gvi_sum"), Sum("gvi_n"))

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("sum(gvi_sum)").to_numpy(zero_copy_only=False)
        n = batch.column("sum(gvi_n)").to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(n > 0, s / np.maximum(n, 1), np.nan)
        # a PoI whose every sample point lacks an image gets a NULL GVI
        # (pandas mean-of-empty semantics AND what SQL avg() yields —
        # a NaN here would hash-mismatch the oracle's NULL)
        gvi = pa.array(np.round(mean, 3), pa.float64(), mask=(n == 0))
        return pa.table(
            {
                key_col: batch.column(key_col),
                "GVI": gvi,
                "nr_of_points": pa.array(n),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow"), exploded


# ---------------------------------------------------------------------------
# Interleaved-document entry points
# ---------------------------------------------------------------------------


def get_viewshed_gvi_documents(
    documents_path: str, world_paths: dict, buffer_dist: float = 100.0,
    viewing_dist: float = 250.0, sample_dist: float = 50.0,
    concurrency: int | None = None,
):
    docs = doc_src.read_documents(documents_path)
    poi = doc_src.decode_geom(docs).select_columns(["doc_id", "x", "y"])
    return viewshed_gvi(
        poi, world_paths["network_nodes"], world_paths["network_edges"],
        world_paths["tiles"], buffer_dist=buffer_dist,
        viewing_dist=viewing_dist, sample_dist=sample_dist,
        concurrency=concurrency,
    )


def get_streetview_gvi_documents(
    documents_path: str, world_paths: dict, buffer_dist: float = 100.0,
    concurrency: int | None = None,
):
    docs = doc_src.read_documents(documents_path)
    # Dataset PoI side: streetview_gvi broadcasts below its size
    # threshold and switches to the cell-bucketed shuffle join above it
    poi = doc_src.decode_geom(docs).select_columns(["doc_id", "x", "y"])
    edges = edge_coords_table(world_paths["network_nodes"], world_paths["network_edges"])
    features = pq.read_table(world_paths["image_features"])
    return streetview_gvi(poi, edges, features, buffer_dist=buffer_dist,
                          concurrency=as_pool(concurrency))
