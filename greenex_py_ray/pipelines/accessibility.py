"""Accessibility pillar pipelines (nearest greenspace).

Ray-Data-native reimplementation of
``GreenExp/accessibility.py::get_shortest_distance_greenspace``
(`:24-223`), euclidean/centroids branch; the network branch is added by
:func:`network_distance_stage`.
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data

from ..functions.joins import KernelStage, append_metrics, heavy_pool
from ..sources import documents as doc_src
from ..stages.access import NearestGreenspace


def nearest_greenspace_stage(centroids: "pa.Table", target_dist: float,
                             flag_name: str, key_col: str = "doc_id",
                             concurrency: int | None = None) -> KernelStage:
    """(key,x,y) + small centroid table (gs_id, cx, cy; broadcast via
    ray.put) → (key, distance_to_greenspace, ``flag_name``,
    nearest_gs_id)."""
    return KernelStage(
        NearestGreenspace,
        dict(centroids_ref=ray.put(centroids), target_dist=target_dist,
             key_col=key_col, flag_name=flag_name),
        dict(batch_size=8192, concurrency=concurrency, num_cpus=0.25))


def get_shortest_distance_greenspace_documents(
    documents_path: str,
    greenspace_path: str,
    target_dist: float = 300.0,
    concurrency: int | None = None,
) -> "ray.data.Dataset":
    """Spans documents + greenspace table → documents + distance/flag
    columns, spans untouched, one read and no exchange.  Greenspace
    centroids come from the side table's precomputed centroid columns
    (accessibility.py:134-135)."""
    import pyarrow.parquet as pq

    gs = pq.read_table(greenspace_path, columns=["gs_id", "centroid_x", "centroid_y"])
    centroids = pa.table(
        {"gs_id": gs.column("gs_id"), "cx": gs.column("centroid_x"),
         "cy": gs.column("centroid_y")}
    )
    return append_metrics(
        doc_src.read_documents(documents_path),
        nearest_greenspace_stage(centroids, target_dist,
                                 f"greenspace_within_{int(target_dist)}m",
                                 concurrency=concurrency))


def network_distance_stage(
    nodes: "pa.Table",
    edges: "pa.Table",
    greenspace: "pa.Table",
    target_dist: float = 300.0,
    destination: str = "centroids",
    distance_type: str = "network",
    key_col: str = "doc_id",
    concurrency: int | None = None,
    flag_name: str = "greenspace_within_target",
) -> KernelStage:
    """Network/entrance branches of get_shortest_distance_greenspace
    (accessibility.py:226-301): a kernel stage with broadcast graph +
    greenspace tables; ``distance_type='euclidean'`` +
    ``destination='entrance'`` gives the straight-line-to-entrance
    variant."""
    from ..stages.netaccess import NetworkDistance

    return KernelStage(
        NetworkDistance,
        dict(nodes_ref=ray.put(nodes), edges_ref=ray.put(edges),
             greenspace_ref=ray.put(greenspace), target_dist=target_dist,
             destination=destination, distance_type=distance_type,
             key_col=key_col, flag_name=flag_name),
        dict(batch_size=512, num_cpus=1, concurrency=concurrency))


def network_distance_greenspace(
    poi: "ray.data.Dataset",
    nodes: "pa.Table",
    edges: "pa.Table",
    greenspace: "pa.Table",
    target_dist: float = 300.0,
    destination: str = "centroids",
    distance_type: str = "network",
    key_col: str = "doc_id",
    concurrency: int | None = None,
) -> "ray.data.Dataset":
    """poi(key,x,y) → network/entrance distance rows; see
    :func:`network_distance_stage`."""
    return network_distance_stage(
        nodes, edges, greenspace, target_dist, destination, distance_type,
        key_col, concurrency).on(poi)


def od_cost_matrix(
    poi: "ray.data.Dataset",
    nodes: "pa.Table",
    edges: "pa.Table",
    cutoff: float = 500.0,
    dest_mod: int | None = 16,
    dest_ids=None,
    key_col: str = "doc_id",
    concurrency: int | None = None,
) -> "ray.data.Dataset":
    """Many-to-many origin→destination network cost matrix: one row per
    (PoI, destination node) pair within ``cutoff`` network metres, cost
    = snap penalty + shortest-path length (the reference's one-to-one
    shortest-distance semantics, applied as an OD matrix)."""
    import ray as _ray

    from ..stages.netaccess import ODMatrix

    return poi.map_batches(
        ODMatrix,
        fn_constructor_kwargs=dict(
            nodes_ref=_ray.put(nodes), edges_ref=_ray.put(edges),
            cutoff=cutoff, dest_mod=dest_mod, dest_ids=dest_ids,
            key_col=key_col,
        ),
        batch_format="pyarrow", batch_size=256,
        **heavy_pool(concurrency),
    )
