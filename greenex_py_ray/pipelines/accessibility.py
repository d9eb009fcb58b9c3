"""Accessibility pillar stage definitions (nearest greenspace, network
distance, OD matrix).

Ray-Data-native reimplementation of
``GreenExp/accessibility.py::get_shortest_distance_greenspace``
(`:24-223`): :func:`nearest_greenspace_stage` is the
euclidean/centroids branch, :func:`network_distance_stage` the network
and entrance branches.  The public API appends them to the documents
(``append_metrics``); the gates run them over decoded PoI rows
(``KernelStage.on``).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ..functions.joins import KernelStage
from ..sidefiles import shipped
from ..stages.access import NearestGreenspace


def nearest_greenspace_stage(centroids, target_dist: float,
                             flag_name: str) -> KernelStage:
    """(key,x,y) + small centroid table (gs_id, cx, cy) → (key,
    distance_to_greenspace, ``flag_name``, nearest_gs_id).  A table
    goes to the object store; an ``ObjectRef`` (the API's, from
    :func:`~greenex_py_ray.sidefiles.shared`) is used as given, so calls
    on one greenspace file version share the kernel cache key.  The
    kernel is cheap per row, so ``append_metrics`` runs it inside the
    document read task (``fused``)."""
    return KernelStage(
        NearestGreenspace,
        dict(centroids_ref=shipped(centroids), target_dist=target_dist,
             flag_name=flag_name),
        dict(batch_size=8192, num_cpus=0.25),
        fused=True)


def network_distance_stage(
    nodes,
    edges,
    greenspace,
    target_dist: float = 300.0,
    destination: str = "centroids",
    distance_type: str = "network",
    key_col: str = "doc_id",
    flag_name: str = "greenspace_within_target",
) -> KernelStage:
    """Network/entrance branches of get_shortest_distance_greenspace
    (accessibility.py:226-301): a kernel stage over the graph and
    greenspace tables (tables go to the object store, ``ObjectRef`` s
    as given); ``distance_type='euclidean'`` +
    ``destination='entrance'`` gives the straight-line-to-entrance
    variant."""
    from ..stages.netaccess import NetworkDistance

    return KernelStage(
        NetworkDistance,
        dict(nodes_ref=shipped(nodes), edges_ref=shipped(edges),
             greenspace_ref=shipped(greenspace), target_dist=target_dist,
             destination=destination, distance_type=distance_type,
             key_col=key_col, flag_name=flag_name),
        dict(batch_size=512, num_cpus=1))


def od_cost_matrix(
    poi: "ray.data.Dataset",
    nodes: "pa.Table",
    edges: "pa.Table",
    cutoff: float = 500.0,
    dest_mod: int | None = 16,
) -> "ray.data.Dataset":
    """Many-to-many origin→destination network cost matrix: one row per
    (PoI, destination node) pair within ``cutoff`` network metres, cost
    = snap penalty + shortest-path length (the reference's one-to-one
    shortest-distance semantics, applied as an OD matrix)."""
    from ..stages.netaccess import ODMatrix

    return KernelStage(
        ODMatrix,
        dict(nodes_ref=shipped(nodes), edges_ref=shipped(edges),
             cutoff=cutoff, dest_mod=dest_mod),
        dict(batch_size=256, num_cpus=1)).on(poi)
