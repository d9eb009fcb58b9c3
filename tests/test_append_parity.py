"""Every public-API branch that appends a one-row-per-PoI kernel's
columns to the documents equals the keyed join of the same stage run
over the decoded PoIs (``KernelStage.on``, as the gate queries run
it) onto the same documents: values, spans, column names and order.

Both sides build their kernel stage from the same ``*_stage`` spec, so
this pins the append step itself plus each branch's argument wiring
(graph, side table, dilation, flag name, column selection)."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray.data as rd

import greenex_py_ray as gx
from greenex_py_ray import api
from greenex_py_ray.functions.joins import bucket_join_attach
from greenex_py_ray.pipelines import accessibility, availability
from greenex_py_ray.sidefiles import shipped
from greenex_py_ray.sources import documents as doc_src
from greenex_py_ray.stages.netaccess import (IsochroneCoverage,
                                             IsochroneLandcover,
                                             IsochroneZonal)
from greenex_py_ray.sources.synth import DOC_SCHEMA

N_DOCS = 40
DIST = 400.0


def _table(ds) -> pa.Table:
    t = pa.concat_tables(
        list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))
    return t.take(pc.sort_indices(t.column("doc_id")))


def _square_docs(world) -> pa.Table:
    """The first point PoIs as 120 m squares around each point."""
    pts = doc_src.DecodeGeom()(
        pq.read_table(world["documents"]).slice(0, N_DOCS))
    spans = []
    for x, y in zip(pts.column("x").to_pylist(), pts.column("y").to_pylist()):
        c = [(x - 60, y - 60), (x + 60, y - 60), (x + 60, y + 60),
             (x - 60, y + 60), (x - 60, y - 60)]
        wkt = "POLYGON((" + ", ".join(f"{a!r} {b!r}" for a, b in c) + "))"
        spans.append([{"kind": "geom", "text": wkt, "media_ref": "",
                       "offset": 0}])
    return pa.table({"doc_id": pts.column("doc_id"),
                     "spans": pa.array(spans, DOC_SCHEMA.field("spans").type)},
                    schema=DOC_SCHEMA)


def _net(world) -> dict:
    return dict(network_nodes_file=world["network_nodes"],
                network_edges_file=world["network_edges"])


def _graph(world):
    return (pq.read_table(world["network_nodes"]),
            pq.read_table(world["network_edges"]))


def _ndvi_network(w, docs, poi):
    return (gx.get_mean_NDVI(docs, w["tiles"], buffer_dist=DIST,
                             buffer_type="network", **_net(w)),
            availability.isochrone_stage(
                IsochroneZonal, *_graph(w), tile_root=w["tiles"],
                buffer_dist=DIST).on(poi))


def _landcover_network(w, docs, poi):
    return (gx.get_landcover_percentages(docs, w["tiles"], buffer_dist=DIST,
                                         buffer_type="network", **_net(w)),
            availability.isochrone_stage(
                IsochroneLandcover, *_graph(w), tile_root=w["tiles"],
                buffer_dist=DIST, classmap=availability.DEFAULT_CLASSMAP,
                stringify=True).on(poi))


def _canopy_network(w, docs, poi):
    return (gx.get_canopy_percentage(docs, w["canopy"], buffer_dist=DIST,
                                     buffer_type="network", **_net(w)),
            availability.isochrone_stage(
                IsochroneCoverage, *_graph(w),
                polys_ref=shipped(pq.read_table(w["canopy"])),
                buffer_dist=DIST, stringify=True, dissolve=False).on(poi))


def _greenspace_network(w, docs, poi):
    return (gx.get_greenspace_percentage(docs, w["greenspace"],
                                         buffer_dist=DIST,
                                         buffer_type="network", **_net(w)),
            availability.isochrone_stage(
                IsochroneCoverage, *_graph(w),
                polys_ref=shipped(pq.read_table(w["greenspace"])),
                buffer_dist=DIST, stringify=True,
                name="greenspace_cover").on(poi))


def _canopy_euclidean(w, docs, poi):
    return (gx.get_canopy_percentage(docs, w["canopy"], buffer_dist=DIST),
            availability.coverage_stage(
                pq.read_table(w["canopy"]), DIST, stringify=True,
                dissolve=False).on(poi))


def _greenspace_euclidean(w, docs, poi):
    return (gx.get_greenspace_percentage(docs, w["greenspace"],
                                         buffer_dist=DIST),
            availability.coverage_stage(
                pq.read_table(w["greenspace"]), DIST, stringify=True,
                name="greenspace_cover").on(poi))


def _distance(distance_type, destination):
    def case(w, docs, poi):
        flag = "greenspace_within_300m"
        gs = pq.read_table(w["greenspace"])
        if destination == "centroids" or "centroid_x" not in gs.column_names:
            gs = api._dissolve_units(gs)
        metrics = accessibility.network_distance_stage(
            *_graph(w), gs, 300.0, destination, distance_type).on(poi)
        return (gx.get_shortest_distance_greenspace(
                    docs, w["greenspace"], target_dist=300.0,
                    distance_type=distance_type, destination=destination,
                    **_net(w)),
                metrics.rename_columns(
                    {"greenspace_within_target": flag}))
    return case


POINT_CASES = {
    "ndvi_network": _ndvi_network,
    "landcover_network": _landcover_network,
    "canopy_network": _canopy_network,
    "greenspace_network": _greenspace_network,
    "canopy_euclidean": _canopy_euclidean,
    "greenspace_euclidean": _greenspace_euclidean,
    "distance_network_centroids": _distance("network", "centroids"),
    "distance_euclidean_entrance": _distance("euclidean", "entrance"),
}


@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_point_branch_matches_pipeline_join(world, case):
    docs = rd.from_arrow(pq.read_table(world["documents"]).slice(0, N_DOCS))
    poi = doc_src.decode_geom(docs).select_columns(["doc_id", "x", "y"])
    got, metrics = POINT_CASES[case](world, docs, poi)
    a = _table(got)
    b = _table(bucket_join_attach(docs, metrics, key="doc_id"))
    assert a.num_rows == N_DOCS
    assert a.column_names == b.column_names
    assert a.equals(b)


@pytest.mark.parametrize("dissolve", [False, True])
@pytest.mark.parametrize("buffer_type, dilate", [(None, 0.0),
                                                 ("euclidean", 50.0)])
def test_polygon_coverage_matches_pipeline_join(world, dissolve, buffer_type,
                                                dilate):
    """Polygon PoIs with their own (dilated) geometry as the AoI:
    canopy (clip-sum) and greenspace (dissolved union)."""
    docs = rd.from_arrow(_square_docs(world))
    side = world["greenspace" if dissolve else "canopy"]
    fn = gx.get_greenspace_percentage if dissolve else gx.get_canopy_percentage
    name = "greenspace_cover" if dissolve else "canopy_cover"
    got = fn(docs, side, buffer_dist=(dilate or None), buffer_type=buffer_type)
    polys = docs.map_batches(doc_src.DecodeGeom(parse_polygons=True),
                             batch_format="pyarrow")
    metrics = availability.coverage_stage(
        pq.read_table(side), dilate, stringify=True, name=name,
        aoi_shape="self", dissolve=dissolve,
    ).on(polys.select_columns(["doc_id", "ring_x", "ring_y", "ring_sizes"]))
    a = _table(got)
    b = _table(bucket_join_attach(docs, metrics, key="doc_id"))
    assert a.num_rows == N_DOCS
    assert a.column_names == b.column_names
    assert a.equals(b)
