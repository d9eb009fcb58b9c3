"""Isochrone (network-buffer) landcover and coverage variants — the
reference supports ``buffer_type='network'`` on ALL four availability
functions (availability.py:505-516 landcover, :682-710 canopy,
:943-997 greenspace); these tests pin the new actors against
straight-line numpy replays on handcrafted graphs plus api-level runs
over the synthetic world."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray

from greenex_py_ray.sources import documents as doc_src, synth
from greenex_py_ray.stages.netaccess import (
    IsochroneCoverage,
    IsochroneLandcover,
    IsochroneZonal,
)
from greenex_py_ray.state.tiles import TileStore


def _single_edge_graph(ax, ay, bx, by):
    nodes = pa.table({"node_id": np.array([0, 1], dtype=np.int64),
                      "x": [ax, bx], "y": [ay, by]})
    edges = pa.table({"u": np.array([0], dtype=np.int64),
                      "v": np.array([1], dtype=np.int64),
                      "length": [float(np.hypot(bx - ax, by - ay))]})
    return nodes, edges


def _capsule_mask(ax, ay, bx, by, edge_buff=25.0):
    """Independent replay of the reference's make_iso_poly raster form
    for a single edge (no holes possible): pixel centers within
    edge_buff of the segment."""
    res = synth.RASTER_RES
    c0 = int(np.floor((min(ax, bx) - edge_buff) / res))
    c1 = int(np.floor((max(ax, bx) + edge_buff) / res))
    r0 = int(np.floor((min(ay, by) - edge_buff) / res))
    r1 = int(np.floor((max(ay, by) + edge_buff) / res))
    px = (np.arange(c0, c1 + 1) + 0.5) * res
    py = (np.arange(r0, r1 + 1) + 0.5) * res
    gx, gy = np.meshgrid(px, py, indexing="xy")
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = np.clip(((gx - ax) * dx + (gy - ay) * dy) / L2, 0.0, 1.0)
    d = np.hypot(gx - (ax + t * dx), gy - (ay + t * dy))
    return r0, c0, d <= edge_buff


def test_isochrone_landcover_single_edge_oracle(world, ray_session):
    ax, ay, bx, by = 600.0, 700.0, 800.0, 750.0
    nodes, edges = _single_edge_graph(ax, ay, bx, by)
    classmap = synth.LULC_CLASSMAP if hasattr(synth, "LULC_CLASSMAP") else None
    if classmap is None:
        from greenex_py_ray.pipelines.availability import DEFAULT_CLASSMAP
        classmap = DEFAULT_CLASSMAP
    lc = IsochroneLandcover(nodes, edges, world["tiles"], buffer_dist=400.0,
                            classmap=classmap)
    batch = pa.table({"doc_id": ["p"], "x": [ax + 1.0], "y": [ay + 1.0]})
    out = lc(batch)
    # oracle: capsule mask + per-class pixel counts straight off the
    # tile store
    r0, c0, mask = _capsule_mask(ax, ay, bx, by)
    store = TileStore(world["tiles"])
    vals = store.window("lulc", r0, c0, *mask.shape)[mask]
    vals = vals[np.isfinite(vals)]
    for cls in sorted(classmap):
        want = round(float((vals == cls).sum()) / vals.size * 100.0, 3)
        got = out.column(classmap[cls])[0].as_py()
        assert got == want, (cls, got, want)
    total = sum(out.column(classmap[c])[0].as_py() for c in classmap)
    assert abs(total - 100.0) < 0.01  # classmap covers every synth code


def test_isochrone_coverage_single_edge_oracle(world, ray_session):
    ax, ay, bx, by = 600.0, 700.0, 800.0, 750.0
    nodes, edges = _single_edge_graph(ax, ay, bx, by)
    gs = pq.read_table(world["greenspace"])
    cov = IsochroneCoverage(nodes, edges, gs, buffer_dist=400.0,
                            name="greenspace_cover", dissolve=True)
    batch = pa.table({"doc_id": ["p"], "x": [ax + 1.0], "y": [ay + 1.0]})
    out = cov(batch)
    # oracle: mask pixel centers inside ANY greenspace ring (union)
    from greenex_py_ray import geom
    r0, c0, mask = _capsule_mask(ax, ay, bx, by)
    rr, cc = np.nonzero(mask)
    res = synth.RASTER_RES
    px = (cc + c0 + 0.5) * res
    py = (rr + r0 + 0.5) * res
    inside = np.zeros(len(px), dtype=bool)
    for rlist in gs.column("rings").to_pylist():
        rings = [np.array([[p["x"], p["y"]] for p in ring]) for ring in rlist]
        inside |= geom.points_in_rings(px, py, rings)
    want = round(float(inside.sum()) / len(px) * 100.0, 2)
    got = out.column("greenspace_cover")[0].as_py()
    assert got == want, (got, want)


def test_isochrone_variants_api(world, ray_session):
    """api-level: all three network-buffer variants run end-to-end over
    the synthetic world and produce sane values."""
    import greenex_py_ray as gx

    kw = dict(buffer_type="network",
              network_nodes_file=world["network_nodes"],
              network_edges_file=world["network_edges"],
              stringify=False, buffer_dist=400.0)
    lc = gx.get_landcover_percentages(world["documents"], world["tiles"],
                                      **kw).to_pandas().head(20)
    pct_cols = [c for c in lc.columns if c not in ("doc_id", "spans")]
    sums = lc[pct_cols].sum(axis=1).dropna()
    assert len(sums) > 0 and np.allclose(sums, 100.0, atol=0.05)

    can = gx.get_canopy_percentage(world["documents"], world["canopy"],
                                   **kw).to_pandas().head(20)
    v = can["canopy_cover"].dropna()
    assert len(v) > 0 and (v >= 0).all()

    gsp = gx.get_greenspace_percentage(world["documents"], world["greenspace"],
                                       **kw).to_pandas().head(20)
    v = gsp["greenspace_cover"].dropna()
    assert len(v) > 0 and (v >= 0).all() and (v <= 100).all()


def test_isochrone_coverage_matches_zonal_mask(world, ray_session):
    """IsochroneCoverage and IsochroneZonal must agree on the AoI: a
    dissolve=True coverage of a layer covering EVERYTHING is 100%."""
    nodes, edges = _single_edge_graph(500.0, 500.0, 700.0, 560.0)
    world_rect = pa.table({
        "gs_id": np.array([0], dtype=np.int64),
        "rings": [[[{"x": -1e5, "y": -1e5}, {"x": 1e5, "y": -1e5},
                    {"x": 1e5, "y": 1e5}, {"x": -1e5, "y": 1e5},
                    {"x": -1e5, "y": -1e5}]]],
    })
    cov = IsochroneCoverage(nodes, edges, world_rect, buffer_dist=300.0,
                            name="c", dissolve=True)
    out = cov(pa.table({"doc_id": ["p"], "x": [501.0], "y": [501.0]}))
    assert out.column("c")[0].as_py() == 100.0
