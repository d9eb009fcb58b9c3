"""``stages/zonal.shape_chords``: the chords of polygon, dilated-polygon
and buffered-polyline AoIs hold exactly the pixels of the direct
pixel-centre masks — ``geom.points_in_rings``,
``geom.points_within_rings_dist`` (its ``sqrt(d2) <= d`` tie rule) and a
polyline's ``d2 <= d*d`` over its open segments — on random convex,
concave, holed and multipolygon rings, lattice-snapped vertices that
force ties, tile and world edges and negative coordinates, several
owners per call, and owners without vertices."""

import numpy as np
import pytest

from greenex_py_ray import geom
from greenex_py_ray.sources import synth
from greenex_py_ray.stages.zonal import merge_chords, ring_edges, shape_chords

RES = synth.RASTER_RES
TS = synth.TILE_SIZE


def _star(rng, cx, cy, k, rmin, rmax):
    ang = np.sort(rng.uniform(0, 2 * np.pi, k))
    rad = rng.uniform(rmin, rmax, k)
    return np.column_stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)])


def _shapes(seed):
    """``[rings]`` per owner: every kind, centred on random points, on
    tile corners, on the world's corners and below zero."""
    rng = np.random.default_rng(seed)
    centres = [(2 * TS, TS), (0.0, 0.0), (synth.WORLD, synth.WORLD),
               (-1234.5, -77.0), (TS + 5.0, 3 * TS - 5.0)]
    centres += [tuple(rng.uniform(-3000.0, 23000.0, 2)) for _ in range(7)]
    polys = []
    for cx, cy in centres:
        r = rng.uniform(20.0, 400.0)
        convex = _star(rng, cx, cy, int(rng.integers(3, 9)), r, r)
        concave = _star(rng, cx, cy, int(rng.integers(5, 14)), 5.0, r)
        hole = 0.3 * (convex - (cx, cy)) + (cx, cy)
        # vertices on pixel centres and pixel edges: crossings and
        # distances that tie with a pixel centre
        snap = (np.round(rng.uniform(-25, 25, (int(rng.integers(3, 8)), 2)))
                + rng.choice([0.0, 0.5], (1, 2))) * RES + np.round(
                    np.array([cx, cy]) / RES) * RES
        (x0, y0), (x1, y1) = np.sort(snap[:2], axis=0)
        box = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        polys += [[convex], [concave], [convex, hole],
                  [concave, convex + 3 * r], [snap], [box], []]
    return polys


def _mask(rings, rule, d):
    """The direct pixel-centre mask over a grid round the rings' bbox."""
    xy = np.concatenate(rings)
    (x0, y0), (x1, y1) = xy.min(0) - d - 2 * RES, xy.max(0) + d + 2 * RES
    cols = np.arange(np.floor(x0 / RES), np.floor(x1 / RES) + 1).astype(np.int64)
    rows = np.arange(np.floor(y0 / RES), np.floor(y1 / RES) + 1).astype(np.int64)
    gc, gr = (v.ravel() for v in np.meshgrid(cols, rows))
    px, py = (gc + 0.5) * RES, (gr + 0.5) * RES
    if rule == "line":
        g = rings[0]
        inside = geom._point_seg_d2(px, py, g[:-1, 0], g[:-1, 1], g[1:, 0],
                                    g[1:, 1]).min(axis=1) <= d * d
    else:
        inside = geom.points_within_rings_dist(px, py, rings, d)
    return set(zip(gr[inside].tolist(), gc[inside].tolist()))


def _pixels(chords, owner):
    """One owner's pixels; its chords must not overlap."""
    o, row, lo, hi = chords
    m = o == owner
    out = {(r, c) for r, a, b in zip(row[m], lo[m], hi[m])
           for c in range(a, b + 1)}
    assert len(out) == (hi[m] - lo[m] + 1).sum()
    return out


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d", [0.0, 12.5, 17.3, 30.0, 100.0, 10 * 2 ** 0.5])
def test_polygon_chords_match_mask(seed, d):
    polys = _shapes(seed)
    chords = shape_chords(*ring_edges(polys), d)
    assert np.all(chords[3] >= chords[2])
    for i, rings in enumerate(polys):
        want = _mask(rings, "area", d) if rings else set()
        assert _pixels(chords, i) == want, (i, d)
    assert sum(len(_pixels(chords, i)) > 0 for i in range(len(polys))) > len(polys) // 2


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d", [5.0, 10.0, 12.5, 25.0, 123.4, 10 * 2 ** 0.5])
def test_polyline_chords_match_mask(seed, d):
    """Open segments only: the ring's closing edge is not part of the
    line.  Includes a zero-length segment and snapped vertices."""
    lines = [rings[0] for rings in _shapes(seed) if rings]
    lines.append(np.array([[TS, TS], [TS, TS], [TS + 35.0, TS - 5.0]]))
    owner = np.repeat(np.arange(len(lines)), [len(g) - 1 for g in lines])
    seg = [np.concatenate([g[:-1, 0] for g in lines]),
           np.concatenate([g[:-1, 1] for g in lines]),
           np.concatenate([g[1:, 0] for g in lines]),
           np.concatenate([g[1:, 1] for g in lines])]
    chords = shape_chords(*seg, owner, d, area=False)
    for i, g in enumerate(lines):
        assert _pixels(chords, i) == _mask([g], "line", d), (i, d)


def test_merge_joins_overlapping_and_touching_chords():
    """Per (owner, row), sorted; empty chords dropped."""
    owner = np.array([0, 0, 0, 1, 1, 0])
    row = np.array([5, 5, 5, 5, -2, 6])
    lo = np.array([3, 6, 10, 4, 0, 2])
    hi = np.array([7, 9, 12, 4, 0, 1])  # the last chord is empty
    merged = merge_chords(owner, row, lo, hi)
    assert [v.tolist() for v in merged] == [[0, 1, 1], [5, -2, 5], [3, 0, 4],
                                            [12, 0, 4]]
