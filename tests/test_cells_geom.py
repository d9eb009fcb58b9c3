import numpy as np

from greenex_py_ray import cells, geom


def test_cell_roundtrip():
    x = np.array([0.0, 499.9, 500.0, 12345.6])
    y = np.array([0.0, 10.0, 999.9, 54321.0])
    c = cells.cell_of(x, y, 500.0)
    ix, iy = np.divmod(c, cells.CELL_STRIDE)
    assert (ix == np.floor(x / 500)).all()
    assert (iy == np.floor(y / 500)).all()


def test_pack_cell_roundtrip_at_int32_limits():
    m = 2**31 - 1
    v = np.array([-m, -m + 1, -1, 0, 1, m - 1, m], dtype=np.int64)
    ix, iy = (a.ravel() for a in np.meshgrid(v, v))
    ck = cells.pack_cell(ix, iy)
    assert len(np.unique(ck)) == len(ck)
    back_x, back_y = cells.unpack_cell(ck)
    assert (back_x == ix).all() and (back_y == iy).all()
    # the key format: ix in the high word, iy's two's complement below
    assert cells.pack_cell(np.int64(-1), np.int64(-1)) == -1
    assert cells.pack_cell(np.int64(1), np.int64(-1)) == (1 << 33) - 1
    moved = cells.shift_cells(cells.pack_cell(ix, iy), [(0, 0), (-1, 1)])
    assert (moved[:len(ix)] == ck).all()
    mx, my = cells.unpack_cell(moved[len(ix):])
    keep = (ix > -m) & (iy < m)  # moved cells still inside the range
    assert (mx[keep] == ix[keep] - 1).all()
    assert (my[keep] == iy[keep] + 1).all()


def test_cell_key_is_packed_only_in_cells():
    """``cells.pack_cell``/``unpack_cell`` are the one sign-safe cell
    packer: no other module masks a cell index's low 32 bits inline
    (hash masks are ``np.uint64``)."""
    import pathlib

    import greenex_py_ray

    root = pathlib.Path(greenex_py_ray.__file__).parent
    hits = [str(p.relative_to(root)) for p in sorted(root.rglob("*.py"))
            if p.name != "cells.py"
            and "np.int64(0xFFFFFFFF)" in p.read_text()]
    assert hits == []


def test_zorder_distinct_and_local():
    ix = np.arange(100)
    iy = np.arange(100)
    z = cells.zorder(ix, iy)
    assert len(np.unique(z)) == 100


def test_parse_wkt_roundtrip():
    x = np.array([1.5, 2e-3, 19999.125])
    y = np.array([7.25, 0.0, 3.5])
    wkt = [f"POINT({a!r} {b!r})" for a, b in zip(x, y)]
    px, py, kinds, _ = geom.parse_wkt_geoms(wkt)
    assert kinds == ["POINT"] * 3
    assert np.array_equal(px, x)
    assert np.array_equal(py, y)


def test_polygon_area_centroid_square():
    ring = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert geom.polygon_area(ring) == 4.0
    assert geom.polygon_centroid(ring) == (1.0, 1.0)


def test_points_in_polygon():
    ring = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    px = np.array([1.0, 5.0, 3.9, -0.1])
    py = np.array([1.0, 1.0, 3.9, 2.0])
    assert geom.points_in_polygon(px, py, ring).tolist() == [True, False, True, False]


def test_clip_area_convex_half_overlap():
    subject = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    clip = np.array([[1.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.0, 2.0]])
    clipped = geom.clip_polygon_convex(subject, clip)
    assert abs(geom.polygon_area(clipped) - 2.0) < 1e-12


def test_clip_disjoint_is_zero():
    subject = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    clip = np.array([[5.0, 5.0], [6.0, 5.0], [6.0, 6.0], [5.0, 6.0]])
    assert len(geom.clip_polygon_convex(subject, clip)) < 3


def test_buffer_ngon_area_close_to_circle():
    ring = geom.buffer_ngon(10.0, 10.0, 5.0, quad_segs=16)
    area = geom.polygon_area(ring)
    assert abs(area - np.pi * 25.0) / (np.pi * 25.0) < 0.005


def test_interpolate_along():
    line = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    pts = geom.interpolate_along(line, np.array([0.0, 5.0, 10.0, 15.0, 20.0]))
    assert np.allclose(pts, [[0, 0], [5, 0], [10, 0], [10, 5], [10, 10]])


def test_segments_intersect_circle():
    # segments a→b against the circle (5, 1), r = 2
    mask = geom.seg_d2(
        5.0, 1.0, np.array([0.0, 10.0]), np.array([0.0, 10.0]),
        np.array([10.0, 20.0]), np.array([0.0, 10.0]),
    ) <= 2.0 ** 2
    assert mask.tolist() == [True, False]
