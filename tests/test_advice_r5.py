"""Round-4 advice fixes: snap_t -0.0 canonicalization, floor(x+0.5)
tie rule in the access family, uniform-density guards in geostats,
sliced-ListArray alignment in the window hasher, terrain tile-key
bias."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data


def _seg_table(ax, ay, bx, by):
    return pa.table({
        "edge_key": pa.array(np.arange(len(ax), dtype=np.int64)),
        "ax": pa.array(np.asarray(ax, float)),
        "ay": pa.array(np.asarray(ay, float)),
        "bx": pa.array(np.asarray(bx, float)),
        "by": pa.array(np.asarray(by, float)),
    })


def test_snap_t_never_negative_zero():
    """Point coincident with endpoint A of a segment pointing into -x/-y
    makes dot = -0.0; snap_t must come out +0.0 (bit-exact vs SQL)."""
    from greenex_py_ray.stages.mapmatch import SegmentSnapper

    segs = _seg_table([100.0], [100.0], [40.0], [60.0])
    snap = SegmentSnapper(segs, radius=50.0)
    batch = pa.table({"doc_id": pa.array(["d0"]),
                      "x": pa.array([100.0]), "y": pa.array([100.0])})
    out = snap(batch)
    t = out.column("snap_t").to_numpy(zero_copy_only=False)
    assert t[0] == 0.0 and not np.signbit(t[0])
    # the oracle's matching expression also canonicalizes
    sql_t = duckdb.sql(
        "SELECT least(greatest(-0.0, 0.0), 1.0) + 0.0").fetchone()[0]
    assert sql_t == 0.0 and not np.signbit(np.float64(sql_t))


def test_e2sfca_step2_tie_rounds_like_sql():
    """wq*rq/1e6 hits an exact .5 (wq=2, rq=1250000): floor(x+0.5)
    gives 3 on both engines; np.round's ties-to-even gave 2."""
    from greenex_py_ray.stages.access import E2Access

    denom = 2.0 * 500.0 * 500.0
    d2 = -denom * np.log(2e-6)  # exp(-d2/denom)*1e6 == 2
    dx = np.sqrt(d2)
    fac = pa.table({
        "gs_id": pa.array(np.array([7], dtype=np.int64)),
        "centroid_x": pa.array([0.0]), "centroid_y": pa.array([0.0]),
        "rq": pa.array(np.array([1_250_000], dtype=np.int64)),
    })
    acc = E2Access(fac, denom=denom, cutoff=10_000.0)
    batch = pa.table({"doc_id": pa.array(["d0"]),
                      "x": pa.array([dx]), "y": pa.array([0.0])})
    # guard: the constructed weight really is the knife-edge 2
    _, _, w = acc._weights(batch)
    assert w.tolist() == [2]
    out = acc(batch)
    assert out.column("access_q").to_pylist() == [3]
    assert duckdb.sql(
        "SELECT CAST(floor(2.0 * 1250000.0 / 1000000.0 + 0.5) "
        "AS BIGINT)").fetchone()[0] == 3


def test_supply_area_half_tie(ray_session):
    """Facility rect area 2.5 m^2: floor(2.5+0.5)=3 on both engines
    (np.round gave 2); surfaces as rq = 3e9 for a 1-demand facility."""
    from greenex_py_ray.stages.access import two_step_fca

    fac = pa.table({
        "gs_id": pa.array(np.array([1], dtype=np.int64)),
        "centroid_x": pa.array([50.0]), "centroid_y": pa.array([50.0]),
        "x0": pa.array([0.0]), "x1": pa.array([2.5]),
        "y0": pa.array([0.0]), "y1": pa.array([1.0]),
    })
    poi = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["d0"]),
        "x": pa.array([60.0]), "y": pa.array([50.0])}))
    out = two_step_fca(poi, fac, radius=100.0, concurrency=1).to_pandas()
    assert out["access_q"].tolist() == [3_000_000_000]


def test_uniform_density_guards(ray_session):
    """All occupied cells with equal counts => zero variance; both
    hot-spot stats must refuse instead of emitting inf/NaN."""
    from greenex_py_ray.stages.geostats import (getis_ord_gi_star,
                                                local_morans_i)

    pts = pa.table({
        "x": pa.array([10.0, 110.0, 210.0, 310.0]),
        "y": pa.array([10.0, 10.0, 10.0, 10.0]),
    })
    ds = ray.data.from_arrow(pts)
    with pytest.raises(ValueError, match="zero variance"):
        local_morans_i(ds, cell_size=100.0).materialize()
    with pytest.raises(ValueError, match="zero variance"):
        getis_ord_gi_star(ray.data.from_arrow(pts),
                          cell_size=100.0).materialize()


def test_window_structure_sliced_column():
    """A sliced input column must hash the same windows as a fresh
    copy (values/offsets realignment guard)."""
    from greenex_py_ray.stages.scrub import _window_structure

    texts = ["a b c d e", "f g h i", "p q r s t u", "x y z"]
    col = pa.array(texts)
    sliced = col.slice(1, 3)
    fresh = pa.array(texts[1:4])
    wh_s, wp_s, nw_s = _window_structure(sliced, 3)
    wh_f, wp_f, nw_f = _window_structure(fresh, 3)
    assert (wh_s == wh_f).all()
    assert (wp_s == wp_f).all()
    assert (nw_s == nw_f).all()


def test_point_gradient_negative_coords(ray_session, tmp_path):
    """Negative tile indices must not alias groups or blow up the
    fetched window; out-of-extent points yield NULL slope."""
    from greenex_py_ray.sources import synth
    from greenex_py_ray.stages.terrain import point_gradient

    paths = synth.ensure_world(str(tmp_path / "w"), n_docs=20, seed=7)
    pts = pa.table({
        "pid": pa.array(np.arange(3, dtype=np.int64)),
        "x": pa.array([-5000.0, 500.0, -5000.0]),
        "y": pa.array([500.0, -5000.0, -5000.0]),
    })
    out = (point_gradient(ray.data.from_arrow(pts), paths["tiles"],
                          band="ndvi", res=synth.RASTER_RES,
                          concurrency=1)
           .to_pandas().sort_values("pid"))
    assert out["slope_q"].isna().all()
