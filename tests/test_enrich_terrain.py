"""Broadcast dim join (stages/enrich) and raster point gradient
(stages/terrain) — brute-force oracles."""

import numpy as np
import pyarrow as pa

import ray
import ray.data


def _dim():
    return pa.table({
        "k": pa.array(np.array([2, 5, 9, 11], dtype=np.int64)),
        "name": pa.array(["two", "five", "nine", "eleven"]),
        "grp": pa.array(np.array([0, 1, 0, 1], dtype=np.int64)),
    })


def test_broadcast_join_inner(ray_session):
    from greenex_py_ray.stages.enrich import broadcast_join

    facts = pa.table({
        "fk": pa.array(np.array([5, 2, 7, 9, 2, 100], dtype=np.int64)),
        "v": pa.array(np.arange(6, dtype=np.int64)),
    })
    out = (broadcast_join(ray.data.from_arrow(facts).repartition(2),
                          _dim(), "fk", "k", ("name", "grp"))
           .to_pandas().sort_values("v").reset_index(drop=True))
    # rows 2 (fk=7) and 5 (fk=100) drop
    assert list(out["v"]) == [0, 1, 3, 4]
    assert list(out["name"]) == ["five", "two", "nine", "two"]
    assert list(out["grp"]) == [1, 0, 0, 0]


def test_broadcast_join_left_nulls(ray_session):
    from greenex_py_ray.stages.enrich import broadcast_join

    facts = pa.table({
        "fk": pa.array(np.array([7, 5], dtype=np.int64)),
        "v": pa.array(np.arange(2, dtype=np.int64)),
    })
    out = (broadcast_join(ray.data.from_arrow(facts), _dim(), "fk", "k",
                          ("name",), how="left")
           .to_pandas().sort_values("v").reset_index(drop=True))
    assert out["name"][0] is None or out["name"].isna()[0]
    assert out["name"][1] == "five"


def test_point_gradient_matches_field(ray_session, tmp_path):
    from greenex_py_ray.sources import synth
    from greenex_py_ray.stages.terrain import GRAD_Q, point_gradient

    paths = synth.ensure_world(str(tmp_path / "w"), n_docs=50, seed=42)
    rng = np.random.default_rng(4)
    # interior points (3x3 window inside the stored extent) + one edge
    x = rng.uniform(100, 1900, 60)
    y = rng.uniform(100, 1900, 60)
    x[0], y[0] = 3.0, 500.0  # col 0 -> west neighbor missing -> NULL
    pts = pa.table({"pid": pa.array(np.arange(60, dtype=np.int64)),
                    "x": pa.array(x), "y": pa.array(y)})
    out = (point_gradient(ray.data.from_arrow(pts).repartition(3),
                          paths["tiles"], band="ndvi",
                          res=synth.RASTER_RES)
           .to_pandas().sort_values("pid").reset_index(drop=True))

    def field(px, py):
        return synth.field_ndvi(np.asarray(px, float),
                                np.asarray(py, float))

    res = synth.RASTER_RES
    col = np.floor(x / res).astype(np.int64)
    row = np.floor(y / res).astype(np.int64)
    for i in range(60):
        if i == 0:
            assert out["slope_q"].isna()[0]
            continue
        pxc = col[i] * res + res / 2.0
        pyc = row[i] * res + res / 2.0
        e = field(pxc + res, pyc)
        w = field(pxc - res, pyc)
        s = field(pxc, pyc + res)
        nv = field(pxc, pyc - res)
        gx = (e - w) / (2.0 * res)
        gy = (s - nv) / (2.0 * res)
        assert out["gx_q"][i] == round(float(gx) * GRAD_Q)
        assert out["gy_q"][i] == round(float(gy) * GRAD_Q)
        assert out["slope_q"][i] == round(
            float(np.sqrt(gx * gx + gy * gy)) * GRAD_Q)


def test_exists_join_semi_anti(ray_session):
    from greenex_py_ray.stages.setops import exists_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array(np.array([1, 2, 3, 4, 5], dtype=np.int64)),
        "v": pa.array(np.arange(5, dtype=np.int64))}))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array(np.array([2, 2, 4, 9], dtype=np.int64))}))
    semi = exists_join(left, right, on="k", right_on="rk",
                       num_partitions=2).to_pandas()
    anti = exists_join(left, right, on="k", right_on="rk", anti=True,
                       num_partitions=2).to_pandas()
    assert sorted(semi["k"]) == [2, 4]
    assert sorted(anti["k"]) == [1, 3, 5]
    # no row duplication from the duplicated right key
    assert len(semi) == 2 and len(anti) == 3


def test_distinct_count(ray_session):
    from greenex_py_ray.stages.setops import distinct_count

    import pandas as pd
    df = pd.DataFrame({
        "u": np.array([1, 1, 1, 2, 2, 3], dtype=np.int64),
        "t": ["a", "b", "a", "a", "a", "c"],
    })
    out = (distinct_count(ray.data.from_pandas(df).repartition(3), "u", "t")
           .to_pandas().sort_values("u").reset_index(drop=True))
    assert list(out["n_distinct"]) == [2, 1, 1]


def test_vector_norms(ray_session):
    from greenex_py_ray.stages.similarity import vector_norms

    V = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]], dtype=np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(3, dtype=np.int64)),
        "embedding": pa.array(list(V), pa.list_(pa.float32())),
    })
    out = (vector_norms(ray.data.from_arrow(tbl), 2).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert list(out["norm_q6"]) == [5_000_000, 0,
                                    round(np.sqrt(2.0) * 1e6)]


def test_media_ref_rollup(ray_session, world):
    from greenex_py_ray.sources import documents as doc_src
    from greenex_py_ray.stages.multimodal import media_ref_rollup

    docs = doc_src.read_documents(world["documents"])
    out = media_ref_rollup(docs).to_pandas()
    # brute force over the same parquet
    import duckdb
    con = duckdb.connect()
    exp = con.execute(f"""
        WITH s AS (SELECT doc_id, unnest(spans) AS sp
                   FROM read_parquet('{world["documents"]}/*.parquet')),
        m AS (SELECT doc_id,
                regexp_extract(sp.media_ref, 'tile://([a-z]+)/(\\d+)_(\\d+)', 2)
                  AS tx,
                regexp_extract(sp.media_ref, 'tile://([a-z]+)/(\\d+)_(\\d+)', 3)
                  AS ty
              FROM s WHERE sp.kind = 'media')
        SELECT CAST(tx AS BIGINT) AS tx, CAST(ty AS BIGINT) AS ty,
               count(*) AS n_spans, count(DISTINCT doc_id) AS n_docs
        FROM m GROUP BY tx, ty
    """).df()
    got = {(r.tx, r.ty): (r.n_spans, r.n_docs)
           for r in out.itertuples()}
    want = {(r.tx, r.ty): (r.n_spans, r.n_docs)
            for r in exp.itertuples()}
    assert got == want and len(got) > 0


def test_broadcast_join_empty_dim(ray_session):
    from greenex_py_ray.stages.enrich import broadcast_join

    facts = pa.table({"fk": pa.array(np.array([1, 2], dtype=np.int64)),
                      "v": pa.array(np.arange(2, dtype=np.int64))})
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "name": pa.array([], pa.string())})
    inner = broadcast_join(ray.data.from_arrow(facts), empty, "fk", "k",
                           ("name",)).to_pandas()
    left = broadcast_join(ray.data.from_arrow(facts), empty, "fk", "k",
                          ("name",), how="left").to_pandas()
    assert len(inner) == 0
    assert len(left) == 2 and left["name"].isna().all()


def test_hillshade_batch_flat_and_null():
    """Flat terrain shades to cosZ; NULL gradients stay NULL; a slope
    facing the light shades brighter than one facing away."""
    from greenex_py_ray.stages.terrain import (GRAD_Q, HS_COSZ, HS_LX,
                                               HS_LY, hillshade_batch)

    g = int(0.2 * GRAD_Q)
    batch = pa.table({
        "doc_id": [1, 2, 3, 4],
        "gx_q": pa.array([0, None, g, -g], pa.int64()),
        "gy_q": pa.array([0, None, 0, 0], pa.int64()),
    })
    out = hillshade_batch(batch).to_pandas()
    assert out.hs_q[0] == round(HS_COSZ * GRAD_Q)
    assert np.isnan(out.hs_q[1])
    # lx < 0: a +x-rising slope (gx > 0) faces the light (brighter),
    # the -x-rising slope faces away; compare against direct formula
    for i, (gx, gy) in [(2, (0.2, 0.0)), (3, (-0.2, 0.0))]:
        exp = (HS_COSZ - gx * HS_LX - gy * HS_LY) / np.sqrt(
            1 + gx * gx + gy * gy)
        assert out.hs_q[i] == round(max(exp, 0.0) * GRAD_Q)
    assert out.hs_q[2] != out.hs_q[3]


def test_d8_flow_direction_ramp_and_pit(world):
    """On the synthetic NDVI field, d8 codes are in 0..8, NULL only at
    the extent edge, and each non-flat code points at the lowest
    quantized neighbor drop (re-checked against the tile window)."""
    from greenex_py_ray.sources import synth
    from greenex_py_ray.stages.terrain import (D8_OFFS, GRAD_Q, SQRT2,
                                               D8FlowDirection)

    res = synth.RASTER_RES
    xs = np.array([505.0, 1200.0, 2345.0, 3901.0, 5.0])
    ys = np.array([505.0, 800.0, 1999.0, 2750.0, 5.0])
    batch = pa.table({"doc_id": np.arange(5), "x": xs, "y": ys})
    act = D8FlowDirection(world["tiles"], band="ndvi", res=res)
    out = act(batch).to_pandas()
    st = act.store
    for i in range(5):
        col = int(np.floor(xs[i] / res))
        row = int(np.floor(ys[i] / res))
        win = st.window("ndvi", row - 1, col - 1, 3, 3, fill=np.nan)
        if np.isnan(win).any():
            assert np.isnan(out.d8[i])
            continue
        z0 = win[1, 1]
        best_q, best_c = np.iinfo(np.int64).min, 0
        for code, (dr, dc) in enumerate(D8_OFFS, start=1):
            dist = res * (SQRT2 if dr and dc else 1.0)
            dq = int(np.round((z0 - win[1 + dr, 1 + dc]) / dist * GRAD_Q))
            if dq > best_q:
                best_q, best_c = dq, code
        assert out.d8[i] == (best_c if best_q > 0 else 0)
