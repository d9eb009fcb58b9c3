"""stages/olap: ROLLUP, pivot, interval-overlap join; group_pearson.

Oracles here are tiny pandas replays — the driver-shaped DuckDB gates
live in pipelines/driver_queries (rollup_revenue, pivot_user_events,
pearson, window_overlap).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from greenex_py_ray.stages.olap import (
    interval_overlap_count,
    pivot_count_sum,
    rollup_sum,
)
from greenex_py_ray.stages.regression import group_pearson


@pytest.fixture()
def sales_df():
    rng = np.random.RandomState(7)
    n = 500
    return pd.DataFrame({
        "region": rng.choice(["n", "s", "e"], n),
        "year": rng.choice([2020, 2021], n).astype(np.int64),
        "amount": np.round(rng.uniform(0, 100, n), 2),
    })


def test_rollup_matches_pandas(sales_df):
    ds = ray.data.from_pandas(sales_df).repartition(7)
    out = rollup_sum(ds, ["region", "year"], "amount").to_pandas()
    cents = np.round(sales_df["amount"] * 100.0, 0).astype(np.int64)
    df = sales_df.assign(cents=cents)

    fine = df.groupby(["region", "year"])["cents"].agg(["count", "sum"])
    got_fine = out[out.lvl == 2].set_index(["region", "year"]).sort_index()
    assert (got_fine["n"].to_numpy()
            == fine["count"].sort_index().to_numpy()).all()
    assert (got_fine["sum_q"].to_numpy()
            == fine["sum"].sort_index().to_numpy()).all()

    lvl1 = df.groupby("region")["cents"].sum().sort_index()
    got1 = out[out.lvl == 1].sort_values("region")
    assert (got1["year"] == -1).all()
    assert (got1["sum_q"].to_numpy() == lvl1.to_numpy()).all()

    got0 = out[out.lvl == 0]
    assert len(got0) == 1
    assert got0["region"].iloc[0] == "ALL"
    assert got0["sum_q"].iloc[0] == cents.sum()
    assert got0["n"].iloc[0] == len(df)
    # total row count: grouping sets fine + per-region + grand total
    assert len(out) == len(fine) + df["region"].nunique() + 1


def test_pivot_count_sum(sales_df):
    ds = ray.data.from_pandas(sales_df).repartition(5)
    out = pivot_count_sum(ds, "year", "region", ["n", "s", "e"],
                          "amount").to_pandas()
    out = out.set_index("year").sort_index()
    cents = np.round(sales_df["amount"] * 100.0, 0).astype(np.int64)
    df = sales_df.assign(cents=cents)
    for r in ["n", "s", "e"]:
        sub = df[df.region == r].groupby("year")
        exp_n = sub.size().reindex(out.index, fill_value=0)
        exp_s = sub["cents"].sum().reindex(out.index, fill_value=0)
        assert (out[f"n_{r}"].to_numpy() == exp_n.to_numpy()).all()
        assert (out[f"sum_{r}"].to_numpy() == exp_s.to_numpy()).all()


def test_pivot_unknown_type_ignored():
    df = pd.DataFrame({"k": [1, 1, 2], "t": ["a", "zz", "a"],
                       "v": [1.0, 99.0, 2.0]})
    out = pivot_count_sum(ray.data.from_pandas(df), "k", "t", ["a"],
                          "v").to_pandas().set_index("k").sort_index()
    assert out.loc[1, "n_a"] == 1 and out.loc[1, "sum_a"] == 100
    assert out.loc[2, "n_a"] == 1 and out.loc[2, "sum_a"] == 200


def test_interval_overlap_count():
    # two windows [0,99], [100,199]; intervals straddling count twice
    wins = pa.table({"w_id": pa.array([0, 1], type=pa.int64()),
                     "w_start": pa.array([0, 100], type=pa.int64()),
                     "w_end": pa.array([99, 199], type=pa.int64())})
    df = pd.DataFrame({
        "s": np.array([10, 90, 150, 250], dtype=np.int64),
        "e": np.array([20, 110, 160, 260], dtype=np.int64),
        "v": [1.0, 2.0, 3.0, 4.0],
    })
    out = interval_overlap_count(
        ray.data.from_pandas(df).repartition(2), wins, "s", "e",
        value_col="v").to_pandas().set_index("w_id")
    assert out.loc[0, "n_overlap"] == 2          # [10,20], [90,110]
    assert out.loc[1, "n_overlap"] == 2          # [90,110], [150,160]
    assert out.loc[0, "sum_q"] == 300            # 100 + 200
    assert out.loc[1, "sum_q"] == 500            # 200 + 300
    # rows overlapping nothing appear nowhere; empty windows emit 0
    assert (out["n_overlap"] >= 0).all()


def test_group_pearson_matches_numpy():
    rng = np.random.RandomState(3)
    n = 400
    df = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "x": np.arange(n, dtype=np.int64),
        "y": np.round(rng.uniform(-5, 5, n), 2),
    })
    df.loc[df.g == "a", "y"] += 0.01 * df.loc[df.g == "a", "x"]
    out = group_pearson(ray.data.from_pandas(df).repartition(6),
                        "g", "x", "y").to_pandas()
    out = out.set_index("g").sort_index()
    for g in ["a", "b"]:
        sub = df[df.g == g]
        yq = np.round(sub["y"] * 100.0, 0)
        exp = np.corrcoef(sub["x"], yq)[0, 1]
        assert out.loc[g, "r"] == pytest.approx(exp, abs=1e-12)
        assert out.loc[g, "n"] == len(sub)


def test_group_pearson_degenerate_null():
    df = pd.DataFrame({"g": ["c"] * 5, "x": np.arange(5, dtype=np.int64),
                       "y": [2.0] * 5})
    out = group_pearson(ray.data.from_pandas(df), "g", "x", "y").to_pandas()
    assert out["r"].isna().all()


def test_cube_sum_grouping_sets(sales_df):
    from greenex_py_ray.stages.olap import cube_sum

    ds = ray.data.from_pandas(sales_df).repartition(4)
    out = cube_sum(ds, ["region", "year"], "amount").to_pandas()
    cents = np.round(sales_df["amount"] * 100.0, 0).astype(np.int64)
    df = sales_df.assign(cents=cents)
    # lvl bitmask: 3 = fine, 1 = region only, 2 = year only, 0 = total
    assert sorted(out["lvl"].unique()) == [0, 1, 2, 3]
    yr = out[out.lvl == 2].sort_values("year")
    exp = df.groupby("year")["cents"].sum().sort_index()
    assert (yr["region"] == "ALL").all()
    assert (yr["sum_q"].to_numpy() == exp.to_numpy()).all()
    assert out[out.lvl == 0]["sum_q"].iloc[0] == cents.sum()
    n_fine = df.groupby(["region", "year"]).ngroups
    assert len(out) == n_fine + 3 + 2 + 1


def test_cell_box_join_matches_bruteforce():
    from greenex_py_ray.stages.spatial_join import cell_box_join

    rng = np.random.RandomState(11)
    nb, nr = 300, 40
    bx = rng.uniform(0, 5000, nb)
    by = rng.uniform(0, 5000, nb)
    br = rng.uniform(10, 400, nb)
    boxes = pd.DataFrame({
        "doc_id": np.arange(nb, dtype=np.int64),
        "bx0": bx - br, "by0": by - br, "bx1": bx + br, "by1": by + br,
    })
    rx = rng.uniform(0, 5000, nr)
    ry = rng.uniform(0, 5000, nr)
    rw = rng.uniform(50, 800, nr)
    rh = rng.uniform(50, 800, nr)
    rects = pa.table({
        "gs_id": pa.array(np.arange(nr, dtype=np.int64)),
        "x0": pa.array(rx - rw), "y0": pa.array(ry - rh),
        "x1": pa.array(rx + rw), "y1": pa.array(ry + rh),
    })
    out = cell_box_join(ray.data.from_pandas(boxes).repartition(3),
                        rects, cell_size=500.0,
                        key_col="doc_id").to_pandas()
    got = set(zip(out["doc_id"], out["gs_id"]))
    exp = set()
    for i in range(nb):
        for j in range(nr):
            if (boxes.bx0[i] <= rects["x1"][j].as_py()
                    and boxes.bx1[i] >= rects["x0"][j].as_py()
                    and boxes.by0[i] <= rects["y1"][j].as_py()
                    and boxes.by1[i] >= rects["y0"][j].as_py()):
                exp.add((i, j))
    assert got == exp            # exact pair set, no dupes, no misses
    assert len(out) == len(got)  # ownership dedup emitted each pair once


def test_frame_sample_plan_dedup_and_spacing():
    from greenex_py_ray.stages.multimodal import frame_sample_plan

    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int32())])
    mk = lambda ref: {"kind": "media", "text": None,
                      "media_ref": ref, "offset": 0}
    txt = {"kind": "text", "text": "hi", "media_ref": None, "offset": 0}
    docs = pa.table({
        "doc_id": pa.array(["a", "b", "c"]),
        "spans": pa.array([
            [txt, mk("tile://ndvi/3_5")],
            [mk("tile://ndvi/3_5"), mk("tile://lulc/2_9")],  # dup asset
            [txt],
        ], type=pa.list_(span_t)),
    })
    out = frame_sample_plan(ray.data.from_arrow(docs)).to_pandas()
    # 2 distinct assets x 8 frames, duplicates collapsed
    assert len(out) == 16
    one = out[(out.band == "ndvi") & (out.tx == 3)].sort_values("frame_idx")
    nf = (7 * 3 + 13 * 5) % 290 + 10
    assert (one["n_frames"] == nf).all()
    exp = [j * nf // 8 for j in range(8)]
    assert list(one["frame_idx"]) == exp
    assert one["frame_idx"].is_monotonic_increasing


def test_areal_cell_weights_exact_and_negative_edge():
    from greenex_py_ray.stages.zonal import areal_cell_weights

    # one rect straddling y=0 (negative iy cells) and two cell columns
    rects = pa.table({
        "gs_id": pa.array([7], type=pa.int64()),
        "x0": pa.array([400.0]), "y0": pa.array([-100.0]),
        "x1": pa.array([900.0]), "y1": pa.array([200.0]),
    })
    out = areal_cell_weights(ray.data.from_arrow(rects),
                             cell_size=500.0).to_pandas()
    # cells: ix in {0,1}, iy in {-1,0} -> 4 pairs
    assert len(out) == 4
    assert out["overlap_area"].sum() == pytest.approx(500.0 * 300.0)
    assert out["frac"].sum() == pytest.approx(1.0)
    got = {}
    for _, r in out.iterrows():
        got[r["cell"]] = r["overlap_area"]
    S = 1 << 20
    assert got[0 * S + 0] == 100.0 * 200.0   # [400,500]x[0,200]
    assert got[1 * S + 0] == 400.0 * 200.0   # [500,900]x[0,200]
    assert got[0 * S - 1] == 100.0 * 100.0   # [400,500]x[-100,0]
    assert got[1 * S - 1] == 400.0 * 100.0


def test_interval_join_bruteforce():
    from greenex_py_ray.stages.olap import interval_join

    rng = np.random.RandomState(4)
    na, nb = 120, 90
    sa = rng.randint(0, 100_000, na).astype(np.int64)
    ea = sa + rng.randint(1, 5000, na)
    sb = rng.randint(0, 100_000, nb).astype(np.int64)
    eb = sb + rng.randint(1, 5000, nb)
    left = ray.data.from_arrow(pa.table({
        "a_id": pa.array(np.arange(na, dtype=np.int64)),
        "s": pa.array(sa), "e": pa.array(ea)})).repartition(3)
    right = ray.data.from_arrow(pa.table({
        "b_id": pa.array(np.arange(nb, dtype=np.int64)),
        "s": pa.array(sb), "e": pa.array(eb)})).repartition(2)
    out = interval_join(left, right, bucket_us=2048).to_pandas()
    got = set(zip(out["a_id"], out["b_id"]))
    exp = {(i, j) for i in range(na) for j in range(nb)
           if sa[i] <= eb[j] and ea[i] >= sb[j]}
    assert got == exp
    assert len(out) == len(got)   # ownership rule: each pair once


def test_global_rank_ntile_uneven():
    from greenex_py_ray.stages.quantiles import global_rank_ntile

    # n=13, tiles=5 -> first 3 tiles get 3 rows, last 2 get 2 (SQL NTILE)
    df = pd.DataFrame({"k": np.arange(13, dtype=np.int64),
                       "v": np.repeat([1.0, 2.0, 3.0], [5, 5, 3])})
    out = global_rank_ntile(ray.data.from_pandas(df).repartition(4),
                            "v", "k", tiles=5).to_pandas()
    out = out.sort_values("rank")
    assert list(out["rank"]) == list(range(1, 14))
    assert list(out["k"]) == list(range(13))      # ties broken by key
    sizes = out.groupby("tile").size()
    assert list(sizes) == [3, 3, 3, 2, 2]


def test_zorder_layout_prunes_files(tmp_path, ray_session):
    import os

    from greenex_py_ray.sources.layout import (
        ensure_zorder_layout,
        zorder_bbox_scan,
    )

    root = ensure_zorder_layout("/root/testdata/sf0.001", cell_size=500.0)
    total = len([f for f in os.listdir(root) if f.endswith(".parquet")])
    # a small bbox touches far fewer blocks than exist
    out = zorder_bbox_scan(root, 4000, 6000, 9000, 11000,
                           cell_size=500.0).to_pandas()
    ix = np.arange(4000 // 500, 9000 // 500 + 1)
    iy = np.arange(6000 // 500, 11000 // 500 + 1)
    from greenex_py_ray import cells
    gx, gy = np.meshgrid(ix, iy, indexing="ij")
    blocks = np.unique((cells.zorder(gx.ravel(), gy.ravel())
                        >> np.uint64(4)).astype(np.int64))
    assert len(blocks) < total          # genuinely pruned
    # exact result parity with a full scan + filter
    import pyarrow.parquet as pq
    from greenex_py_ray.sources import driver_tables as dt
    k = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id"]).column("doc_id").to_numpy()
    x, y = dt.derive_xy(k.astype(np.int64))
    m = (x >= 4000) & (x <= 9000) & (y >= 6000) & (y <= 11000)
    assert set(out["doc_id"]) == set(k[m])
