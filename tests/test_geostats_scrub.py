"""Round-4 stages: IDW / haversine geostatistics, PII redaction,
repetition scoring and benchmark decontamination — brute-force
python/numpy oracles on toy inputs."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data


def _stations(n=20, seed=5):
    rng = np.random.default_rng(seed)
    return pa.table({
        "sx": pa.array(rng.uniform(0, 1000, n)),
        "sy": pa.array(rng.uniform(0, 1000, n)),
        "val": pa.array(np.round(rng.uniform(0, 100, n), 3)),
    })


def test_idw_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.geostats import IDWInterpolator

    st = _stations()
    rng = np.random.default_rng(7)
    px = rng.uniform(0, 1000, 200)
    py = rng.uniform(0, 1000, 200)
    pts = pa.table({"pid": pa.array(np.arange(200, dtype=np.int64)),
                    "x": pa.array(px), "y": pa.array(py)})
    radius = 300.0

    ds = ray.data.from_arrow(pts).repartition(8)
    out = ds.map_batches(
        IDWInterpolator,
        fn_constructor_kwargs=dict(stations_ref=ray.put(st), radius=radius),
        batch_format="pyarrow", concurrency=1,
    ).to_pandas().sort_values("pid").reset_index(drop=True)

    sx = st.column("sx").to_numpy()
    sy = st.column("sy").to_numpy()
    val = st.column("val").to_numpy()
    for i in range(200):
        d2 = (px[i] - sx) ** 2 + (py[i] - sy) ** 2
        within = d2 <= radius * radius
        assert out["n_within"][i] == within.sum()
        if within.sum() == 0:
            assert pd.isna(out["idw"][i])
        else:
            w = 1.0 / (d2[within] + 1.0)
            exp = (w * val[within]).sum() / w.sum()
            # quantized sums agree with the float ratio to ~1e-6 rel
            assert abs(out["idw"][i] - exp) < 1e-4


def test_haversine_nearest_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.geostats import (HaversineNearest,
                                                haversine_km)

    rng = np.random.default_rng(11)
    fac = pa.table({
        "fid": pa.array(np.arange(10, dtype=np.int64)),
        "flon": pa.array(rng.uniform(-180, 180, 10)),
        "flat": pa.array(rng.uniform(-80, 80, 10)),
    })
    lon = rng.uniform(-180, 180, 300)
    lat = rng.uniform(-80, 80, 300)
    pts = pa.table({"pid": pa.array(np.arange(300, dtype=np.int64)),
                    "lon": pa.array(lon), "lat": pa.array(lat)})

    out = (ray.data.from_arrow(pts).repartition(4)
           .map_batches(HaversineNearest,
                        fn_constructor_kwargs=dict(facilities_ref=ray.put(fac)),
                        batch_format="pyarrow", concurrency=1)
           .to_pandas().sort_values("pid").reset_index(drop=True))

    flon = fac.column("flon").to_numpy()
    flat = fac.column("flat").to_numpy()
    for i in range(300):
        d = haversine_km(lon[i], lat[i], flon, flat)
        j = int(np.argmin(np.round(d, 6)))
        assert out["fid"][i] == j
        assert abs(out["dist_km"][i] - d[j]) < 1e-3


def test_haversine_km_known_value():
    from greenex_py_ray.stages.geostats import haversine_km

    # London (51.5072 N, -0.1276 E) -> Paris (48.8566 N, 2.3522 E):
    # great-circle ~343.5 km (R=6371)
    d = float(haversine_km(-0.1276, 51.5072, 2.3522, 48.8566))
    assert math.isclose(d, 343.5, abs_tol=1.0)


def test_pii_redact_batch():
    from greenex_py_ray.stages.scrub import pii_redact_batch

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "mail me at a.b+c@example.org or x@y.io today",
            "call +1-555-0100-999 or 12345678901",
            None,
            "no pii here",
        ]),
    })
    out = pii_redact_batch(t).to_pydict()
    assert out["n_emails"] == [2, 0, 0, 0]
    assert out["n_phones"] == [0, 2, 0, 0]
    assert out["red_text"][0] == "mail me at <EMAIL> or <EMAIL> today"
    assert out["red_text"][1] == "call <PHONE> or <PHONE>"
    assert out["red_text"][2] == ""
    assert out["red_text"][3] == "no pii here"


def test_pii_phone_not_counted_inside_email():
    from greenex_py_ray.stages.scrub import pii_redact_batch

    # digits in the local part vanish with the email redaction, so the
    # phone pass can't double count them
    t = pa.table({"text": pa.array(["write 123456789012@example.com"])})
    out = pii_redact_batch(t).to_pydict()
    assert out["n_emails"] == [1]
    assert out["n_phones"] == [0]
    assert out["red_text"] == ["write <EMAIL>"]


def test_repetition_batch():
    from greenex_py_ray.stages.scrub import repetition_batch

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["a a a a", "one two three four", ""],
    })
    out = repetition_batch(df)
    assert list(out["n_tokens"]) == [4, 4, 0]
    assert list(out["n_distinct"]) == [1, 4, 0]
    assert list(out["dup_frac"]) == [0.75, 0.0, 0.0]
    assert list(out["top_frac"]) == [1.0, 0.25, 0.0]


def test_decontaminate_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.decon import decontaminate, ngram_strings

    bench = pd.Series(["the quick brown fox jumps",
                       "pack my box with five dozen"])
    corpus = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "the quick brown fox sleeps",      # shares 'the quick brown',
                                               # 'quick brown fox'
            "my box with five things",         # shares 'my box with',
                                               # 'box with five'
            "totally unrelated words here",
            "the quick brown fox jumps",       # full overlap: 3 grams
            "",
            "quick brown fox the quick brown", # 2 distinct shared grams
        ],
    })
    ds = ray.data.from_pandas(corpus).repartition(3)
    out = decontaminate(ds, bench, n=3).to_pandas()
    got = dict(zip(out["doc_id"].astype(int), out["n_shared"].astype(int)))
    assert got == {0: 2, 1: 2, 3: 3, 5: 2}

    # ngram helper: doc boundaries never produce cross-doc grams
    parent, grams = ngram_strings(pd.Series(["a b", "c d e"]), 2)
    assert list(parent) == [0, 1, 1]
    assert list(grams) == ["a b", "c d", "d e"]


def test_hexbin_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.geostats import hex_axial, hexbin

    rng = np.random.default_rng(11)
    n = 5000
    x = rng.uniform(0, 20000, n)
    y = rng.uniform(0, 20000, n)
    size = 750.0
    pts = pa.table({"x": pa.array(x), "y": pa.array(y)})

    out = (hexbin(ray.data.from_arrow(pts).repartition(8), size)
           .to_pandas().sort_values(["hq", "hr"]).reset_index(drop=True))

    hq, hr = hex_axial(x, y, size)
    exp = (pd.DataFrame({"hq": hq, "hr": hr})
           .groupby(["hq", "hr"]).size().rename("n").reset_index()
           .sort_values(["hq", "hr"]).reset_index(drop=True))
    assert out["n"].sum() == n
    pd.testing.assert_frame_equal(
        out[["hq", "hr", "n"]].astype({"n": "int64"}), exp)


def test_hex_axial_rounding_invariant():
    """Cube-rounded coordinates satisfy hq + hr + hs == 0 and every
    point maps to the hex whose centre is nearest in axial space."""
    from greenex_py_ray.stages.geostats import hex_axial

    rng = np.random.default_rng(3)
    x = rng.uniform(-5000, 5000, 2000)
    y = rng.uniform(-5000, 5000, 2000)
    size = 400.0
    hq, hr = hex_axial(x, y, size)
    # centre of hex (q, r) in pixel space (pointy-top axial basis)
    cx = size * (np.sqrt(3.0) * hq + np.sqrt(3.0) / 2.0 * hr)
    cy = size * (1.5 * hr)
    d = np.hypot(x - cx, y - cy)
    # every point lies within the hex circumradius of its bin centre
    assert (d <= size * 1.0000001).all()


def test_line_dedup_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.scrub import line_dedup

    rng = np.random.default_rng(17)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    boiler = "xx yy zz"  # a line every doc shares
    texts, n = [], 40
    for i in range(n):
        words = list(rng.choice(vocab, size=rng.integers(5, 20)))
        # insert the boilerplate line at a 3-token boundary
        words = words[: (len(words) // 3) * 3] + boiler.split() + words[:3]
        texts.append(" ".join(words))
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "text": pa.array(texts)})
    width, min_docs = 3, 4
    out = (line_dedup(ray.data.from_arrow(tbl).repartition(5),
                      width=width, min_docs=min_docs)
           .to_pandas().set_index("doc_id").sort_index())

    # brute force: line → distinct doc count, then rewrite
    from collections import defaultdict
    docs_of = defaultdict(set)
    def lines_of(t):
        w = t.split(" ")
        return [" ".join(w[i:i + width]) for i in range(0, len(w), width)]
    for i, t in enumerate(texts):
        for ln in lines_of(t):
            docs_of[ln].add(i)
    banned = {ln for ln, d in docs_of.items() if len(d) >= min_docs}
    assert boiler in banned
    for i, t in enumerate(texts):
        lns = lines_of(t)
        kept = [ln for ln in lns if ln not in banned]
        assert out.loc[i, "clean_text"] == " ".join(kept)
        assert out.loc[i, "n_lines"] == len(lns)
        assert out.loc[i, "n_removed"] == len(lns) - len(kept)


def test_line_dedup_all_removed(ray_session):
    """Documents made entirely of boilerplate collapse to ''."""
    from greenex_py_ray.stages.scrub import line_dedup

    tbl = pa.table({"doc_id": pa.array(np.arange(6, dtype=np.int64)),
                    "text": pa.array(["p q r"] * 6)})
    out = (line_dedup(ray.data.from_arrow(tbl), width=3, min_docs=4)
           .to_pandas())
    assert (out["clean_text"] == "").all()
    assert (out["n_removed"] == 1).all()


def test_tile_pyramid_invariants(ray_session):
    from greenex_py_ray.stages.geostats import tile_pyramid

    rng = np.random.default_rng(13)
    n = 4000
    # include points west/south of the origin to exercise negative cells
    x = rng.uniform(-3000, 9000, n)
    y = rng.uniform(-3000, 9000, n)
    pts = pa.table({"x": pa.array(x), "y": pa.array(y)})
    out = (tile_pyramid(ray.data.from_arrow(pts).repartition(6), 500.0, 3)
           .to_pandas())

    # every zoom conserves the total count
    assert (out.groupby("zoom")["n"].sum() == n).all()
    # finest zoom matches a direct bincount
    fine = out[out["zoom"] == 2].set_index(["cx", "cy"])["n"]
    import collections
    exp = collections.Counter(
        zip(np.floor(x / 500.0).astype(int), np.floor(y / 500.0).astype(int)))
    assert dict(fine) == dict(exp)
    # each parent equals the sum of its children (floor-div toward -inf)
    for z in (1, 0):
        child = out[out["zoom"] == z + 1].copy()
        child["px"] = np.floor(child["cx"] / 2).astype(int)
        child["py"] = np.floor(child["cy"] / 2).astype(int)
        rolled = child.groupby(["px", "py"])["n"].sum()
        parent = out[out["zoom"] == z].set_index(["cx", "cy"])["n"]
        assert dict(rolled) == dict(parent)


def test_filter_chain_rules_fire(ray_session):
    from greenex_py_ray.stages.scrub import filter_chain_batch

    docs = {
        # long, varied, stopword-rich → keep
        0: "the quick brown fox jumps over a lazy dog while it runs "
           "through the forest and every creature watches in awe today",
        1: "tiny doc",                                   # too_short (1)
        2: " ".join(["spam"] * 40),  # repetitive+dominated+low entropy
        3: "alpha beta gamma delta epsilon zeta eta theta iota kappa "
           "lambda mu nu xi omicron pi rho sigma tau upsilon",  # no stopwords (2)
    }
    tbl = pa.table({"doc_id": pa.array(list(docs), pa.int64()),
                    "text": pa.array(list(docs.values()))})
    out = filter_chain_batch(tbl).to_pandas().set_index("doc_id")
    assert bool(out.loc[0, "keep"])
    assert out.loc[1, "reasons"] & 1
    assert out.loc[2, "reasons"] & 4 and out.loc[2, "reasons"] & 8 \
        and out.loc[2, "reasons"] & 16
    assert out.loc[3, "reasons"] & 2 and not (out.loc[3, "reasons"] & 1)
    assert not bool(out.loc[2, "keep"])


@pytest.mark.parametrize("shift", [0.0, -500.0],
                         ids=["origin", "negative"])
def test_gi_star_matches_bruteforce(ray_session, shift):
    from greenex_py_ray.stages.geostats import getis_ord_gi_star

    rng = np.random.default_rng(31)
    n = 800
    # clustered points: two hot blobs + uniform background; a negative
    # shift puts half the cells west/south of the origin
    x = shift + np.concatenate([rng.normal(100, 30, 200),
                                rng.normal(900, 25, 200),
                                rng.uniform(0, 1000, 400)])
    y = shift + np.concatenate([rng.normal(100, 30, 200),
                                rng.normal(900, 25, 200),
                                rng.uniform(0, 1000, 400)])
    cell = 100.0
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y})).repartition(4)
    got = getis_ord_gi_star(ds, cell).to_pandas()
    got = got.set_index(["ix", "iy"]).sort_index()

    # brute force: textbook Gi* over occupied cells, queen + self
    cx = np.floor(x / cell).astype(np.int64)
    cy = np.floor(y / cell).astype(np.int64)
    df = pd.DataFrame({"ix": cx, "iy": cy})
    c = df.groupby(["ix", "iy"]).size().rename("v").reset_index()
    nn = len(c)
    vals = c["v"].to_numpy(np.float64)
    xbar = vals.mean()
    s = math.sqrt((vals ** 2).mean() - xbar ** 2)
    assert len(got) == nn
    for i in range(nn):
        m = ((np.abs(c["ix"].to_numpy() - c["ix"].iloc[i]) <= 1)
             & (np.abs(c["iy"].to_numpy() - c["iy"].iloc[i]) <= 1))
        w = m.sum()
        nx = vals[m].sum()
        den = s * math.sqrt((nn * w - w * w) / (nn - 1))
        exp = (nx - xbar * w) / den
        r = got.loc[(c["ix"].iloc[i], c["iy"].iloc[i])]
        assert r["n_nbr"] == w
        assert abs(r["gi_star"] - exp) < 1e-9
    # the two blob centres are hot (gi* strongly positive)
    hot = got["gi_star"].max()
    assert hot > 3.0


def test_dup_window_flags_paths_agree_and_oracle():
    """Broadcast and semi-join delivery paths produce identical per-doc
    duplicate-window counts, matching a brute-force python oracle;
    short/empty docs get zero windows."""
    from greenex_py_ray.stages.scrub import dup_window_flags

    docs = [
        "a b c d e f",         # shares the full 4-window run with doc 2
        "x y z a b c d e f",   # contains doc 0's windows
        "p q r s t u v w",     # unique
        "a b",                 # shorter than width -> 0 windows
        "",                    # empty -> 0 windows
        "p q r s t u v w",     # exact copy of doc 2
    ]
    width = 4
    tbl = pa.table({"doc_id": list(range(len(docs))), "text": docs})
    ds = ray.data.from_arrow(tbl)

    out_b = (dup_window_flags(ds, width=width).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    out_j = (dup_window_flags(ray.data.from_arrow(tbl), width=width,
                              max_broadcast=0)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out_b, out_j[out_b.columns])

    # brute-force oracle
    from collections import Counter
    wins = []
    for i, t in enumerate(docs):
        toks = t.lower().strip().split(" ")
        wins.append([" ".join(toks[j:j + width])
                     for j in range(max(len(toks) - width + 1, 0))])
    docfreq = Counter()
    for i, ws in enumerate(wins):
        for w in set(ws):
            docfreq[w] += 1
    exp_nwin = [len(ws) for ws in wins]
    exp_ndup = [sum(1 for w in ws if docfreq[w] >= 2) for ws in wins]

    assert out_b["n_windows"].tolist() == exp_nwin
    assert out_b["n_dup"].tolist() == exp_ndup
    assert out_b["keep"].tolist() == [n == 0 for n in exp_ndup]
    # docs 0,1 overlap; 2 and 5 are exact copies; 3,4 have no windows
    assert out_b["keep"].tolist() == [False, False, False, True, True, False]


def test_group_convex_hull():
    """Hull keeps vertices + collinear boundary points, drops interior;
    1/2-point groups pass through; multi-batch partial combine exact."""
    from greenex_py_ray.stages.geostats import _hull_points, group_convex_hull

    # unit square + edge midpoint + interior point (integer coords)
    xs = np.array([0, 4, 4, 0, 2, 2], dtype=np.int64)
    ys = np.array([0, 0, 4, 4, 0, 2], dtype=np.int64)
    hx, hy = _hull_points(xs, ys)
    got = set(zip(hx.tolist(), hy.tolist()))
    assert got == {(0, 0), (4, 0), (4, 4), (0, 4), (2, 0)}  # (2,2) interior

    # all collinear -> everything on the hull
    hx, hy = _hull_points(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]))
    assert len(hx) == 4

    # distributed: group 1 = scaled square (micro-units), group 2 = pair
    n = 40
    rng = np.random.default_rng(7)
    px = np.concatenate([rng.uniform(0, 1, n), [0, 0, 1, 1], [5.0, 6.0]])
    py = np.concatenate([rng.uniform(0, 1, n), [0, 1, 0, 1], [5.0, 6.0]])
    key = np.array([1] * (n + 4) + [2, 2], dtype=np.int64)
    tbl = pa.table({"cell": key, "x": px, "y": py})
    ds = ray.data.from_arrow(tbl).repartition(5)  # force multi-batch partials
    out = group_convex_hull(ds, key_col="cell").to_pandas()
    g2 = out[out.cell == 2]
    assert set(zip(g2.xq, g2.yq)) == {(5000, 5000), (6000, 6000)}

    g1 = set(zip(out[out.cell == 1].xq, out[out.cell == 1].yq))
    # single-process oracle over all group-1 points at once
    ox, oy = _hull_points(np.floor(px[:n + 4] * 1000).astype(np.int64),
                          np.floor(py[:n + 4] * 1000).astype(np.int64))
    assert g1 == set(zip(ox.tolist(), oy.tolist()))
    # the 4 square corners are certainly on the hull
    for c in [(0, 0), (0, 1000), (1000, 0), (1000, 1000)]:
        assert c in g1


def test_ripley_pair_counts_brute():
    """PBSM pair counts equal the brute-force ordered-pair count at
    every radius, including cross-cell pairs and coincident points."""
    from greenex_py_ray.stages.geostats import ripley_pair_counts

    rng = np.random.default_rng(9)
    n = 200
    x = rng.uniform(0, 3000, n)
    y = rng.uniform(0, 3000, n)
    x[5], y[5] = x[4], y[4]            # coincident distinct points
    x[7], y[7] = 799.9, 100.0          # near a cell boundary at rmax=800
    x[8], y[8] = 800.1, 100.0
    x[9], y[9] = -50.0, -50.0          # negative cell indices
    x[10], y[10] = -900.0, -40.0       # pair across negative cells
    radii = [100.0, 400.0, 800.0]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "x": pa.array(x), "y": pa.array(y)})).repartition(4)
    out = (ripley_pair_counts(ds, radii).to_pandas()
           .sort_values("r").reset_index(drop=True))
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    for i, r in enumerate(radii):
        assert out.n_pairs[i] == int((d2 <= r * r).sum()), r


def test_gravity_access_formula():
    from greenex_py_ray.stages.access import GRAVITY_Q, gravity_access

    fac = pa.table({
        "gs_id": pa.array([1], pa.int64()),
        "centroid_x": [0.0], "centroid_y": [0.0],
        "x0": [0.0], "y0": [0.0], "x1": [30.0], "y1": [10.0],  # S=300
    })
    poi = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                    "x": [400.0, 9999.0], "y": [0.0, 0.0]})
    out = (gravity_access(ray.data.from_arrow(poi), fac, theta=400.0,
                          cutoff=1500.0).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # d=theta → weight = S*1e6/2
    assert out.access_q[0] == round(300 * GRAVITY_Q / 2.0)
    assert out.n_fac.tolist() == [1, 0] and out.access_q[1] == 0


def test_local_moran_checkerboard_negative():
    """Under QUEEN weights a checkerboard's interior local I is exactly
    0 (the 4 rook neighbors' dissimilarity cancels against the 4
    same-parity diagonals) — an exactness check the integer pipeline
    must hit dead on — and the value matches the textbook formula."""
    from greenex_py_ray.stages.geostats import local_morans_i

    # 6x6 checkerboard: cells (i+j even) get 9 points, odd get 1
    xs, ys = [], []
    for i in range(6):
        for j in range(6):
            k = 9 if (i + j) % 2 == 0 else 1
            xs += [i * 100 + 50] * k
            ys += [j * 100 + 50] * k
    ds = ray.data.from_arrow(pa.table({
        "x": pa.array(np.array(xs, float)),
        "y": pa.array(np.array(ys, float))})).repartition(3)
    out = local_morans_i(ds, 100.0).to_pandas()
    assert len(out) == 36
    inner = out[(out.ix > 0) & (out.ix < 5) & (out.iy > 0) & (out.iy < 5)]
    # interior cells: all 8 neighbors; queen cancellation -> exact 0
    assert (inner.n_nbr == 8).all()
    assert (inner.local_i == 0.0).all()

    # exact-value check vs the textbook formula on one interior cell
    x = np.array([9 if (i + j) % 2 == 0 else 1
                  for i in range(6) for j in range(6)], dtype=float)
    n = 36
    z = x - x.mean()
    m2 = (z * z).sum() / n
    # cell (2,2): value 9, neighbors are the 3x3 ring around it
    idx = lambda i, j: i * 6 + j
    nbrs = [idx(i, j) for i in (1, 2, 3) for j in (1, 2, 3)
            if (i, j) != (2, 2)]
    exp = z[idx(2, 2)] * sum(z[t] for t in nbrs) / m2 / n
    got = float(out[(out.ix == 2) & (out.iy == 2)].local_i.iloc[0])
    assert np.isclose(got, exp * n, rtol=1e-12) or np.isclose(got, exp, rtol=1e-12)


def _straddling_points(seed, n=1500):
    """Points on both sides of the origin: a blob at (-300, 200), one at
    (250, -250) and a uniform background over [-1000, 1000)²."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(-300, 60, n // 3),
                        rng.normal(250, 40, n // 3),
                        rng.uniform(-1000, 1000, n - 2 * (n // 3))])
    y = np.concatenate([rng.normal(200, 60, n // 3),
                        rng.normal(-250, 40, n // 3),
                        rng.uniform(-1000, 1000, n - 2 * (n // 3))])
    return x, y


def _window(ix, iy, offsets):
    """Per cell i, the indices of the cells at ``offsets`` from it."""
    at = {(a, b): j for j, (a, b) in enumerate(zip(ix, iy))}
    return [[at[(a + dx, b + dy)] for dx, dy in offsets
             if (a + dx, b + dy) in at] for a, b in zip(ix, iy)]


def test_hex_kring_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.geostats import hex_axial, hex_kring

    x, y = _straddling_points(41)
    size = 90.0
    out = (hex_kring(ray.data.from_arrow(pa.table({"x": x, "y": y}))
                     .repartition(5), size)
           .to_pandas().set_index(["hq", "hr"]).sort_index())

    c = (pd.DataFrame(dict(zip(("hq", "hr"), hex_axial(x, y, size))))
         .groupby(["hq", "hr"]).size().rename("n").reset_index())
    assert (c["hq"] < 0).any() and (c["hr"] < 0).any()
    ring = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
    nbrs = _window(c["hq"].tolist(), c["hr"].tolist(), ring)
    n = c["n"].to_numpy()
    c["ring_n"] = [n[i] + n[j].sum() for i, j in enumerate(nbrs)]
    c["n_nbr"] = [len(j) for j in nbrs]
    exp = c.set_index(["hq", "hr"]).sort_index()
    pd.testing.assert_frame_equal(
        out[["n", "ring_n", "n_nbr"]].astype("int64"), exp)


def _square_counts(x, y, cell):
    c = (pd.DataFrame({"ix": np.floor(x / cell).astype(np.int64),
                       "iy": np.floor(y / cell).astype(np.int64)})
         .groupby(["ix", "iy"]).size().rename("n").reset_index())
    assert (c["ix"] < 0).any() and (c["iy"] < 0).any()
    return c


def test_local_morans_i_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.geostats import local_morans_i

    x, y = _straddling_points(47)
    cell = 100.0
    got = (local_morans_i(ray.data.from_arrow(pa.table({"x": x, "y": y}))
                          .repartition(5), cell)
           .to_pandas().set_index(["ix", "iy"]).sort_index())

    c = _square_counts(x, y, cell)
    v = c["n"].to_numpy(np.float64)
    z = v - v.mean()
    m2 = (z * z).sum() / len(c)
    queen = _window(c["ix"].tolist(), c["iy"].tolist(),
                    [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                     if (dx, dy) != (0, 0)])
    c["n_nbr"] = [len(j) for j in queen]
    c["local_i"] = [z[i] * z[j].sum() / m2 for i, j in enumerate(queen)]
    exp = c.set_index(["ix", "iy"]).sort_index()
    assert len(got) == len(exp)
    assert (got["n_nbr"] == exp["n_nbr"]).all()
    assert np.allclose(got["local_i"], exp["local_i"], rtol=1e-9,
                       atol=1e-12)
