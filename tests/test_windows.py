"""stages/windows: conversion funnel + sliding row-frame aggregates
against straight-line brute-force oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from greenex_py_ray.stages.windows import funnel, rolling_window, WIN_Q


def _events(n=400, users=9, seed=7):
    rng = np.random.default_rng(seed)
    ts = rng.integers(0, 10**9, n) * 1000  # microseconds
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(ts, unit="us").astype("datetime64[us]"),
        "user_id": rng.integers(0, users, n).astype(np.int64),
        "event_type": rng.choice(
            ["signup", "click", "purchase", "view"], n),
        "value": np.round(rng.uniform(-5, 5, n), 3),
    })


def _brute_funnel(df, steps):
    out = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values("ts", kind="stable")
        t = g["ts"].astype("int64").to_numpy()
        ty = g["event_type"].to_numpy()
        thr, done = -1, 0
        for s in steps:
            cand = t[(ty == s) & (t > thr)]
            if len(cand) == 0:
                break
            thr = cand.min()
            done += 1
        out.append((uid, done, thr if done == len(steps) else None))
    return {u: (d, c) for u, d, c in out}


def test_funnel_matches_bruteforce(ray_session):
    df = _events()
    steps = ["signup", "click", "purchase"]
    got = funnel(ray.data.from_pandas(df), steps).to_pandas()
    want = _brute_funnel(df, steps)
    assert len(got) == len(want)
    for r in got.itertuples():
        d, c = want[r.user_id]
        assert r.steps_completed == d
        if c is None:
            assert pd.isna(r.complete_us)
        else:
            assert r.complete_us == c


def test_funnel_strictness_and_partial(ray_session):
    # same-timestamp step events do NOT chain (strict >); user 2 stalls
    ts = pd.to_datetime([100, 100, 200, 300, 100, 150],
                        unit="us").astype("datetime64[us]")
    df = pd.DataFrame({
        "event_id": np.arange(6, dtype=np.int64),
        "ts": ts,
        "user_id": np.array([1, 1, 1, 1, 2, 2], dtype=np.int64),
        "event_type": ["signup", "click", "click", "purchase",
                       "signup", "signup"],
        "value": np.zeros(6),
    })
    got = funnel(ray.data.from_pandas(df),
                 ["signup", "click", "purchase"]).to_pandas().set_index(
                     "user_id")
    assert got.loc[1, "steps_completed"] == 3
    assert got.loc[1, "complete_us"] == 300
    assert got.loc[2, "steps_completed"] == 1
    assert pd.isna(got.loc[2, "complete_us"])


def test_rolling_window_matches_pandas(ray_session):
    df = _events(300, users=5, seed=11)
    w = 5
    got = rolling_window(ray.data.from_pandas(df), w).to_pandas()
    got = got.set_index("event_id").sort_index()
    df2 = df.copy()
    df2["ts_us"] = df2["ts"].astype("int64")
    df2["vq"] = np.round(df2["value"].to_numpy() * WIN_Q).astype(np.int64)
    df2 = df2.sort_values(["user_id", "ts_us", "event_id"],
                          kind="stable")
    exp_n = df2.groupby("user_id")["vq"].rolling(w, min_periods=1)
    exp = df2.assign(
        n_frame=exp_n.count().to_numpy().astype(np.int64),
        sum_q=exp_n.sum().to_numpy().astype(np.int64),
    ).set_index("event_id")
    assert len(got) == len(exp)
    assert (got["n_frame"] == exp["n_frame"].sort_index()).all()
    assert (got["sum_q"] == exp["sum_q"].sort_index()).all()


def test_cohort_retention_matches_pandas(ray_session):
    from greenex_py_ray.stages.windows import cohort_retention

    df = _events(500, users=12, seed=3)
    got = cohort_retention(ray.data.from_pandas(df)).to_pandas()
    d = df.assign(day=df["ts"].astype("int64") // 86_400_000_000)
    d["cohort_day"] = d.groupby("user_id")["day"].transform("min")
    d["day_offset"] = d["day"] - d["cohort_day"]
    exp = (d.drop_duplicates(["user_id", "day_offset"])
           .groupby(["cohort_day", "day_offset"]).size()
           .rename("n_users").reset_index())
    got = got.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
    exp = exp.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["cohort_day"].to_numpy() == exp["cohort_day"].to_numpy()).all()
    assert (got["day_offset"].to_numpy() == exp["day_offset"].to_numpy()).all()
    assert (got["n_users"].to_numpy() == exp["n_users"].to_numpy()).all()
    # every user contributes exactly one offset-0 row
    z = got[got["day_offset"] == 0]
    assert z["n_users"].sum() == df["user_id"].nunique()


def test_resample_fill_gaps_and_sums(ray_session):
    from greenex_py_ray.stages.windows import resample_fill

    # two keys; key 'a' has a 3-unit hole, key 'b' a single unit
    ts = pd.to_datetime(
        [0, 1, 10, 42, 43], unit="s").astype("datetime64[us]")
    df = pd.DataFrame({
        "event_type": ["a", "a", "a", "a", "b"],
        "ts": ts,
        "value": [1.5, 2.25, -0.5, 4.0, 7.125],
    })
    got = resample_fill(ray.data.from_pandas(df), unit_us=10_000_000
                        ).to_pandas().sort_values(
        ["event_type", "unit"]).reset_index(drop=True)
    a = got[got["event_type"] == "a"]
    assert list(a["unit"]) == [0, 1, 2, 3, 4]          # gap-filled
    assert list(a["n_events"]) == [2, 1, 0, 0, 1]
    assert list(a["sum_q"]) == [3_750_000, -500_000, 0, 0, 4_000_000]
    b = got[got["event_type"] == "b"]
    assert list(b["unit"]) == [4]
    assert list(b["sum_q"]) == [7_125_000]


def test_resample_fill_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.windows import resample_fill, WIN_Q

    df = _events(400, users=6, seed=19)
    unit = 3_600_000_000
    got = resample_fill(ray.data.from_pandas(df), unit_us=unit).to_pandas()
    d = df.assign(unit=df["ts"].astype("int64") // unit,
                  vq=np.round(df["value"].to_numpy() * WIN_Q)
                  .astype(np.int64))
    for k, g in d.groupby("event_type"):
        sub = got[got["event_type"] == k].set_index("unit").sort_index()
        assert sub.index.min() == g["unit"].min()
        assert sub.index.max() == g["unit"].max()
        assert len(sub) == g["unit"].max() - g["unit"].min() + 1
        agg = g.groupby("unit").agg(n=("vq", "size"), s=("vq", "sum"))
        for u in sub.index:
            if u in agg.index:
                assert sub.loc[u, "n_events"] == agg.loc[u, "n"]
                assert sub.loc[u, "sum_q"] == agg.loc[u, "s"]
            else:
                assert sub.loc[u, "n_events"] == 0
                assert sub.loc[u, "sum_q"] == 0


def test_event_transitions_tiny(ray_session):
    import pandas as pd
    import ray.data as rd

    from greenex_py_ray.stages.windows import event_transitions

    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 2, 3],
        "ts": pd.to_datetime([
            "2024-01-01 00:00", "2024-01-01 01:00", "2024-01-01 02:00",
            "2024-01-01 00:30", "2024-01-01 00:30",  # tie -> event_id order
            "2024-01-01 05:00",
        ]),
        "event_type": ["a", "b", "a", "b", "a", "a"],
        "event_id": [10, 11, 12, 21, 20, 30],
    })
    out = event_transitions(rd.from_pandas(df).repartition(3)).to_pandas()
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}
    # user1: a->b, b->a; user2 (ts tie, id 20 first): a->b; user3: none
    assert got == {("a", "b"): 2, ("b", "a"): 1}


def test_cap_per_group_deterministic(ray_session):
    import pandas as pd
    import ray.data as rd

    from greenex_py_ray.stages.sampling import cap_per_group, hash_rank

    df = pd.DataFrame({
        "g": np.repeat(["x", "y"], [50, 3]),
        "k": np.arange(53, dtype=np.int64),
    })
    out = cap_per_group(rd.from_pandas(df).repartition(5),
                        "g", "k", cap=4).to_pandas()
    # hot group capped, small group untouched
    assert len(out[out.g == "x"]) == 4
    assert len(out[out.g == "y"]) == 3
    # exactly the 4 smallest hash-ranks of group x, regardless of split
    kx = np.arange(50, dtype=np.int64)
    expect = set(kx[np.lexsort((kx, hash_rank(kx)))][:4])
    assert set(out[out.g == "x"]["k"]) == expect
