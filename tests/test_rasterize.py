"""Vector→raster burn vs a brute-force global pixel grid."""

import numpy as np
import pyarrow as pa

import ray
import ray.data


def test_rasterize_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.rasterize import rasterize_coverage

    rng = np.random.default_rng(13)
    n = 120
    res, px = 10.0, 32
    cx = rng.uniform(-500, 3000, n)
    cy = rng.uniform(-500, 3000, n)
    w = rng.uniform(5, 400, n)
    h = rng.uniform(5, 400, n)
    rects = pa.table({
        "x0": pa.array(cx - w), "y0": pa.array(cy - h),
        "x1": pa.array(cx + w), "y1": pa.array(cy + h),
    })
    got = (rasterize_coverage(ray.data.from_arrow(rects).repartition(3),
                              res=res, tile_px=px)
           .to_pandas().sort_values(["tix", "tiy"]).reset_index(drop=True))

    # brute force: one huge boolean grid over the covered extent
    c0 = np.ceil((cx - w) / res - 0.5).astype(np.int64)
    c1 = np.ceil((cx + w) / res - 0.5).astype(np.int64) - 1
    r0 = np.ceil((cy - h) / res - 0.5).astype(np.int64)
    r1 = np.ceil((cy + h) / res - 0.5).astype(np.int64) - 1
    ok = (c1 >= c0) & (r1 >= r0)
    lo_c, hi_c = c0[ok].min(), c1[ok].max()
    lo_r, hi_r = r0[ok].min(), r1[ok].max()
    grid = np.zeros((hi_r - lo_r + 1, hi_c - lo_c + 1), dtype=bool)
    for a, b, c, d in zip(c0[ok], c1[ok], r0[ok], r1[ok]):
        grid[c - lo_r:d - lo_r + 1, a - lo_c:b - lo_c + 1] = True
    rr, cc = np.nonzero(grid)
    tix = (cc + lo_c) // px
    tiy = (rr + lo_r) // px
    B = np.int64(1 << 20)  # bias: negative tiy must not alias tix
    key = (tix + B) * np.int64(1 << 32) + (tiy + B)
    uk, cnt = np.unique(key, return_counts=True)
    exp = {(int(k // (1 << 32) - B), int(k % (1 << 32) - B)): int(c)
           for k, c in zip(uk, cnt)}
    gmap = {(int(r.tix), int(r.tiy)): int(r.n_covered)
            for r in got.itertuples()}
    assert gmap == exp
