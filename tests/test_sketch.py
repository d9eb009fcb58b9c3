"""HyperLogLog sketch tests: register exactness, merge invariance,
estimator accuracy."""

import numpy as np
import pyarrow as pa

import ray.data as rd

from greenex_py_ray.stages.sketch import (
    _bit_length_u64,
    hll_estimate,
    hll_registers,
)


def test_bit_length_exact_at_float_boundaries():
    v = np.array([0, 1, 2, 3, (1 << 56) - 1, 1 << 56,
                  (1 << 63) + 5], dtype=np.uint64)
    assert _bit_length_u64(v).tolist() == [0, 1, 2, 2, 56, 57, 64]


def _reg_table(ds):
    rows = hll_registers(ds, "v").take_all()
    return {r["register"]: r["rho"] for r in rows}


def test_hll_partition_invariance():
    vals = [f"item-{i}" for i in range(5000)]
    a = _reg_table(rd.from_items([{"v": v} for v in vals],
                                 override_num_blocks=1))
    b = _reg_table(rd.from_items([{"v": v} for v in vals],
                                 override_num_blocks=23))
    assert a == b
    # duplicates never change a register
    c = _reg_table(rd.from_items([{"v": v} for v in vals * 3],
                                 override_num_blocks=7))
    assert a == c


def test_hll_estimate_accuracy():
    n = 20_000
    ds = rd.from_items([{"v": f"token-{i}"} for i in range(n)],
                       override_num_blocks=8)
    regs = hll_registers(ds, "v").take_all()
    tbl = pa.table({
        "register": pa.array([r["register"] for r in regs], pa.int64()),
        "rho": pa.array([r["rho"] for r in regs], pa.int64()),
    })
    est = hll_estimate(tbl, p=8)
    # standard error for m=256 is ~6.5%; allow 3 sigma
    assert abs(est - n) / n < 0.2


def test_cms_exact_counts_and_bounds(ray_session):
    from greenex_py_ray.stages.sketch import cms_query, cms_registers
    from greenex_py_ray.stages.text import hash_string_array

    rng = np.random.default_rng(17)
    # zipf-ish stream: token-0 is hot, long tail
    vocab = [f"tok{i}" for i in range(400)]
    freq = (5000 / (1 + np.arange(400))).astype(int) + 1
    stream = np.repeat(np.array(vocab, dtype=object), freq)
    rng.shuffle(stream)
    n_total = len(stream)
    ds = rd.from_arrow(pa.table({"v": pa.array(list(stream))}))
    ds = ds.repartition(7)
    regs = cms_registers(ds, "v").to_pandas()
    # grid mass conservation: every row sums to the stream length
    for r in range(4):
        assert regs[regs["row"] == r]["n"].sum() == n_total
    # point queries: never under, over by at most the d-min bound
    qh = hash_string_array(pa.array(vocab))
    est = cms_query(pa.Table.from_pandas(regs), qh, d=4, log2w=6)
    assert (est >= freq).all()
    # the hot token's estimate is within eN of truth (e = e/w ~ 4.2%)
    assert est[0] - freq[0] <= 0.1 * n_total


def test_cms_partition_invariance(ray_session):
    from greenex_py_ray.stages.sketch import cms_registers

    vals = [f"item-{i % 97}" for i in range(4000)]

    def grid(nblocks):
        rows = cms_registers(
            rd.from_items([{"v": v} for v in vals],
                          override_num_blocks=nblocks), "v").take_all()
        return {(r["row"], r["cell"]): r["n"] for r in rows}

    assert grid(1) == grid(13)


def test_bloom_no_false_negatives_and_fpr(ray_session):
    import ray.data as rd

    from greenex_py_ray.stages.sketch import (
        bloom_bits,
        bloom_positions,
        bloom_probe,
    )
    from greenex_py_ray.stages.text import hash_string_array

    members = [f"member-{i}" for i in range(200)]
    tbl = pa.table({"tok": pa.array(members)})
    bits = set(bloom_bits(rd.from_arrow(tbl).repartition(4), "tok")
               .to_pandas()["pos"])
    hm = hash_string_array(pa.array(members))
    assert bloom_probe(bits, hm).all()      # zero false negatives
    probes = pa.array([f"absent-{i}" for i in range(2000)])
    fp = bloom_probe(bits, hash_string_array(probes)).mean()
    # m=1024, k=4, n=200 -> theoretical FPR ~ (1-e^(-kn/m))^k ~ 0.09
    assert fp < 0.2
    # positions are stable + in range
    pos = bloom_positions(hm)
    assert ((pos >= 0) & (pos < 1024)).all()


def test_kmv_bottomk_and_estimate(ray_session):
    import ray.data as rd

    from greenex_py_ray.stages.sketch import kmv_bottomk, kmv_estimate
    from greenex_py_ray.stages.text import hash_string_array
    from greenex_py_ray.stages.sketch import _PHI64

    n_distinct = 5000
    toks = [f"tok-{i % n_distinct}" for i in range(20000)]
    ds = rd.from_arrow(pa.table({"tok": pa.array(toks)})).repartition(8)
    out = kmv_bottomk(ds, "tok").to_pandas()
    assert len(out) == 64
    assert out["h"].is_monotonic_increasing
    # matches the driver-side bottom-64 of the full distinct hash set
    h = hash_string_array(pa.array([f"tok-{i}" for i in range(n_distinct)]))
    mixed = (h.astype(np.uint64) * _PHI64)
    signed = np.sort((mixed - np.uint64(1 << 63)).view(np.int64))
    assert (out["h"].to_numpy() == signed[:64]).all()
    est = kmv_estimate(out["h"].to_numpy(), k=64)
    assert abs(est - n_distinct) / n_distinct < 0.35   # ~1/sqrt(63) noise
    # under-full sample -> exact count
    small = kmv_bottomk(rd.from_arrow(pa.table(
        {"tok": pa.array(["a", "b", "a"])})), "tok").to_pandas()
    assert kmv_estimate(small["h"].to_numpy(), k=64) == 2.0
