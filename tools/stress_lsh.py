"""1M-vector LSH-ANN stress: wall-time + recall vs brute force.

Random embeddings are LSH's worst case (neighbours barely beat
chance), so this measures honest lower-bound recall and the candidate
ratio; clustered-data recall is pinned in tests.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pyarrow as pa

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from greenex_py_ray.stages import similarity  # noqa: E402


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    dim, k = 64, 10
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    rng = np.random.RandomState(9)
    V = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array(list(V),
                                          type=pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl).repartition(64).materialize()
    queries = {"query_id": [0, 1, 2], "vectors": V[:3].astype(np.float64)}

    t0 = time.time()
    exact = similarity.brute_force_topk(ds, queries, k, dim).to_pandas()
    t_bf = time.time() - t0

    t0 = time.time()
    approx = similarity.lsh_topk(ds, queries, k, dim,
                                 n_planes=32, n_bands=4).to_pandas()
    t_lsh = time.time() - t0

    recalls = []
    for q in queries["query_id"]:
        e = set(exact[exact.query_id == q]["vec_id"])
        a = set(approx[approx.query_id == q]["vec_id"])
        recalls.append(len(e & a) / len(e))
    print({"n": n, "bf_sec": round(t_bf, 1), "lsh_sec": round(t_lsh, 1),
           "bf_vecs_per_s": round(n / t_bf),
           "lsh_vecs_per_s": round(n / t_lsh),
           "recall_at_10": [round(r, 2) for r in recalls],
           "self_hit": all(
               approx[approx.query_id == q].iloc[0]["vec_id"] == q
               for q in queries["query_id"])})
    ray.shutdown()


if __name__ == "__main__":
    main()
