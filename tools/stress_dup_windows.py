"""Corpus-scale stress for the ExactSubstr duplicate-window operator:
plant shared substrings into a synthetic corpus, run both dup-set
delivery paths (broadcast / semi-join) end-to-end, verify the planted
docs are exactly the flagged set, and time each stage.

Corpus: N docs x ~80 random tokens over a 50k-token vocabulary (random
text keeps chance window collisions at ~0, so the planted copies are
the exact ground truth).  Every 100th doc embeds the same 12-token
passage, so width-8 windows inside it appear in N/100 distinct docs.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pyarrow as pa

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from greenex_py_ray.stages.scrub import dup_window_flags  # noqa: E402


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300_000
    tokens_per_doc, vocab, width = 80, 50_000, 8
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    rng = np.random.RandomState(11)
    mat = rng.randint(0, vocab, size=(n, tokens_per_doc))
    passage = rng.randint(0, vocab, size=12)
    planted = np.arange(0, n, 100)
    mat[planted, 30:42] = passage
    toks = np.char.add("t", mat.astype("U6").reshape(-1))
    texts = [" ".join(row) for row in
             toks.reshape(n, tokens_per_doc)]
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "text": pa.array(texts)})
    ds = ray.data.from_arrow(tbl).repartition(64).materialize()
    n_windows_per_doc = tokens_per_doc - width + 1

    results = {}
    for path, max_broadcast in (("broadcast", 2_000_000), ("join", 0)):
        t0 = time.time()
        out = dup_window_flags(ds, width=width,
                               max_broadcast=max_broadcast).to_pandas()
        wall = time.time() - t0
        flagged = np.sort(out.loc[out.n_dup > 0, "doc_id"].to_numpy())
        exact = (np.array_equal(flagged, planted)
                 and (out.n_windows == n_windows_per_doc).all()
                 and (np.sort(out.doc_id.to_numpy())
                      == np.arange(n)).all())
        # each planted doc carries >= 5 fully-inside dup windows (12-8+1
        # starts; ">=" because straddle windows also duplicate when two
        # planted docs share the single random token adjacent to the
        # passage — birthday pairs: ~3000²/2/50k ≈ 90 at n=300k)
        nd = out.set_index("doc_id").loc[planted, "n_dup"].to_numpy()
        results[path] = (wall, bool(exact and (nd >= 5).all()))
        print(f"{path:9s}: {wall:7.1f}s  "
              f"docs={n}  flagged={len(flagged)}  exact={results[path][1]}")

    total_windows = n * n_windows_per_doc
    print(f"windows={total_windows/1e6:.1f}M  "
          f"rows/s broadcast={n/results['broadcast'][0]:.0f}  "
          f"join={n/results['join'][0]:.0f}")
    ray.shutdown()


if __name__ == "__main__":
    main()
