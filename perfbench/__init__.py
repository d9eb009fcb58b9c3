"""Three-pillar exposure benchmark for ``greenex_py_ray``.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``run.py``.
"""
