import os
from collections import Counter

import pytest

import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def world(tmp_path_factory):
    """Small deterministic synthetic world shared by the pipeline tests."""
    from greenex_py_ray.sources import synth

    root = str(tmp_path_factory.mktemp("world"))
    paths = synth.ensure_world(root, n_docs=300, seed=42)
    return paths


@pytest.fixture(scope="session")
def sf_dir():
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


def pytest_terminal_summary(terminalreporter):
    """Print each distinct skip reason with its count, so a skipped
    group of tests (the reference goldens without their data) shows in
    ``-q`` output too."""
    reasons = Counter(
        rep.longrepr[2] if isinstance(rep.longrepr, tuple) else str(rep.longrepr)
        for rep in terminalreporter.stats.get("skipped", []))
    if reasons:
        terminalreporter.write_sep("-", "skip reasons")
        for reason, n in reasons.most_common():
            terminalreporter.write_line(f"{n:4d}  {reason}")
