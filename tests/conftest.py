import os

import pytest

# single-threaded BLAS keeps results bitwise reproducible across runs
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from winmt import parallel  # noqa: E402  (numpy reads the settings above when imported)


@pytest.fixture
def one_worker(monkeypatch):
    """Run every ``parallel.map_ordered`` in this process, so that a test can
    count the calls made inside a mapped loop."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
