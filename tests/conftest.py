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


@pytest.fixture
def counted_passes(monkeypatch):
    """The batches that ``evaluation.build_batch`` builds and the batches that
    ``TransformerModel.forward`` forwards, as two lists filled from now on."""
    from winmt import evaluation
    from winmt.model import TransformerModel
    built, forwarded = [], []
    build, forward = evaluation.build_batch, TransformerModel.forward

    def counting_build(windows, config):
        built.append(build(windows, config))
        return built[-1]

    def counting_forward(model, batch, **kwargs):
        forwarded.append(batch)
        return forward(model, batch, **kwargs)

    monkeypatch.setattr(evaluation, "build_batch", counting_build)
    monkeypatch.setattr(TransformerModel, "forward", counting_forward)
    return built, forwarded
