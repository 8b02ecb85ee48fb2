"""Shared fixtures: small grids, fields and a per-session cache directory."""

import threading

import numpy as np
import pytest

from diracsplit.model import PhysParams, gaussian_ic, make_grid


@pytest.fixture
def grid1d():
    return make_grid(1, -8.0, 8.0, 64)


@pytest.fixture
def grid2d():
    return make_grid(2, -4.0, 4.0, 16)


@pytest.fixture
def params():
    return PhysParams()


@pytest.fixture
def field1d(grid1d):
    return gaussian_ic(grid1d, (0.0, 1.0))


@pytest.fixture
def field2d(grid2d):
    return gaussian_ic(grid2d, ((0.0, 0.0), (1.0, 0.0)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "refcache"


@pytest.fixture
def helper_jobs(monkeypatch):
    """The names of the threads that hand a share of a split flow or table build to the helper."""
    from diracsplit import spectral

    jobs = []
    pool = spectral._helper_pool

    class Counting:
        def submit(self, *args, **kwargs):
            jobs.append(threading.current_thread().name)
            return pool().submit(*args, **kwargs)

    monkeypatch.setattr(spectral, "_helper_pool", Counting)
    return jobs


def random_field(grid, rng):
    """Complex field with independent standard-normal parts per node."""
    shape = (2, *grid.shape)
    values = rng.standard_normal(shape) + 1.0j * rng.standard_normal(shape)
    from diracsplit.model import SpinorField

    return SpinorField(grid, values)
