import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

import ffitts
from ffitts import embedded

# Hypothesis runs derandomized and without its example database, so every
# property draws the same examples on every run; tests set only max_examples.
settings.register_profile("ffitts", derandomize=True, database=None, deadline=None)
settings.load_profile("ffitts")


def pytest_configure(config):
    # Hypothesis caches constants it reads from local source files at
    # collection time, and a failing property writes its patches; keep both
    # in pytest's cache directory, or in the temporary directory when the
    # cache plugin is off, rather than in a .hypothesis/ directory of the
    # checkout.
    cache = getattr(config, "cache", None)
    directory = (cache.mkdir("hypothesis") if cache is not None
                 else Path(tempfile.gettempdir()) / "ffitts-hypothesis")
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(directory))


@pytest.fixture(scope="session")
def paper_1d():
    return embedded("paper-1d")


@pytest.fixture(scope="session")
def paper_2d():
    return embedded("paper-2d")


@pytest.fixture
def subprocess_env():
    """The environment with this checkout's ffitts first on PYTHONPATH."""
    src = str(Path(ffitts.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
