"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.algorithms.library import MM_INPLACE, MM_SCAN, STRASSEN
from repro.algorithms.spec import RegularSpec

# A larger example budget for suites CI runs on their own
# (``--hypothesis-profile=ci``); tier-1 runs the default profile.
settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path, monkeypatch):
    """Point the artifact store at a per-test directory so tests never
    read or pollute the developer's real cache (~/.cache/repro).  The
    env var is inherited by ProcessPoolExecutor workers, so parallel
    runner tests stay isolated too."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))


@pytest.fixture
def rng():
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def mm_scan():
    return MM_SCAN


@pytest.fixture
def mm_inplace():
    return MM_INPLACE


@pytest.fixture
def strassen():
    return STRASSEN


@pytest.fixture
def small_spec():
    """A small (3, 2, 1) spec: deep recursion at tiny sizes."""
    return RegularSpec(3, 2, 1.0, name="small-321")
