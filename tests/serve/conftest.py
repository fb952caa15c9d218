"""Shared fixtures for the serve tests."""

from __future__ import annotations

import asyncio

import pytest


@pytest.fixture
def wait_until():
    """``await wait_until(predicate, what)``: yield to the event loop until
    ``predicate()`` holds, and fail the test after ``timeout`` seconds.

    Tests gate on an observable outcome instead of on scheduling luck; a
    request that fails before it reaches the awaited state fails the test
    rather than hanging it.
    """

    async def wait(predicate, what: str, timeout: float = 30.0) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not predicate():
            if loop.time() >= deadline:
                pytest.fail(f"timed out after {timeout:g} s waiting for {what}")
            await asyncio.sleep(0.001)

    return wait
