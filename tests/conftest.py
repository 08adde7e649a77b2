"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import asyncio
import random
import threading
from contextlib import contextmanager

import pytest

from repro.regex import build_parse_tree, parse
from repro.regex.generators import (
    bounded_occurrence,
    chare,
    deep_alternation,
    mixed_content,
    paper_example_e0,
    paper_example_e1,
    paper_example_e2,
    star_free_chain,
)
from repro.regex.language import LanguageOracle


@contextmanager
def _front_in_background(service, **options):
    """Serve an :class:`~repro.service.aio.AsyncServiceServer` from a loop thread.

    Yields the started front (bound to an ephemeral port on 127.0.0.1), so
    blocking clients such as ``urllib`` or ``http.client`` can talk to
    ``front.address()`` from the test thread.  On exit every open
    connection handler is cancelled before the server closes, so teardown
    never waits on a client that kept its connection alive.
    """
    from repro.service.aio import AsyncServiceServer

    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    front = AsyncServiceServer(service, **options)

    async def stop() -> None:
        current = asyncio.current_task()
        for task in asyncio.all_tasks():
            if task is not current:
                task.cancel()
        await front.close()

    try:
        asyncio.run_coroutine_threadsafe(front.start("127.0.0.1", 0), loop).result(10)
        yield front
    finally:
        asyncio.run_coroutine_threadsafe(stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        runner.join(10)
        assert not runner.is_alive(), "the front's event loop did not stop"
        loop.close()


@pytest.fixture(scope="session")
def front_in_background():
    """The :func:`_front_in_background` context manager, for any fixture scope."""
    return _front_in_background


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator (fresh per test)."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def paper_e0():
    """Figure 1's expression ``(c?((ab*)(a?c)))*(ba)``."""
    return paper_example_e0()


@pytest.fixture
def paper_e1():
    """Example 2.1's deterministic expression ``(ab+b(b?)a)*``."""
    return paper_example_e1()


@pytest.fixture
def paper_e2():
    """Example 2.1's non-deterministic expression ``(a*ba+bb)*``."""
    return paper_example_e2()


def deterministic_family_samples() -> list:
    """A representative set of deterministic expressions from every workload family."""
    return [
        parse("a"),
        parse("(ab)*"),
        parse("a?bc*"),
        paper_example_e0(),
        paper_example_e1(),
        mixed_content(6),
        chare(4),
        deep_alternation(4),
        bounded_occurrence(2, 3),
        star_free_chain(5),
    ]


def oracle_for(expr):
    """Build the set-based oracle for an AST or text expression."""
    return LanguageOracle(build_parse_tree(expr))


# Exported for use by test modules through `from tests.conftest import ...` is
# not needed: pytest injects fixtures, and the plain helpers are imported via
# conftest's module path implicitly by pytest's assertion rewriting of tests.
