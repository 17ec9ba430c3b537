"""Shared fixtures: the paper's example database and small helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

import repro

# Tier-1 must not flake: every Hypothesis suite draws the same examples
# on every run (a falsifying example found by luck belongs in a seeded
# long run, then in a regression test).  ``--hypothesis-seed=N`` is that
# long run: an explicit seed switches derandomisation off, because
# Hypothesis lets ``derandomize`` win over a seed.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("seeded", deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    if config.getoption("--hypothesis-profile", None):
        return  # the caller's explicit choice, loaded by the plugin
    if config.getoption("--hypothesis-seed", None) is not None:
        settings.load_profile("seeded")


@pytest.fixture
def db() -> repro.PermDatabase:
    """A fresh empty database."""
    return repro.connect()


@pytest.fixture
def example_db() -> repro.PermDatabase:
    """The shop/sales/items database of paper Fig. 2."""
    database = repro.connect()
    database.execute("CREATE TABLE shop (name text, numempl integer)")
    database.execute("CREATE TABLE sales (sname text, itemid integer)")
    database.execute("CREATE TABLE items (id integer, price integer)")
    database.execute("INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)")
    database.execute(
        "INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), "
        "('Merdies', 2), ('Joba', 3), ('Joba', 3)"
    )
    database.execute("INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)")
    return database


def bag(rows) -> dict:
    """Rows -> multiset dict, for order-insensitive comparisons."""
    from collections import Counter

    return dict(Counter(tuple(r) for r in rows))
