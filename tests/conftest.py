"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import units
from repro.core.memory_map import MemoryMap
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network, TopologyBuilder
from repro.sim.simulator import Simulator

#: ``--hypothesis-profile=deep`` runs every property with this many times
#: its examples: the profile's default for tests that set none, and
#: :func:`pytest_collection_modifyitems` for tests with their own budget.
DEEP_FACTOR = 20

settings.register_profile(
    "deep", max_examples=DEEP_FACTOR * settings.default.max_examples)


def pytest_collection_modifyitems(config, items):
    """Under the deep profile, scale the explicit per-test budgets too."""
    if config.getoption("hypothesis_profile", None) != "deep":
        return
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # methods: their function
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if (own is not None
                and own.max_examples != settings.default.max_examples):
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=DEEP_FACTOR * own.max_examples)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def memory_map() -> MemoryMap:
    """The standard network-wide memory map."""
    return MemoryMap.standard()


@pytest.fixture
def linear_net() -> Network:
    """h0 - sw0 - sw1 - sw2 - h1 at 1 Gb/s with routes installed."""
    builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000)
    net = builder.linear(n_switches=3)
    install_shortest_path_routes(net)
    return net


@pytest.fixture
def single_switch_net() -> Network:
    """Two hosts on one switch, routes installed."""
    builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000)
    net = builder.star(n_hosts=2)
    install_shortest_path_routes(net)
    return net
