"""Tests for seeded RNG streams."""

from repro.sim import RngRegistry, derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(42, "disk") == derive_seed(42, "disk")
    assert derive_seed(42, "disk") != derive_seed(42, "net")
    assert derive_seed(42, "disk") != derive_seed(43, "disk")


def test_streams_are_independent():
    reg = RngRegistry(7)
    a = reg.stream("a").random(8).tolist()
    reg2 = RngRegistry(7)
    _ = reg2.stream("b").random(100)  # consuming b must not affect a
    a2 = reg2.stream("a").random(8).tolist()
    assert a == a2


def test_stream_is_cached():
    reg = RngRegistry(1)
    assert reg.stream("x") is reg.stream("x")


def test_fork_changes_streams():
    reg = RngRegistry(1)
    child = reg.fork("run2")
    assert reg.stream("a").random() != child.stream("a").random()
