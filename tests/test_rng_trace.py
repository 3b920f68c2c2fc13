"""Tests for seeded RNG streams."""

from repro.sim import derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(42, "disk") == derive_seed(42, "disk")
    assert derive_seed(42, "disk") != derive_seed(42, "net")
    assert derive_seed(42, "disk") != derive_seed(43, "disk")
