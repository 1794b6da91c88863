"""Shared utilities: seeding, gradient checking, atomic file writes."""

from .atomic import atomic_write
from .seeding import seeded_rng, spawn_rngs
from .gradcheck import check_gradients, numerical_gradient

__all__ = ["seeded_rng", "spawn_rngs", "check_gradients", "numerical_gradient",
           "atomic_write"]
