"""Hand-built small algebras used throughout the test suite and decision module."""

from __future__ import annotations

from functools import lru_cache

from .algebra import FiniteAlgebra, VarietyClass, derive_operations

_MEET2 = ((0, 0), (0, 1))
_JOIN2 = ((0, 1), (1, 1))
_IMPL2 = ((1, 1), (0, 1))


@lru_cache(maxsize=None)
def two_element(cls: VarietyClass) -> FiniteAlgebra:
    """The two-element algebra of a class: the one table the class needs beyond
    the Heyting ones, forced on {0,1}, and the derived tables filled from it."""
    extra = {
        "heyting": {},
        "ws5": {"box": (0, 1)},
        "hri": {"invol": (1, 0)},
        "hdp": {"dualneg": (1, 0)},
        "dht": {"dimpl": ((0, 0), (1, 0))},
    }[cls.kind]
    return derive_operations(FiniteAlgebra(2, cls, _MEET2, _JOIN2, _IMPL2, name=f"two_{cls}",
                                           **extra))


def _chain3(cls, **extra):
    meet = tuple(tuple(min(a, b) for b in range(3)) for a in range(3))
    join = tuple(tuple(max(a, b) for b in range(3)) for a in range(3))
    impl = tuple(tuple(2 if a <= b else b for b in range(3)) for a in range(3))
    return FiniteAlgebra(3, cls, meet, join, impl, **extra)


@lru_cache(maxsize=None)
def two_ws5() -> FiniteAlgebra:
    return two_element(VarietyClass("ws5")).rename("TwoWS5")


@lru_cache(maxsize=None)
def c3_simple() -> FiniteAlgebra:
    """Three-chain 0 < m < 1 with box m = 0; simple but not projective."""
    return derive_operations(_chain3(VarietyClass("ws5"), box=(0, 0, 2), name="C3simple"))


@lru_cache(maxsize=None)
def c3_identity_box() -> FiniteAlgebra:
    """Three-chain with identity box: open elements are not Boolean (invalid on purpose)."""
    return _chain3(VarietyClass("ws5"), box=(0, 1, 2), name="C3idbox")


@lru_cache(maxsize=None)
def c3_hri() -> FiniteAlgebra:
    """Three-chain with the order-flipping involution fixing m; box m = 0."""
    return derive_operations(_chain3(VarietyClass("hri"), invol=(2, 1, 0), name="C3-HRI"))


@lru_cache(maxsize=None)
def c3_hdp() -> FiniteAlgebra:
    """Three-chain with dual pseudocomplement; boxdot stabilizes at level 1, box m = 0."""
    return derive_operations(_chain3(VarietyClass("hdp", 1), dualneg=(2, 2, 0), name="C3-HDP"))


_MEET4 = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
_JOIN4 = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
_IMPL4 = ((3, 3, 3, 3), (2, 3, 2, 3), (1, 1, 3, 3), (0, 1, 2, 3))


@lru_cache(maxsize=None)
def b4_disc() -> FiniteAlgebra:
    """Four-element Boolean lattice with the simple (discriminator) box."""
    return derive_operations(
        FiniteAlgebra(4, VarietyClass("ws5"), _MEET4, _JOIN4, _IMPL4, box=(0, 0, 0, 3), name="B4disc")
    )


@lru_cache(maxsize=None)
def b4_prod() -> FiniteAlgebra:
    """Four-element Boolean lattice with identity box: isomorphic to TwoWS5 squared."""
    return derive_operations(
        FiniteAlgebra(4, VarietyClass("ws5"), _MEET4, _JOIN4, _IMPL4, box=(0, 1, 2, 3), name="B4prod")
    )


@lru_cache(maxsize=None)
def b4_hri() -> FiniteAlgebra:
    """Four-element Boolean lattice with involution = Boolean complement; identity box."""
    return derive_operations(FiniteAlgebra(4, VarietyClass("hri"), _MEET4, _JOIN4, _IMPL4,
                                           invol=(3, 2, 1, 0), name="B4-HRI"))


def catalog_fixtures() -> tuple[FiniteAlgebra, ...]:
    return (two_ws5(), c3_simple(), c3_hri(), c3_hdp(), b4_disc(), b4_prod(), b4_hri())
