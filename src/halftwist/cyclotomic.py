"""Residue bookkeeping for the field of d-th roots of unity.

Nothing downstream ever needs an actual root of unity: every formula in
this package depends only on exponents mod d.  An embedding sigma_a is
therefore stored as the unit residue a, complex conjugation is the
involution a -> d - a, and the preferred CM-type picks the units in the
open interval (0, d/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd
from typing import Iterator


class InvalidDegreeError(ValueError):
    """Degree d < 3; the cyclotomic field is not CM."""


class InvariantError(RuntimeError):
    """An identity that the mathematics guarantees failed to hold: a
    defect in this package, never a bad input.  Raised explicitly, so
    the check survives ``python -O``."""


@dataclass(frozen=True)
class CyclotomicData:
    """The degree d, its unit group (ascending) and the CM-type sigma0."""

    d: int
    units: tuple[int, ...]
    sigma0: frozenset[int]

    def is_unit(self, a: int) -> bool:
        return 0 < a % self.d and gcd(a, self.d) == 1

    def __repr__(self) -> str:
        return f"CyclotomicData(d={self.d})"


@cache
def make_cyclotomic(d: int) -> CyclotomicData:
    """Unit group and CM-type data for the d-th cyclotomic field, d >= 3;
    built once per degree, since the data is frozen."""
    if d < 3:
        raise InvalidDegreeError(f"degree must be >= 3, got {d}")
    units = tuple(a for a in range(1, d) if gcd(a, d) == 1)
    sigma0 = frozenset(a for a in units if 2 * a < d)
    if len(sigma0) * 2 != len(units):
        raise InvariantError(f"CM-type of d={d} misses a conjugate pair")
    return CyclotomicData(d=d, units=units, sigma0=sigma0)


def conjugate_residue(field: CyclotomicData, a: int) -> int:
    """Complex conjugation on residues, a -> -a mod d: on units it takes
    sigma_a to sigma_{d-a}, and 0 is self-conjugate."""
    return (-a) % field.d


def all_cm_types(field: CyclotomicData) -> Iterator[frozenset[int]]:
    """All 2^(phi(d)/2) CM-types, one embedding per conjugate pair.

    Deterministic order: choices iterate over the ascending elements of
    sigma0, picking the sigma0 member before its conjugate.
    """
    pairs = [(a, field.d - a) for a in sorted(field.sigma0)]
    for choice in product(*pairs):
        yield frozenset(choice)
