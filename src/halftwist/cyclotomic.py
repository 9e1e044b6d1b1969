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
    """The degree d, its unit group (ascending), the CM-type sigma0, and
    for the rows of a flat Hodge table (`hodge.CMHodgeStructure`), which
    run over the residues 1..d-1: sigma0 as a mask (entry a - 1 is 1
    when a is in sigma0, else 0), its complement, and the non-units
    among 1..d-1 (ascending)."""

    d: int
    units: tuple[int, ...]
    sigma0: frozenset[int]
    sigma0_mask: tuple[int, ...]
    other_mask: tuple[int, ...]
    nonunits: tuple[int, ...]

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
    sigma0_mask = tuple(int(a in sigma0) for a in range(1, d))
    other_mask = tuple(1 - x for x in sigma0_mask)
    nonunits = tuple(a for a in range(1, d) if a not in units)
    return CyclotomicData(d, units, sigma0, sigma0_mask, other_mask, nonunits)


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
