"""Residue bookkeeping for the field of d-th roots of unity.

Nothing downstream ever needs an actual root of unity: every formula in
this package depends only on exponents mod d.  An embedding sigma_a is
therefore stored as the unit residue a, complex conjugation is the
involution a -> d - a, and the preferred CM-type picks the units in the
open interval (0, d/2).

A field is defined by two values, its degree d and its CM-type sigma0;
everything else about it (the unit group, the masks that the half
twists read, the non-units) is derived from those two, so a field with
another CM-type never carries the data of the old one.
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
    """The d-th cyclotomic field with a CM-type, defined by the degree
    d >= 3 and the CM-type sigma0, one unit residue from each conjugate
    pair {a, d - a}; these two alone are fields, so they alone take part
    in equality, hashing and `dataclasses.replace`, and a bad pair
    raises at construction.

    Derived from them when the field is built, as plain attributes: the
    unit group `units` (ascending), and for the rows of a flat Hodge
    table (`hodge.CMHodgeStructure`), which run over the residues
    1..d-1, `sigma0_mask` (entry a - 1 is 1 when a is in sigma0, else
    0), its complement `other_mask`, and the non-units `nonunits`
    (ascending)."""

    d: int
    sigma0: frozenset[int]

    def __post_init__(self):
        d, sigma0 = self.d, self.sigma0
        if d < 3:
            raise InvalidDegreeError(f"degree must be >= 3, got {d}")
        units = tuple(a for a in range(1, d) if gcd(a, d) == 1)
        conjugates = {d - a for a in sigma0}
        if sigma0 | conjugates != set(units) or conjugates & sigma0:
            raise ValueError(
                f"{sorted(sigma0)} is not a CM-type of d={d}: "
                "it must hold one unit of each pair {a, d - a}"
            )
        mask = tuple(int(a in sigma0) for a in range(1, d))
        # set once here rather than as cached properties, whose writes
        # into the instance __dict__ would slow every read of the field,
        # d included, on the twists' hot paths
        derived = {
            "units": units,
            "sigma0_mask": mask,
            "other_mask": tuple(1 - x for x in mask),
            "nonunits": tuple(a for a in range(1, d) if a not in units),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"CyclotomicData(d={self.d}, sigma0={sorted(self.sigma0)})"


@cache
def make_cyclotomic(d: int) -> CyclotomicData:
    """The d-th cyclotomic field, d >= 3, with the preferred CM-type, the
    units in (0, d/2); built once per degree, since the data is frozen."""
    sigma0 = frozenset(a for a in range(1, d) if 2 * a < d and gcd(a, d) == 1)
    return CyclotomicData(d, sigma0)


def all_cm_types(field: CyclotomicData) -> Iterator[frozenset[int]]:
    """All 2^(phi(d)/2) CM-types, one embedding per conjugate pair.

    Deterministic order: choices iterate over the ascending elements of
    sigma0, picking the sigma0 member before its conjugate.
    """
    pairs = [(a, field.d - a) for a in sorted(field.sigma0)]
    for choice in product(*pairs):
        yield frozenset(choice)
