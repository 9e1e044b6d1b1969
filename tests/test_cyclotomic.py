import dataclasses
from dataclasses import replace
from math import gcd

import pytest

from halftwist.cyclotomic import (
    CyclotomicData,
    InvalidDegreeError,
    all_cm_types,
    make_cyclotomic,
)


@pytest.mark.parametrize(
    "d, units, sigma0",
    [
        (4, (1, 3), {1}),
        (3, (1, 2), {1}),
        # enumerate gcd(a, 12) = 1 and filter a < 6
        (12, (1, 5, 7, 11), {1, 5}),
    ],
)
def test_make_cyclotomic_examples(d, units, sigma0):
    data = make_cyclotomic(d)
    assert data.units == units
    assert data.sigma0 == frozenset(sigma0)


def test_field_is_built_once_per_degree():
    assert make_cyclotomic(7) is make_cyclotomic(7)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_degree_below_three_rejected(d):
    with pytest.raises(InvalidDegreeError):
        make_cyclotomic(d)


@pytest.mark.parametrize("d", range(3, 31))
def test_structure_invariants(d):
    data = make_cyclotomic(d)
    phi = sum(1 for a in range(1, d) if gcd(a, d) == 1)
    assert len(data.units) == phi
    # conjugation a -> d - a is a fixed-point-free involution on units
    assert all(d - a in data.units and d - a != a for a in data.units)
    conj_sigma0 = {d - a for a in data.sigma0}
    assert data.sigma0.isdisjoint(conj_sigma0)
    assert data.sigma0 | conj_sigma0 == set(data.units)
    assert len(data.sigma0) * 2 == phi
    assert data.nonunits == tuple(a for a in range(1, d) if a not in data.units)
    assert data.sigma0_mask == tuple(int(a in data.sigma0) for a in range(1, d))
    assert all(x + y == 1 for x, y in zip(data.sigma0_mask, data.other_mask))


def test_a_field_stores_only_its_degree_and_cm_type():
    fields = tuple(field.name for field in dataclasses.fields(CyclotomicData))
    assert fields == ("d", "sigma0")
    assert repr(make_cyclotomic(5)) == "CyclotomicData(d=5, sigma0=[1, 2])"


def test_a_replaced_cm_type_carries_its_own_masks():
    other = replace(make_cyclotomic(5), sigma0=frozenset({3, 4}))
    assert other.units == (1, 2, 3, 4)
    assert other.sigma0_mask == (0, 0, 1, 1)
    assert other.other_mask == (1, 1, 0, 0)
    assert other != make_cyclotomic(5)
    assert other == CyclotomicData(5, frozenset({3, 4}))
    assert hash(other) == hash(CyclotomicData(5, frozenset({3, 4})))


NOT_CM_TYPES = {
    "a-conjugate-pair": (5, {1, 4}),
    "a-pair-left-out": (5, {1}),
    "both-of-a-pair": (5, {1, 2, 3}),
    "a-non-unit": (6, {1, 3}),
    "residue-zero": (6, {0, 1}),
}


@pytest.mark.parametrize(
    "d, sigma0", NOT_CM_TYPES.values(), ids=list(NOT_CM_TYPES)
)
def test_a_set_that_is_not_a_cm_type_is_rejected(d, sigma0):
    with pytest.raises(ValueError, match="not a CM-type"):
        replace(make_cyclotomic(d), sigma0=frozenset(sigma0))


@pytest.mark.parametrize("d", [3, 4, 5, 7, 8, 12])
def test_all_cm_types(d):
    data = make_cyclotomic(d)
    types = list(all_cm_types(data))
    assert len(types) == 2 ** (len(data.units) // 2)
    assert len(set(types)) == len(types)
    for sigma in types:
        assert len(sigma) == len(data.units) // 2
        # one embedding per conjugate pair
        assert all((d - a) not in sigma for a in sigma)
        assert CyclotomicData(d, sigma).sigma0 == sigma
    assert data.sigma0 in types
