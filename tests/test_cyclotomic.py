from math import gcd

import pytest

from halftwist.cyclotomic import (
    InvalidDegreeError,
    all_cm_types,
    conjugate_residue,
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


@pytest.mark.parametrize("d, a, expected", [(4, 1, 3), (7, 3, 4), (12, 5, 7)])
def test_conjugate_examples(d, a, expected):
    assert conjugate_residue(make_cyclotomic(d), a) == expected


@pytest.mark.parametrize("d", range(3, 31))
def test_structure_invariants(d):
    data = make_cyclotomic(d)
    phi = sum(1 for a in range(1, d) if gcd(a, d) == 1)
    assert len(data.units) == phi
    assert all(d - a in data.units for a in data.units)
    # conjugation is a fixed-point-free involution on units
    for a in data.units:
        assert conjugate_residue(data, conjugate_residue(data, a)) == a
        assert conjugate_residue(data, a) != a
    conj_sigma0 = {conjugate_residue(data, a) for a in data.sigma0}
    assert data.sigma0.isdisjoint(conj_sigma0)
    assert data.sigma0 | conj_sigma0 == set(data.units)
    assert len(data.sigma0) * 2 == phi


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
    assert data.sigma0 in types
