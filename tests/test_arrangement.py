import math
from fractions import Fraction

import pytest

from booltermorders.arrangement import (
    MAX_CHARPOLY,
    CharPoly,
    _primes_for,
    char_poly,
    normals,
    point_count,
    region_count,
    root_system,
    verify_discriminantal,
)
from conftest import extended
from oracles import char_poly_mobius, slab_point_count

EXPECTED_FACTORED = {
    1: "(x-1)",
    2: "(x-1)(x-3)",
    3: "(x-1)(x-5)(x-7)",
    4: "(x-1)(x-11)(x-13)(x-15)",
    5: "(x-1)(x-29)(x-31)(x^2 - 60x + 971)",
}

EXPECTED_REGIONS = {1: 2, 2: 8, 3: 96, 4: 5376, 5: 1981440}

CHI_6 = (1, -364, 54673, -4237000, 169774459, -2857031116, 2691439347)
COHERENT_CLASSES_6 = 124187  # pinned in test_acceptance.py


def test_normal_counts():
    assert [len(normals(n)) for n in (1, 2, 3)] == [1, 4, 13]


def test_normals_are_sign_canonical():
    for n in (2, 3, 4):
        for v in normals(n):
            first = next(x for x in v if x)
            assert first == 1
            assert all(x in (-1, 0, 1) for x in v)


def test_char_poly_table(char_polys):
    for n, poly in char_polys.items():
        assert poly.factored_str() == EXPECTED_FACTORED[n]


def test_region_counts(char_polys):
    for n, poly in char_polys.items():
        assert abs(poly(-1)) == EXPECTED_REGIONS[n]
    assert region_count(2) == 8


def test_char_poly_properties(char_polys):
    for n, poly in char_polys.items():
        assert poly.coefficients[0] == 1  # monic
        assert poly(1) == 0  # x-1 always divides


def test_mobius_oracle_agrees(char_polys):
    for n in (1, 2, 3):
        assert char_poly_mobius(n).coefficients == char_polys[n].coefficients


def test_point_count_matches_poly(char_polys):
    # evaluate at a fresh prime not used for interpolation
    poly = char_polys[3]
    q = 101
    assert point_count(3, q) == poly(q)


def test_point_count_matches_slab_oracle():
    # both count the same set of points, so they agree at any odd prime
    cases = [(n, q) for n in range(1, 5) for q in _primes_for(n, n + 2)]
    cases += [(3, 101), (5, 37)]
    for n, q in cases:
        assert point_count(n, q) == slab_point_count(n, q), (n, q)


def test_chi_6_factors_and_counts_regions():
    poly = CharPoly(CHI_6)
    assert poly.factored_str() == (
        "(x-1)(x^5 - 363x^4 + 54310x^3 - 4182690x^2 + 165591769x - 2691439347)"
    )
    assert abs(poly(-1)) == (1 << 6) * math.factorial(6) * COHERENT_CLASSES_6


@extended
def test_char_poly_6():
    assert char_poly(6).coefficients == CHI_6


def test_char_poly_rejects_n_out_of_range():
    for n in (0, MAX_CHARPOLY + 1):
        with pytest.raises(ValueError):
            char_poly(n)
        with pytest.raises(ValueError):
            region_count(n)


def test_root_system_order():
    roots = root_system(2)
    assert roots == [(1, 0), (0, 1), (1, 1), (1, -1)]


def test_verify_discriminantal():
    for n in (2, 3, 4):
        assert verify_discriminantal(n)


def test_charpoly_str():
    poly = CharPoly((1, -4, 3))
    assert str(poly) == "x^2 - 4x + 3"
    assert poly.factored_str() == "(x-1)(x-3)"
    assert poly(Fraction(2)) == -1
