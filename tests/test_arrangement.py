import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from booltermorders import arrangement
from booltermorders.arrangement import (
    _MAX_MINOR,
    MAX_CHARPOLY,
    CharPoly,
    CrossValidationError,
    _interpolate,
    _is_prime,
    _primes_for,
    _rank_det,
    _rooted_sets,
    char_poly,
    normals,
    point_count,
    region_count,
    root_system,
    verify_discriminantal,
)
from conftest import extended
from oracles import (
    char_poly_mobius,
    lagrange_interpolate,
    rooted_sets_rotating,
    slab_point_count,
)

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


def test_rooted_sets_match_rotating_oracle():
    # the folded last element gives the same N_1 as one more rotating step
    for n in range(2, 6):
        for q in _primes_for(n, n + 2):
            assert _rooted_sets(n, q) == rooted_sets_rotating(n, q), (n, q)


@extended
def test_rooted_sets_match_rotating_oracle_n6():
    for q in _primes_for(6, 2):
        assert _rooted_sets(6, q) == rooted_sets_rotating(6, q), q


ODD_PRIMES = [q for q in range(3, 400) if _is_prime(q)]


@st.composite
def sampled_polynomials(draw):
    """Distinct odd-prime nodes and an integer polynomial of degree below their number."""
    xs = draw(st.lists(st.sampled_from(ODD_PRIMES), min_size=2, max_size=8, unique=True))
    coeffs = draw(st.lists(st.integers(-(10**12), 10**12), min_size=len(xs), max_size=len(xs)))
    return xs, coeffs


@given(sampled_polynomials(), st.data())
def test_newton_interpolation_matches_lagrange_oracle(case, data):
    xs, coeffs = case
    ys = [CharPoly(tuple(coeffs))(x) for x in xs]
    assert _interpolate(xs, ys) == lagrange_interpolate(list(zip(xs, ys))) == coeffs
    # off by one at a node: the change is a Lagrange basis polynomial, whose
    # leading coefficient 1/prod(x_i - x_j) is no integer (the differences are even)
    i = data.draw(st.integers(0, len(xs) - 1))
    ys[i] += data.draw(st.sampled_from((1, -1)))
    assert _interpolate(xs, ys) is None
    assert any(c.denominator != 1 for c in lagrange_interpolate(list(zip(xs, ys))))


def max_det_pm1(k: int) -> int:
    """Largest |det| of a k x k +-1 matrix, k >= 1.

    Negating rows and columns changes only the sign, so the first row and
    column are +1; reordering rows does too, and equal rows give 0, so the
    other k - 1 rows are unordered distinct vectors with first entry +1.
    """
    rows = [(1, *tail) for tail in itertools.product((1, -1), repeat=k - 1)]
    return max(
        abs(_rank_det([(1,) * k, *others])[1]) for others in itertools.combinations(rows, k - 1)
    )


def max_det_zero_pm1(k: int) -> int:
    """Largest |det| of a k x k {0,+-1} matrix, by trying all 3^(k^2) of them."""
    return max(
        abs(_rank_det([entries[i * k : (i + 1) * k] for i in range(k)])[1])
        for entries in itertools.product((0, 1, -1), repeat=k * k)
    )


def test_max_minor_table():
    # M_0 = 1 is the empty determinant; M_n is increasing, so M_n is the k = n maximum
    dets = [1] + [max_det_pm1(k) for k in range(1, 6)]
    assert tuple(dets) == _MAX_MINOR[:6]
    # zeros do not help: the determinant is affine in each entry
    assert [max_det_zero_pm1(k) for k in range(1, 4)] == dets[1:4]


@extended
def test_max_minor_table_6():
    assert max_det_pm1(6) == _MAX_MINOR[6]


def test_primes_above_largest_minor():
    assert _primes_for(4, 6) == [17, 19, 23, 29, 31, 37]  # the slab-oracle cases
    assert _primes_for(5, 7) == [53, 59, 61, 67, 71, 73, 79]
    assert _primes_for(6, 8) == [163, 167, 173, 179, 181, 191, 193, 197]


def test_char_poly_cross_checks_fire(monkeypatch):
    n = 3
    primes = _primes_for(n, n + 2)
    nodes = primes[: n + 1]
    count = arrangement.point_count

    def perturb(shift):
        monkeypatch.setattr(arrangement, "point_count", lambda m, q: count(m, q) + shift(q))

    perturb(lambda q: q == primes[-1])
    with pytest.raises(CrossValidationError, match="validation prime disagrees"):
        char_poly(n)
    perturb(lambda q: q == primes[0])
    with pytest.raises(CrossValidationError, match="non-integer coefficients"):
        char_poly(n)
    # adds prod over the other nodes of (x - p): integer, but degree n with leading 1
    bump = math.prod(primes[0] - p for p in nodes[1:])
    perturb(lambda q: bump if q == primes[0] else 0)
    with pytest.raises(CrossValidationError, match="not monic"):
        char_poly(n)
    # chi + 1 passes every check but the vanishing at 1
    perturb(lambda q: 1)
    with pytest.raises(CrossValidationError, match="does not vanish at 1"):
        char_poly(n)


def test_chi_6_factors_and_counts_regions():
    poly = CharPoly(CHI_6)
    assert poly.factored_str() == (
        "(x-1)(x^5 - 363x^4 + 54310x^3 - 4182690x^2 + 165591769x - 2691439347)"
    )
    assert abs(poly(-1)) == (1 << 6) * math.factorial(6) * COHERENT_CLASSES_6


def test_char_poly_6():
    assert char_poly(6).coefficients == CHI_6


def test_char_poly_rejects_n_out_of_range():
    for n in (0, MAX_CHARPOLY + 1):
        with pytest.raises(ValueError):
            char_poly(n)
        with pytest.raises(ValueError):
            region_count(n)


def test_normals_and_discriminantal_check_reject_n_out_of_range():
    # refused before any work: normals(16) would build 21.5 million tuples, and
    # verify_discriminantal(10) would walk C(100, 9) root subsets
    for n in (-1, 0, MAX_CHARPOLY + 1, 10, 16):
        with pytest.raises(ValueError, match=f"1..{MAX_CHARPOLY}, got {n}"):
            normals(n)
        with pytest.raises(ValueError, match=f"1..{MAX_CHARPOLY}, got {n}"):
            verify_discriminantal(n)


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
