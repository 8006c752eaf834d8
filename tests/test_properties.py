"""Property tests for the order LPs, the order-file boundary, exact ranks and
localization (hypothesis)."""

import contextlib
import functools
import io
import itertools
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from booltermorders import lp
from booltermorders.arrangement import _rank_det
from booltermorders.baues import (
    PartialTermOrder,
    _extreme_rays,
    find_partial_weight,
    parse_partial,
    refines,
    serialize_partial,
    validate_partial,
)
from booltermorders.catalog import noncoherent_five, nonorder_localization_three
from booltermorders.cli import main
from booltermorders.coherence import (
    CoherentOrderError,
    TieError,
    _comparisons,
    _constraints,
    _coprime,
    _weight_sums,
    find_weight,
    noncoherence_certificate,
    order_from_weight,
    subset_sum,
    verify_certificate,
)
from booltermorders.core import (
    ParseError,
    TermOrder,
    canonicalize,
    elements,
    format_subset,
    is_valid,
    parse_order,
    read_levels,
    relabel,
    serialize_order,
    union_violation,
    validate,
)
from booltermorders.enumeration import enumerate_orders
from booltermorders.flips import (
    deficient_extension,
    flip,
    flippable_pairs,
    lex_product,
    unit_order,
)
from booltermorders.omatroid import (
    Signature,
    check_localization,
    mu_from_order,
    negate,
    sign_vectors,
)
from oracles import (
    check_localization_tuples,
    comparisons_level_array,
    det_leibniz,
    extreme_rays_by_null_vectors,
    first_violation_list_scan,
    rank2_extension_patterns,
    _fraction_pivot,
    fraction_solve_eq,
    is_union_violation,
    is_valid_all_gammas,
    lex_min_by_pins,
    rank_by_rref,
    read_levels_scan,
    refines_pairs,
    relabel_image_table,
    serialize_order_chain,
    serialize_partial_levels,
    signature_from_positives,
    singleton_axioms_two_lists,
    _to_integer_weights,
    transposed,
    union_violation_list_scan,
    validate_partial_quadruples,
)


@st.composite
def equality_programs(draw):
    """min c.x over A x = b, x >= 0: integer A, rational b and c.

    Small entries make ties in the ratio test common; with a flag, the sum
    of two rows is appended, a redundant row whose artificial variable
    phase 1 has to drive out of the basis.
    """
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(rational, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        j = draw(st.integers(0, m - 1))
        A.append([u + v for u, v in zip(A[i], A[j])])
        b.append(b[i] + b[j])
    c = draw(st.lists(rational, min_size=n, max_size=n))
    return A, b, c


@given(equality_programs())
@example(([[1, 1], [1, 1]], [Fraction(1, 2)] * 2, [Fraction(1), Fraction(2)]))  # redundant
@example(([[1, 1], [1, 1]], [1, 2], [0, 0]))  # infeasible
@example(([[1, -1]], [0], [-1, 0]))  # unbounded
@example(([[1, 1, 0], [1, 0, 1]], [0, 0], [-1, 1, 1]))  # degenerate
@example(([], [], [1, 0]))  # no rows
@example(([[0, -2]], [0], [1, -1]))  # an artificial driven out on a negative entry
@example((  # a ratio tie that Bland's rule breaks: the optimum is not unique
    [[2, 2, -1, 1, 1, 1], [0, 2, -1, 1, -1, -1], [0, -1, 1, 1, 1, -2]],
    [0, -3, 3],
    [Fraction(3, 2), 0, 0, 1, 0, 0],
))
def test_solve_eq_matches_fraction_oracle(program):
    A, b, c = program
    status, x, obj = lp.solve_eq(A, b, c)
    assert (status, x, obj) == fraction_solve_eq(A, b, c)
    if status == "optimal":
        assert all(type(v) is Fraction for v in x + [obj])


def farkas_by_fraction_oracle(A, b):
    """``lp.farkas_ge`` through the same dual program, solved by the oracle:
    lam >= 0 with lam.[A | b] = (0, ..., 0, 1), whose equality rows are the
    columns of [A | b]."""
    n = len(A[0]) if A else 0
    extended = [list(a) + [beta] for a, beta in zip(A, b)]
    status, lam, _ = fraction_solve_eq(transposed(extended, n + 1), [0] * n + [1], [0] * len(A))
    return lam if status == "optimal" else None


def test_farkas_matches_fraction_oracle(canonical_orders, coherence_flags):
    # every class with n <= 4 is coherent, so both sides give None there
    for n in range(1, 5):
        for order in canonical_orders[n]:
            rows, rhs = _constraints(order)
            assert lp.farkas_ge(rows, rhs) == farkas_by_fraction_oracle(rows, rhs)
    # the 30 noncoherent n=5 classes, canonical and under a seeded relabeling: the
    # certificate read off the kernel's integer numerators is the oracle's Fraction
    # multipliers cleared to integers
    rng = random.Random(20261019)
    noncoherent = [o for o, flag in zip(canonical_orders[5], coherence_flags[5]) if not flag]
    assert len(noncoherent) == 30
    for cls in noncoherent:
        for order in (cls, relabel(cls, rng.sample(range(5), 5))):
            rows, rhs = _constraints(order)
            lam = farkas_by_fraction_oracle(rows, rhs)
            assert lam is not None and lp.farkas_ge(rows, rhs) == lam
            mults = _to_integer_weights(lam)
            expected = sorted((l, r, m) for (l, r, _), m in zip(_comparisons(order), mults) if m)
            cert = noncoherence_certificate(order)
            assert [(p.left, p.right, m) for p, m in zip(cert.pairs, cert.multiplicities)] == expected


@st.composite
def pivot_runs(draw):
    """A small integer tableau over d = 1, m basis rows and one row past them
    (as the reduced-cost row), with one to three pivot positions (row, col)."""
    m = draw(st.integers(1, 4))
    w = draw(st.integers(1, 5))
    tab = draw(st.lists(st.lists(st.integers(-3, 3), min_size=w, max_size=w),
                        min_size=m + 1, max_size=m + 1))
    pivots = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, w - 1)),
                           min_size=1, max_size=3))
    return tab, pivots


@given(pivot_runs())
@example(([[1, 0, 2], [1, 1, 0], [-1, 2, 1], [0, 3, 1]], [(0, 0)]))  # p = d = 1, f = 1 and -1
@example(([[1, 1, 2], [2, 3, 0], [-3, 1, 1]], [(0, 0)]))  # p = d = 1, f = 2 and -3
@example(([[2, 1, 0], [1, 3, 1], [0, 1, 2]], [(0, 0), (1, 1)]))  # p != d, then d = 2
@example(([[-1, 2, 1], [3, 1, 0], [1, -1, 2]], [(0, 0), (1, 1)]))  # negative unit pivot
@example(([[-2, 1], [1, 1], [1, 0]], [(0, 0), (0, 1)]))  # negative pivot, then one in its row
def test_pivot_matches_fraction_pivot(run):
    # one Bareiss step against one Fraction Gauss-Jordan step, entry by entry
    tab, pivots = run
    tab = [list(line) for line in tab]  # the kernel pivots in place
    m = len(tab) - 1
    ftab = [[Fraction(v) for v in line] for line in tab]
    basis, fbasis = list(range(m)), list(range(m))
    d = 1
    for row, col in pivots:
        assume(tab[row][col] != 0)
        d = lp._pivot(tab, basis, d, row, col)
        _fraction_pivot(ftab, fbasis, row, col)
        assert d > 0
        assert basis == fbasis
        assert [[Fraction(v, d) for v in line] for line in tab] == ftab


@st.composite
def ge_systems(draw):
    """A x >= b over n unknowns with small integer entries, n and m from 0.

    Every unit row e_i, which ``lp.lex_min_ge`` requires, is inserted at a
    random position with a right-hand side in -2..2, sometimes twice; so x
    is bounded below, and a system has a lexicographic minimum exactly
    when it is feasible.
    """
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 6))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    for i in range(n):
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(A)))
            A.insert(at, [int(i == j) for j in range(n)])
            b.insert(at, draw(st.integers(-2, 2)))
    return A, b, n


@given(ge_systems())
@example(([], [], 0))  # nothing to solve
@example(([[], []], [0, 1], 0))  # zero unknowns, infeasible
@example(([[1], [-1]], [1, 0], 1))  # infeasible
@example(([[1, 1], [1, 0], [0, 1], [-1, -1]], [1, 0, 0, -3], 2))  # x_1 + x_2 >= 1 binds: (0, 1)
@example(([[1, 0], [0, 1], [1, 1]], [1, 1, 3], 2))  # unit rows first: (1, 2)
@example(([[0, 1], [1, 0], [1, 1], [0, 1]], [0, 2, 3, 1], 2))  # e_2 twice, the later binds: (2, 1)
@example(([[1, 0], [0, 1], [-1, -1]], [1, 1, -1], 2))  # infeasible
def test_lex_min_ge_matches_pin_oracle(system):
    # one lexicographic dual solve against 1 + n solves with pinned coordinates
    A, b, n = system
    x = lp.lex_min_ge(A, b, n)
    assert x == lex_min_by_pins(A, b, n)
    assert (x is None) == (lp.farkas_ge(A, b) is not None)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) >= beta for row, beta in zip(A, b))


@given(ge_systems())
@example(([[1], [-1]], [1, 0], 1))  # infeasible
@example(([[], []], [0, 1], 0))  # zero unknowns, infeasible
@example((*_constraints(PartialTermOrder.trivial(3)), 3))  # the one-level order: w = 0
@example(([[1, 0], [0, 1], [1, 1]], [1, 1, 3], 2))  # (1, 2)
@example(([[2, 0], [1, 0], [0, 1], [0, 3]], [1, 0, 0, 2], 2))  # (1/2, 2/3) -> (3, 4)
def test_integer_read_off_matches_the_fraction_route(system):
    # the kernel's numerators divided by their gcd, as find_weight reads them,
    # against lex_min_ge's Fractions cleared to integers
    A, b, n = system
    basis = [A.index([int(i == j) for i in range(n)]) for j in range(n)]
    solution = lp._lex_min(transposed(A, n), basis, b)
    x = lp.lex_min_ge(A, b, n)
    assert (solution is None) == (x is None)
    if x is not None:
        assert _coprime(solution[1]) == _to_integer_weights(x)


@given(
    st.lists(st.integers(-1000, 1000), max_size=8)
    | st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=12), max_size=8)
)
def test_weight_sums_by_doubling_match_subset_sums(w):
    sums = _weight_sums(w)
    expected = [subset_sum(w, mask) for mask in range(1 << len(w))]
    assert sums == expected
    assert list(map(type, sums)) == list(map(type, expected))


@st.composite
def programs_with_copies(draw):
    """Rows A x >= b, a cost c, and a row list that inserts copies of some
    (row, rhs) pairs after their first occurrence: (k, is_copy) per row."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    c = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    entries = [(k, False) for k in range(m)]
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, m - 1))
        at = draw(st.integers(entries.index((k, False)) + 1, len(entries)))
        entries.insert(at, (k, True))
    return A, b, c, entries


@given(programs_with_copies())
@example(([[1], [-1]], [1, 0], [1], [(0, False), (1, False), (0, True)]))  # Farkas
@example(([[1], [1]], [1, 2], [1], [(0, False), (1, False), (1, True)]))  # optimal
def test_repeated_rows_change_no_pivot(case):
    # under Bland's rule a later copy of a dual column never enters the basis
    A, b, c, entries = case
    A2 = [A[k] for k, _ in entries]
    b2 = [b[k] for k, _ in entries]

    def spread(lam):
        return lam and [0 if copy else lam[k] for k, copy in entries]

    assert spread(lp.farkas_ge(A, b)) == lp.farkas_ge(A2, b2)
    # the dual of min c.x over A x >= b: min -b.y over y.A = c, y >= 0
    status, y, obj = lp.solve_eq(transposed(A, len(c)), c, [-v for v in b])
    assert (status, spread(y), obj) == lp.solve_eq(transposed(A2, len(c)), c, [-v for v in b2])


@given(
    st.lists(st.integers(1, 1000), min_size=1, max_size=5),
    st.lists(st.integers(0, 10**6), max_size=12),
)
@example([22, 5, 29, 16, 10], [6])  # one flip to a noncoherent order
def test_flip_walks_keep_orders_valid_and_decided(weights, picks):
    n = len(weights)
    try:
        order = order_from_weight(weights, n)
    except TieError:
        assume(False)
    for k in picks:
        pairs = [p for p in flippable_pairs(order) if p.left]
        if not pairs:
            break
        pair = pairs[k % len(pairs)]
        flipped = flip(order, pair)
        assert is_valid(flipped)
        assert flip(flipped, pair.reversed()) == order
        order = flipped
        weight = find_weight(order)
        if weight is None:
            assert verify_certificate(order, noncoherence_certificate(order))
        else:
            assert order_from_weight(weight, n) == order
            with pytest.raises(CoherentOrderError):
                noncoherence_certificate(order)


@functools.lru_cache(maxsize=None)
def enumerated_classes(n):
    """Canonical classes for n <= 5 and the first 2000 for n = 6."""
    return list(itertools.islice(enumerate_orders(n, mode="canonical"), 2000))


@st.composite
def perturbed_orders(draw):
    """An enumerated order with two ranks swapped, or two chain neighbours.

    The two middle sets are complements, so swapping them keeps the order
    valid; most other swaps break it.
    """
    n = draw(st.integers(2, 6))
    chain = list(draw(st.sampled_from(enumerated_classes(n))).chain)
    size = len(chain)
    kind = draw(st.sampled_from(["middle", "neighbours", "any"]))
    if kind == "middle":
        i, j = size // 2 - 1, size // 2
    elif kind == "neighbours":
        i = draw(st.integers(0, size - 2))
        j = i + 1
    else:
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    chain[i], chain[j] = chain[j], chain[i]
    return TermOrder.from_chain(n, chain)


@given(perturbed_orders())
def test_is_valid_matches_oracles_on_perturbed_orders(order):
    assert (
        is_valid(order)
        == singleton_axioms_two_lists(order)
        == is_valid_all_gammas(order)
        == validate(order).ok
    )


@st.composite
def scanned_orders(draw):
    """An order on n = 3..8 elements: a generic weight order after a short
    flip walk, kept or with two chain entries swapped (chain neighbours or
    any two)."""
    n = draw(st.integers(3, 8))
    weights = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    try:
        order = order_from_weight(weights, n)
    except TieError:
        assume(False)
    for _ in range(draw(st.integers(0, 6))):
        pairs = [pair for pair in flippable_pairs(order) if pair.left]
        if not pairs:
            break
        order = flip(order, draw(st.sampled_from(pairs)))
    chain = list(order.chain)
    kind = draw(st.sampled_from(["keep", "neighbours", "any"]))
    if kind == "neighbours":
        i = draw(st.integers(1, len(chain) - 2))
        chain[i], chain[i + 1] = chain[i + 1], chain[i]
    elif kind == "any":
        i, j = draw(st.lists(st.integers(0, len(chain) - 1), min_size=2, max_size=2, unique=True))
        chain[i], chain[j] = chain[j], chain[i]
    return TermOrder.from_chain(n, chain)


def swapped_lex_order(n, i, j):
    chain = list(range(1 << n))
    chain[i], chain[j] = chain[j], chain[i]
    return TermOrder.from_chain(n, chain)


@given(scanned_orders())
@example(swapped_lex_order(8, 63, 64))  # {1..6} and {7}: only the scan for 8 fails
@example(swapped_lex_order(7, 31, 32))  # {1..5} and {6}: only the scan for 7 fails
@example(swapped_lex_order(8, 127, 128))  # [7] and {8}, still valid
def test_union_scan_matches_list_scan(order):
    """The byte scan (n <= 8) reports the list scan's verdict and triple."""
    rank, n = order.rank, order.n
    expected = first_violation_list_scan(rank, rank, order.chain, n)
    report = validate(order)
    assert report.violations == ([] if expected is None else [expected])
    assert union_violation(rank, n) == expected
    assert is_valid(order) == report.ok == is_valid_all_gammas(order)


@st.composite
def relabelings(draw):
    """An enumerated order (n = 1..6) or a perturbed one, and a permutation."""
    if draw(st.booleans()):
        order = draw(st.sampled_from(enumerated_classes(draw(st.integers(1, 6)))))
    else:
        order = draw(perturbed_orders())
    return order, draw(st.permutations(range(order.n)))


@given(relabelings())
@example((TermOrder(0, (0,)), []))  # one index: the gather must still give a tuple
@example((TermOrder(1, (0, 1)), [0]))
@example((TermOrder(1, (0, 1)), (0,)))
@example((TermOrder.from_chain(3, [0, 1, 2, 3, 4, 6, 5, 7]), [2, 0, 1]))  # invalid
@example((TermOrder.from_chain(3, [0, 1, 2, 3, 4, 6, 5, 7]), (2, 0, 1)))  # same, as a tuple
@example((TermOrder.from_chain(3, range(8)), (2, 0, 1)))  # same permutation, a cache hit
def test_relabel_matches_image_table(case):
    order, perm = case
    moved = relabel(order, perm)
    assert moved == relabel_image_table(order, perm)
    # the image takes the order's validity memo: valid, invalid or not yet known
    assert moved.__dict__.get("_valid") is order.__dict__.get("_valid")
    valid = is_valid(order)
    moved = relabel(order, perm)
    assert moved.__dict__["_valid"] is valid is is_valid_all_gammas(TermOrder(moved.n, moved.rank))


@functools.lru_cache(maxsize=None)
def first_classes_7():
    return list(itertools.islice(enumerate_orders(7, mode="canonical"), 300))


def assert_valid_afresh(order):
    """The order carries a valid memo, and a copy without it passes the list scan."""
    assert order.__dict__.get("_valid") is True
    fresh = TermOrder(order.n, order.rank)
    assert "_valid" not in fresh.__dict__
    assert fresh.rank[0] == 0 and sorted(fresh.rank) == list(range(1 << fresh.n))
    assert first_violation_list_scan(fresh.rank, fresh.rank, fresh.chain, fresh.n) is None


@st.composite
def library_built_orders(draw):
    """Orders on n = 3..8 that the library built, each step kept: a weight
    order, an enumerated class (n <= 7), a lex product or a deficient
    extension, then relabelings, canonical forms and flips."""
    n = draw(st.integers(3, 8))

    def weight_order(k):
        weights = draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k))
        try:
            return order_from_weight(weights, k)
        except TieError:
            assume(False)

    kind = draw(st.sampled_from(["weight", "enumerated", "product", "extension"]))
    if kind == "weight":
        order = weight_order(n)
    elif kind == "enumerated":
        n = min(n, 7)
        order = draw(st.sampled_from(enumerated_classes(n) if n < 7 else first_classes_7()))
    elif kind == "product":
        k = draw(st.integers(1, n - 1))
        order = lex_product(weight_order(n - k), unit_order() if k == 1 else weight_order(k))
    else:
        order = deficient_extension(weight_order(draw(st.integers(1, n))), n)
    built = [order]
    for step in draw(st.lists(st.sampled_from(["relabel", "canonical", "flip"]), max_size=6)):
        if step == "relabel":
            order = relabel(order, draw(st.permutations(range(n))))
        elif step == "canonical":
            order = canonicalize(order)
        else:
            pairs = [pair for pair in flippable_pairs(order) if pair.left]
            if not pairs:
                continue
            order = flip(order, draw(st.sampled_from(pairs)))
        built.append(order)
    return built


@given(library_built_orders())
def test_library_built_orders_are_valid_afresh(built):
    """Each operation that marks its result valid unscanned is right to."""
    for order in built:
        assert_valid_afresh(order)


def test_first_n7_classes_are_valid_afresh():
    for order in first_classes_7():
        assert_valid_afresh(order)


@st.composite
def sign_matrices(draw):
    n = draw(st.integers(0, 4))
    row = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    return draw(st.lists(row, max_size=10)), n


@given(sign_matrices())
@example(([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], 3))  # a line of equalities: one ray
@example(([[1, -1], [-1, 1], [0, -1]], 2))  # cut down to {0}: no ray
def test_sign_matrix_rays_match_null_vector_oracle(case):
    rows, n = case
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    assert _extreme_rays(rows, n) == extreme_rays_by_null_vectors(rows + units, n)


@st.composite
def matrices_with_repeats(draw):
    """A {-1, 0, 1} matrix with some of its rows repeated and some zero rows."""
    n = draw(st.integers(0, 6))
    row = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [[0] * n] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@given(matrices_with_repeats())
@example([[1, 1, 0, 1], [-1, -1, 1, 0], [1, 1, 1, -1]])  # the second column has no pivot
def test_rank_int_matches_fraction_rref(rows):
    assert _rank_det(rows)[0] == rank_by_rref(rows)


@st.composite
def square_matrices(draw):
    """A small integer matrix, sometimes with a row that is the sum of two others."""
    size = draw(st.integers(0, 5))
    row = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    mat = draw(st.lists(row, min_size=size, max_size=size))
    if size >= 3 and draw(st.booleans()):
        mat[0] = [a + b for a, b in zip(mat[1], mat[2])]
    return draw(st.permutations(mat))


@given(square_matrices())
@example([[0, 1], [1, 0]])  # one row swap
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # one swap, then none
@example([[2, 4], [1, 2]])  # rank 1
def test_rank_det_matches_leibniz(mat):
    assert _rank_det(mat) == (rank_by_rref(mat), det_leibniz(mat))


def perturb(sigma, edits):
    """sigma with, for each (k, f), the antipodal pair of the k-th sign
    vector multiplied by f: zeroed for f = 0, flipped for f = -1."""
    vectors = sign_vectors(sigma.n)
    values = dict(sigma.values)
    for k, f in edits:
        values[vectors[k]] *= f
        values[negate(vectors[k])] *= f
    return Signature(sigma.n, values)


@st.composite
def perturbed_signatures(draw):
    """The signature of an enumerated order (n = 2..4, relabeled) or of a
    tied partial order, with a few antipodal pairs zeroed or flipped."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        order = draw(st.sampled_from(enumerated_classes(n)))
        order = relabel(order, draw(st.permutations(range(n))))
    else:
        weights = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        order = PartialTermOrder.from_weight(weights)
    half = 3**order.n // 2  # sign_vectors(n)[:half] holds one of each antipodal pair
    edit = st.tuples(st.integers(0, half - 1), st.sampled_from([0, -1]))
    return perturb(mu_from_order(order), draw(st.lists(edit, max_size=6)))


def zeroed_n5(order, seed):
    """An n=5 order signature with 40 seeded antipodal pairs zeroed."""
    picks = random.Random(seed).sample(range(3**5 // 2), 40)
    return perturb(mu_from_order(order), [(k, 0) for k in picks])


ZEROED_N5 = [
    zeroed_n5(order, seed)
    for order in (noncoherent_five(), order_from_weight((1, 2, 4, 8, 16), 5))
    for seed in (1, 2, 3)
]


def test_zeroed_n5_signatures_are_not_localizations():
    assert not any(check_localization(sigma) for sigma in ZEROED_N5)


@given(perturbed_signatures())
@example(signature_from_positives(3, nonorder_localization_three()))  # passes
@example(ZEROED_N5[0])
@example(ZEROED_N5[1])
@example(ZEROED_N5[2])
@example(ZEROED_N5[3])
@example(ZEROED_N5[4])
@example(ZEROED_N5[5])
def test_localization_matches_tuple_oracle(sigma):
    report = check_localization(sigma)
    assert report.ok == check_localization_tuples(sigma).ok
    if report.ok:
        return
    # the witness is a coline X, Y and sigma's 8 signs around it, none of
    # the patterns a one-element extension of rank 2 can have
    x, y, signs = report.witness
    assert not any(a and b for a, b in zip(x, y))
    combine = lambda a, b: tuple(a * u + b * v for u, v in zip(x, y))
    cycle = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    assert signs == tuple(sigma(combine(a, b)) for a, b in cycle)
    assert signs not in rank2_extension_patterns()


@given(perturbed_signatures(), st.data())
def test_localization_verdict_is_invariant_under_b_n(sigma, data):
    # a signed permutation of the coordinates permutes and reorients the
    # roots of B_n, which keeps weak elimination
    n = sigma.n
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    moved = {
        tuple(s * x[p] for s, p in zip(signs, perm)): v for x, v in sigma.values.items()
    }
    assert check_localization(Signature(n, moved)).ok == check_localization(sigma).ok


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=5))
def test_find_weight_induces_generic_order(weights):
    n = len(weights)
    try:
        order = order_from_weight(weights, n)
    except TieError:
        assume(False)
    assert order_from_weight(find_weight(order), n) == order


@given(st.lists(st.integers(1, 5), max_size=4))
def test_find_partial_weight_induces_tied_levels(weights):
    p = PartialTermOrder.from_weight(weights)
    assert PartialTermOrder.from_weight(find_partial_weight(p)).level == p.level


def test_comparisons_match_level_array_oracle(canonical_orders):
    orders = [TermOrder(0, (0,))] + [o for n in range(1, 6) for o in canonical_orders[n]]
    for order in orders + enumerated_classes(6)[:300]:
        comps = _comparisons(order)
        assert comps == comparisons_level_array(order)
        assert all(type(c) is tuple and all(type(v) is int for v in c) for c in comps)


@st.composite
def weight_program_orders(draw):
    """A weight order on n = 6..8, flipped a few times and relabeled, or the
    levels of a tied weight vector on n = 1..5, kept or broken."""
    if draw(st.booleans()):
        return draw(tied_level_arrays(max_n=5))
    n = draw(st.integers(6, 8))
    try:
        order = order_from_weight(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)), n)
    except TieError:
        assume(False)
    for _ in range(draw(st.integers(0, 3))):
        order = flip(order, draw(st.sampled_from([p for p in flippable_pairs(order) if p.left])))
    return relabel(order, draw(st.permutations(range(n))))


@given(weight_program_orders())
def test_comparisons_match_level_array_oracle_on_drawn_orders(order):
    assert _comparisons(order) == comparisons_level_array(order)


def contiguous(level):
    """The level array renumbered 0, 1, ... in the same order."""
    used = sorted(set(level))
    return tuple(used.index(lvl) for lvl in level)


@st.composite
def tied_level_arrays(draw, max_n=3, min_n=1):
    """Levels of a tied weight vector, kept, or with one subset moved to
    another level, or with two neighbouring levels merged; valid or not."""
    n = draw(st.integers(min_n, max_n))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    level = list(PartialTermOrder.from_weight(weights).level)
    top = max(level)
    kind = draw(st.sampled_from(["keep", "move", "merge"]))
    if kind == "move":
        level[draw(st.integers(1, len(level) - 1))] = draw(st.integers(1, top))
    elif kind == "merge" and top >= 2:
        low = draw(st.integers(1, top - 1))
        level = [lvl - (lvl > low) for lvl in level]
    return PartialTermOrder(n, contiguous(level))


@given(tied_level_arrays())
@example(PartialTermOrder(2, (0, 1, 2, 1)))  # {1}={1,2} without {-}={2}
@example(PartialTermOrder(2, (0, 1, 1, 1)))  # a step {-}<{1} that became a tie
def test_validate_partial_matches_quadruple_oracle(order):
    report = validate_partial(order)
    assert report.ok == validate_partial_quadruples(order).ok
    assert len(report.violations) == (not report.ok)
    for triple in report.violations:
        assert is_union_violation(order.level, triple)
        assert order.level[triple[0]] <= order.level[triple[1]]


@given(tied_level_arrays(max_n=8, min_n=3))
def test_union_scan_matches_list_scan_on_ties(order):
    expected = union_violation_list_scan(order.level, order.n)
    assert union_violation(order.level, order.n) == expected
    report = validate_partial(order)
    assert report.violations == ([] if expected is None else [expected])
    if order.n <= 4:
        assert report.ok == validate_partial_quadruples(order).ok


@st.composite
def coarsenings(draw):
    """A level array and a coarsening of it: neighbouring levels above the
    empty set merged at random, then perhaps one subset moved, or the trivial
    partition."""
    fine = draw(tied_level_arrays(max_n=4))
    if draw(st.integers(0, 9)) == 0:
        return fine, PartialTermOrder.trivial(fine.n), True
    coarse_of = [0, 1]
    for _ in range(max(fine.level) - 1):
        coarse_of.append(coarse_of[-1] + draw(st.booleans()))
    level = [coarse_of[lvl] for lvl in fine.level]
    moved = draw(st.booleans())
    if moved:
        level[draw(st.integers(1, len(level) - 1))] = draw(st.integers(1, max(level)))
    return fine, PartialTermOrder(fine.n, contiguous(level)), not moved


@given(coarsenings())
def test_refines_matches_pair_oracle(case):
    fine, coarse, merged_only = case
    assert refines(fine, coarse) == refines_pairs(fine, coarse)
    assert refines(coarse, fine) == refines_pairs(coarse, fine)
    if merged_only:
        assert refines(fine, coarse)


def spellings(mask):
    """The file spelling of a subset, or one that only parse_subset reads."""
    if mask == 0:
        return st.just(format_subset(0))
    return st.sampled_from(["{}", " {} ", "+{}", "0{}"]).map(
        lambda form: ",".join(form.format(e) for e in elements(mask))
    )


@st.composite
def order_texts(draw):
    """Text near the order-file format: header, '='-joined levels, comments, noise."""
    n = draw(st.integers(0, 3))
    masks = draw(st.permutations(range(1 << n)))
    lines = []
    while masks:
        k = draw(st.integers(1, 3))
        lines.append("=".join(draw(spellings(m)) for m in masks[:k]))
        masks = masks[k:]
    if draw(st.booleans()):
        lines.insert(0, f"n={draw(st.integers(-2, 20))}")
    noise = st.text(alphabet="0123456789,-=#n \t", max_size=8)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines)


file_texts = st.one_of(st.text(max_size=60), order_texts())


@given(file_texts)
@example("n=3\n-\n+1\n02\n 1 , 2 \n3\n1,3\n2,3\n1,2,3")
@example("n=2\n-\n1\n2 = 01\n1,2")  # the duplicate is found through parse_subset
def test_any_text_parses_or_raises_parse_error(text):
    try:
        expected = read_levels_scan(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            read_levels(text)
        assert str(info.value) == str(exc)
    else:
        assert read_levels(text) == expected
    for parse in (parse_order, parse_partial):
        try:
            order = parse(text)
        except ParseError:
            continue
        assert isinstance(order, (TermOrder, PartialTermOrder))


@st.composite
def rank_arrays(draw):
    """Any total order shape, valid or not."""
    n = draw(st.integers(0, 4))
    return TermOrder.from_chain(n, draw(st.permutations(range(1 << n))))


@given(rank_arrays())
def test_parse_order_inverts_serialize(order):
    assert parse_order(serialize_order(order)) == order


@given(st.lists(st.integers(1, 4), max_size=4))
def test_parse_partial_inverts_serialize(weights):
    p = PartialTermOrder.from_weight(weights)
    assert parse_partial(serialize_partial(p)).level == p.level


@st.composite
def relabeled_classes(draw):
    """An enumerated class on n = 0..6 elements (the first 2000 for n = 6),
    relabeled at random."""
    n = draw(st.integers(0, 6))
    order = draw(st.sampled_from(enumerated_classes(n)))
    return relabel(order, draw(st.permutations(range(n))))


@given(relabeled_classes())
def test_one_writer_keeps_total_order_bytes(order):
    text = serialize_order(order)
    assert text == serialize_order_chain(order)
    assert parse_order(text) == order
    assert parse_partial(text) == PartialTermOrder.from_total(order)


@given(st.lists(st.integers(1, 4), max_size=6))
@example([1, 1, 2, 3, 3, 4])  # n = 6 with ties on many levels
def test_one_writer_keeps_partial_order_bytes(weights):
    p = PartialTermOrder.from_weight(weights)
    text = serialize_partial(p)
    assert text == serialize_order(p) == serialize_partial_levels(p)
    assert parse_partial(text) == p


def test_partial_order_from_a_list_is_the_tuple_one():
    listed = PartialTermOrder(2, [0, 1, 2, 3])
    tupled = PartialTermOrder(2, (0, 1, 2, 3))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert isinstance(listed.level, tuple)


@given(
    st.sampled_from(["validate", "coherence", "flips", "localize", "baues"]),
    file_texts,
)
def test_cli_exit_codes_on_any_file(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "order.bto"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
    assert code in (0, 1, 2)
