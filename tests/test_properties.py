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
    _constraints,
    find_weight,
    noncoherence_certificate,
    order_from_weight,
    verify_certificate,
)
from booltermorders.core import (
    ParseError,
    TermOrder,
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
from booltermorders.flips import flip, flippable_pairs
from booltermorders.omatroid import (
    Signature,
    check_localization,
    mu_from_order,
    negate,
    sign_vectors,
)
from oracles import (
    check_localization_tuples,
    det_leibniz,
    extreme_rays_by_null_vectors,
    first_violation_list_scan,
    rank2_extension_patterns,
    fraction_solve_eq,
    is_union_violation,
    is_valid_all_gammas,
    rank_by_rref,
    read_levels_scan,
    refines_pairs,
    relabel_image_table,
    singleton_axioms_two_lists,
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
    """``lp.farkas_ge`` through the same dual program, solved by the oracle."""
    n = len(A[0]) if A else 0
    extended = [list(a) + [beta] for a, beta in zip(A, b)]
    columns = [[row[j] for row in extended] for j in range(n + 1)]
    status, lam, _ = fraction_solve_eq(columns, [0] * n + [1], [0] * len(A))
    return lam if status == "optimal" else None


def test_farkas_matches_fraction_oracle(canonical_orders):
    for n in range(1, 5):
        for order in canonical_orders[n]:
            rows, rhs = _constraints(order)
            assert lp.farkas_ge(rows, rhs) == farkas_by_fraction_oracle(rows, rhs)


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
    status, y, obj = lp.maximize_dual(A, b, c)
    assert (status, spread(y), obj) == lp.maximize_dual(A2, b2, c)


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
@example((TermOrder(0, (0,)), []))
def test_relabel_matches_image_table(case):
    order, perm = case
    assert relabel(order, perm) == relabel_image_table(order, perm)


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
@example(Signature.from_positives(3, nonorder_localization_three()))  # passes
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
