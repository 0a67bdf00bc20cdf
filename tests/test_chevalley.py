import itertools
import random

import pytest

from delpair.chevalley import ChevalleyTable, build_table, jacobi_failures
from delpair.rootsys import build_root_system, parse_diagram
from oracles import (
    LieElement,
    RootKeyedChevalleyTable,
    bracket,
    eager_structure_constants,
    jacobiator_terms,
    minus,
    neg,
    plus,
    string_p,
    table_constant,
    times,
    unfiltered_jacobi_failures,
)

SYSTEMS = ["A2", "A4", "B2", "B4", "C3", "D5", "E6", "E7", "F4", "G2", "B12", "D12"]


def table(literal):
    return build_table(build_root_system(parse_diagram(literal)))


def summing_pairs(rs):
    """Every ordered pair of roots whose sum is a root, in sorted order."""
    positives = sorted(rs.positive_roots)
    roots = positives + [neg(r) for r in positives]
    return [(a, b) for a in roots for b in roots if rs.is_root(plus(a, b))]


@pytest.mark.parametrize("literal", SYSTEMS)
def test_constants_satisfy_p_plus_one(literal):
    tab = table(literal)
    for a, b in summing_pairs(tab.rs):
        assert abs(table_constant(tab, a, b)) == string_p(tab.rs, a, b) + 1


@pytest.mark.parametrize("literal", SYSTEMS)
def test_antisymmetry_and_negation_rule(literal):
    tab = table(literal)
    for a, b in summing_pairs(tab.rs):
        n = table_constant(tab, a, b)
        assert table_constant(tab, b, a) == -n
        assert table_constant(tab, neg(a), neg(b)) == -n


@pytest.mark.parametrize("literal", SYSTEMS + ["A1+A2", "B3+G2"])
def test_constants_match_the_eager_sweep(literal):
    tab = table(literal)
    eager = eager_structure_constants(tab.rs)
    assert list(eager) == summing_pairs(tab.rs)
    assert all(table_constant(tab, a, b) == n for (a, b), n in eager.items())


@pytest.mark.parametrize("literal", ["B4", "F4", "G2", "E7"])
def test_query_order_does_not_change_constants(literal):
    rs = build_root_system(parse_diagram(literal))
    pairs = summing_pairs(rs)
    shuffled = pairs[:]
    random.Random(f"order-{literal}").shuffle(shuffled)
    first, second = ChevalleyTable(rs), ChevalleyTable(rs)
    by_shuffled = {(a, b): table_constant(first, a, b) for a, b in shuffled}
    assert by_shuffled == {(a, b): table_constant(second, a, b) for a, b in pairs}


def test_constant_refuses_pairs_outside_the_table():
    tab = table("B2")
    a1 = (1, 0)
    with pytest.raises(ValueError, match=r"^\(1, 0\) \+ \(-1, 0\) is not a root$"):
        table_constant(tab, a1, neg(a1))            # a + b = 0
    with pytest.raises(ValueError, match="not a root"):
        table_constant(tab, a1, a1)                 # a + b = 2 a1 is not a root
    with pytest.raises(ValueError, match=r"^\(2, 0\) or \(-1, 0\) is not a root$"):
        table_constant(tab, times(2, a1), neg(a1))  # a is not a root, a + b = a1 is


def test_a2_constant_is_unit():
    tab = table("A2")
    assert abs(table_constant(tab, (1, 0), (0, 1))) == 1


def test_b2_constant_is_two():
    # p = 1: (a1+a2) - a2 is a root, (a1+a2) - 2 a2 is not
    tab = table("B2")
    rs = tab.rs
    assert rs.is_root(minus((1, 1), (0, 1)))
    assert not rs.is_root(minus((1, 1), (0, 2)))
    assert abs(table_constant(tab, (0, 1), (1, 1))) == 2


@pytest.mark.parametrize("literal", ["A4", "D5", "E6", "E7"])
def test_simply_laced_constants_are_units(literal):
    tab = table(literal)
    assert all(abs(table_constant(tab, a, b)) == 1 for a, b in summing_pairs(tab.rs))


def test_e7_triple_bracket_lands_on_the_sum():
    tab = table("E7")
    rs = tab.rs
    e5, e6, e7 = (LieElement.root_vector(rs.simple_root(l)) for l in ("a5", "a6", "a7"))
    value = bracket(e5, bracket(e6, e7, tab), tab)
    target = (0, 0, 0, 0, 1, 1, 1)
    assert target in rs.positive_roots
    assert value.root_support() == {target}
    assert abs(value.coefficient(("e", target))) == 1


def test_bracket_of_vector_with_itself_vanishes():
    tab = table("A2")
    x = LieElement.root_vector((1, 0))
    assert bracket(x, x, tab).is_zero


def test_bracket_bilinear_and_weight_additive():
    tab = table("B4")
    rs = tab.rs
    roots = sorted(rs.positive_roots)
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.choice(roots), rng.choice(roots)
        x, y = LieElement.root_vector(a), LieElement.root_vector(b)
        v = bracket(x, y, tab)
        assert v.root_support() <= {plus(a, b)}
        v2 = bracket(x + y, y, tab)
        assert v2 == bracket(x, y, tab) + bracket(y, y, tab)


def test_cartan_brackets():
    tab = table("B2")
    rs = tab.rs
    for alpha in rs.positive_roots:
        x = LieElement.root_vector(alpha)
        y = LieElement.root_vector(neg(alpha))
        h = bracket(x, y, tab)
        assert h.root_support() == set()
        assert not h.is_zero
        # [h_alpha, e_alpha] = <alpha, alpha> e_alpha = 2 e_alpha
        back = bracket(h, x, tab)
        assert back == x + x


def _oracle_basis(rs):
    """Root vectors of the sorted positive roots, of their negatives, then the
    simple coroots, as oracle Lie elements: the order basis_bracket indexes."""
    roots = sorted(rs.positive_roots)
    return ([LieElement.root_vector(r) for r in roots]
            + [LieElement.root_vector(neg(r)) for r in roots]
            + [LieElement.coroot(i) for i in range(rs.diagram.rank)])


@pytest.mark.parametrize("literal", SYSTEMS)
def test_jacobi_on_seeded_triples(literal):
    tab = table(literal)
    basis = _oracle_basis(tab.rs)
    rng = random.Random(f"jacobi-{literal}")
    triples = [tuple(rng.choice(range(len(basis))) for _ in range(3)) for _ in range(1000)]
    for i, j, k in triples:
        x, y, z = basis[i], basis[j], basis[k]
        total = (bracket(bracket(x, y, tab), z, tab)
                 + bracket(bracket(y, z, tab), x, tab)
                 + bracket(bracket(z, x, tab), y, tab))
        assert total.is_zero
    assert jacobi_failures(tab, triples) == 0


@pytest.mark.parametrize("literal", ["A4", "B4", "D5", "E6", "E7", "C3", "F4", "G2",
                                     "B3+G2"])
def test_basis_bracket_matches_oracle_bracket(literal):
    tab = table(literal)
    basis = _oracle_basis(tab.rs)
    assert tab.dimension == len(basis)
    key_index = {x.terms[0][0]: k for k, x in enumerate(basis)}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            expected = {key_index[key]: c for key, c in bracket(x, y, tab).terms}
            got = tab.basis_bracket(i, j)
            assert dict(got) == expected, (literal, i, j)
            assert len(got) == len(expected)
            assert all(c != 0 for _, c in got)


@pytest.mark.parametrize("literal", ["A4", "B4", "C3", "D5", "E6", "E7", "F4", "G2",
                                     "B3+G2"])
def test_index_kernel_matches_root_keyed_recursion(literal):
    rs = build_root_system(parse_diagram(literal))
    tab, oracle = ChevalleyTable(rs), RootKeyedChevalleyTable(rs)
    assert tab.basis_roots == oracle.basis_roots
    dim = tab.dimension
    for i in range(dim):
        for j in range(dim):
            assert tab.basis_bracket(i, j) == oracle.basis_bracket(i, j), (literal, i, j)


def test_jacobi_failures_sees_one_flipped_constant():
    rs = build_root_system(parse_diagram("A4"))
    every = list(itertools.product(range(24), repeat=3))
    assert ChevalleyTable(rs).dimension == 24
    assert jacobi_failures(ChevalleyTable(rs), every) == 0
    tab = ChevalleyTable(rs)
    # flip N_{a,b} in the bracket [e_a, e_b] alone, not in [e_b, e_a]
    a, b = map(tab.basis_roots.index, ((1, 0, 0, 0), (0, 1, 0, 0)))
    true_bracket = tab.basis_bracket

    def flipped(i, j):
        terms = true_bracket(i, j)
        return tuple((k, -c) for k, c in terms) if (i, j) == (a, b) else terms

    tab.basis_bracket = flipped
    assert jacobi_failures(tab, every) == unfiltered_jacobi_failures(tab, every) > 0


LIVE_SYSTEMS = ["A4", "B4", "D5", "E6", "E7", "C3", "F4", "G2", "E8", "B3+G2"]


def _seeded_triples(tab, count=1500):
    """Seeded basis index triples, each with its weight sum: a coroot's
    weight is 0, and the sum is added on coefficient tuples."""
    rank = tab.rs.diagram.rank
    weights = list(tab.basis_roots) + [(0,) * rank] * rank
    rng = random.Random(f"live-{tab.rs.diagram.literal()}")
    triples = [tuple(rng.randrange(tab.dimension) for _ in range(3)) for _ in range(count)]
    return [(t, plus(plus(weights[t[0]], weights[t[1]]), weights[t[2]])) for t in triples]


@pytest.mark.parametrize("literal", LIVE_SYSTEMS)
def test_jacobi_failures_evaluates_exactly_the_weight_live_triples(literal):
    # a bracket that is one nonzero term everywhere makes every evaluated
    # triple a failure, so the count is the number of triples kept
    tab = fresh(literal)
    seeded = _seeded_triples(tab)
    zero, roots = (0,) * tab.rs.diagram.rank, set(tab.basis_roots)
    at_zero = sum(sigma == zero for _, sigma in seeded)
    at_root = sum(sigma in roots for _, sigma in seeded)
    assert at_zero > 0 and at_root > 0 and at_zero + at_root < len(seeded)
    tab.basis_bracket = lambda i, j: ((0, 1),)
    assert jacobi_failures(tab, [t for t, _ in seeded]) == at_zero + at_root


@pytest.mark.parametrize("literal", LIVE_SYSTEMS)
def test_dropped_triples_have_no_jacobiator_term(literal):
    # grading: a triple whose weights sum to neither 0 nor a root has no
    # nonzero term, so the filter counts as the unfiltered oracle does, on the
    # true table and with [e_a, e_b] negated whenever a comes before b
    tab = fresh(literal)
    seeded = _seeded_triples(tab)
    zero, roots = (0,) * tab.rs.diagram.rank, set(tab.basis_roots)
    dropped = [t for t, sigma in seeded if sigma != zero and sigma not in roots]
    assert dropped and all(jacobiator_terms(tab, *t) == [] for t in dropped)
    triples = [t for t, _ in seeded]
    assert jacobi_failures(tab, triples) == unfiltered_jacobi_failures(tab, triples) == 0
    m = len(tab.basis_roots)
    true_bracket = tab.basis_bracket
    tab.basis_bracket = lambda i, j: (tuple((k, -c) for k, c in true_bracket(i, j))
                                      if i < j < m else true_bracket(i, j))
    assert jacobi_failures(tab, triples) == unfiltered_jacobi_failures(tab, triples) > 0


def test_extraspecial_seed_signs_are_positive():
    # the lexicographically minimal decomposition of each positive root
    # carries the positive constant
    tab = table("D5")
    rs = tab.rs
    positives = sorted(rs.positive_roots)
    pos_set = set(positives)
    for rho in positives:
        if sum(rho) == 1:
            continue
        first = min(a for a in positives if a < minus(rho, a) and minus(rho, a) in pos_set)
        assert table_constant(tab, first, minus(rho, first)) > 0


# Each internal assertion of the recursion, seen to fire on one fresh table
# with a broken sum or norm; the fourth, a non-integral coroot, fires through
# `delpair run-all` in tests/test_cli.py.

def fresh(literal):
    return ChevalleyTable(build_root_system(parse_diagram(literal)))


def test_a_root_without_positive_summands_has_no_extraspecial_pair():
    # no sum with a negative root is seen, so a1 + a2 - alpha is never a root
    tab = fresh("A2")
    n, true_sum = tab._n, tab._sum
    tab._sum = lambda i, j: None if j >= n else true_sum(i, j)
    with pytest.raises(AssertionError, match=r"^no decomposition of \(1, 1\) into positives$"):
        table_constant(tab, (1, 0), (0, 1))


def test_a_jacobi_identity_with_no_term_to_solve_from_fails():
    # hiding that (0, 1, 1) - (0, 0, 1) is a root leaves the Jacobi identity
    # on ((0, 1, 1), (1, 0, 0), -(0, 0, 1)) with N_{xi,eta} alone, times 0
    tab = fresh("A3")
    index, true_sum = tab.basis_roots.index, tab._sum
    hidden = (index((0, 1, 1)), index((0, 0, -1)))
    tab._sum = lambda i, j: None if (i, j) == hidden else true_sum(i, j)
    with pytest.raises(AssertionError,
                       match=r"^Jacobi reduction failed on \(\(0, 1, 1\), \(1, 0, 0\)\)$"):
        table_constant(tab, (0, 1, 1), (1, 0, 0))


def test_a_length_ratio_that_is_no_integer_fails():
    # |a1 + a2|^2 = 3 against |a1|^2 = 2: N_{a1+a2,-a2} = -2 N_{a2,a1}/3
    tab = fresh("A2")
    tab._norm[tab.basis_roots.index((1, 1))] = 3
    with pytest.raises(AssertionError,
                       match=r"^non-integral mixed constant for \(\(1, 1\), \(0, -1\)\)$"):
        table_constant(tab, (1, 1), (0, -1))


@pytest.mark.parametrize("literal", ["A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"])
def test_packed_sum_is_the_tuple_sum(literal):
    # every ordered pair of basis roots: the sum of two packed coefficient
    # tuples, looked up, against the sum of the tuples themselves
    tab = table(literal)
    roots = tab.basis_roots
    index = {r: k for k, r in enumerate(roots)}
    hits = 0
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            expected = index.get(plus(a, b))
            assert tab._sum(i, j) == expected, (a, b)
            hits += expected is not None
    assert hits == len(summing_pairs(tab.rs))
