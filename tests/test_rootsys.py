import itertools
import random
import re

import pytest
from fractions import Fraction

from delpair import pairs, rootsys
from delpair.rootsys import (
    ChainError,
    Component,
    DiagramError,
    DynkinDiagram,
    MarkError,
    MarkedDiagram,
    PACK_BOUND,
    RootSystem,
    build_root_system,
    canonical_mark_position,
    delete_chain,
    descriptor,
    is_hyperquadric,
    parse_diagram,
    packing,
    parse_marked,
    space_name,
    _generate,
    _highest_root_coefficients,
)
from delpair.chevalley import build_table
from delpair.labs import reflection_failures
from delpair.report import MAX_RANK
from oracles import (
    FractionRootSystem,
    closed_form_positive_count,
    component_roots,
    highest_root,
    minus,
    neg,
    plus,
    reflection_closure_positive_roots,
    regex_parse_diagram,
    scaled_simple_reflect,
    shape_rule_components,
    support,
    symmetrized_form,
    table_coroot,
    three_reflection_fails,
    times,
    tuple_root_strings,
    unit,
)

ORACLE_LITERALS = [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)] + [
    f"D{n}" for n in range(4, 7)] + ["E6", "E7", "E8", "C3", "C4", "F4", "G2"]
KERNEL_LITERALS = ORACLE_LITERALS + ["B12", "D12", "A1+A2", "B3+G2"]
CONNECTED_LITERALS = [f"A{n}" for n in range(1, 21)] + [f"B{n}" for n in range(2, 21)] + [
    f"C{n}" for n in range(3, 21)] + [f"D{n}" for n in range(4, 21)] + [
    "E6", "E7", "E8", "F4", "G2"]
PRODUCT_LITERALS = ["C3+G2+B4", "B3+G2", "A1+A2", "F4+C5+D4", "G2+G2+E6"]
# t, the largest relative squared length of a simple root, per type letter
FORM_SCALES = {"A": 1, "B": 2, "C": 2, "D": 1, "E": 1, "F": 2, "G": 3}


def shuffled(literal: str, seed: int) -> DynkinDiagram:
    """The diagram of a literal with its nodes listed in a seeded random order,
    so that Bourbaki labels and node positions disagree."""
    diagram = parse_diagram(literal)
    order = list(diagram.nodes)
    random.Random(seed).shuffle(order)
    pos = {a: i for i, a in enumerate(order)}
    edges = frozenset((u, v, m, arrow) if pos[u] < pos[v] else (v, u, m, arrow)
                      for u, v, m, arrow in diagram.edges)
    return DynkinDiagram(tuple(order), edges)


@pytest.fixture(scope="module")
def typed_diagrams(catalog12):
    """Every connected type up to rank 20 in shuffled node order, products of
    types, and every ambient and sub-diagram of the rank-12 catalog."""
    diagrams = {shuffled(lit, k) for k, lit in enumerate(CONNECTED_LITERALS)}
    diagrams |= {parse_diagram(lit) for lit in PRODUCT_LITERALS}
    diagrams |= {shuffled(lit, 99) for lit in PRODUCT_LITERALS}
    diagrams |= {md.diagram for pair in catalog12 for md in (pair.ambient, pair.sub)}
    return sorted(diagrams, key=lambda d: (d.rank, d.nodes))


def test_a2_positive_roots_by_hand():
    rs = build_root_system(parse_diagram("A2"))
    assert rs.positive_roots == {(1, 0), (0, 1), (1, 1)}


def test_b2_positive_roots_by_hand():
    rs = build_root_system(parse_diagram("B2"))
    assert rs.positive_roots == {(1, 0), (0, 1), (1, 1), (1, 2)}


@pytest.mark.parametrize("literal", ORACLE_LITERALS)
def test_positive_roots_match_reflection_closure_oracle(literal):
    diagram = parse_diagram(literal)
    rs = build_root_system(diagram)
    oracle = reflection_closure_positive_roots(diagram)
    assert rs.positive_roots == oracle
    assert len(rs.positive_roots) == closed_form_positive_count(diagram)


def test_e7_has_63_positive_roots():
    assert len(build_root_system(parse_diagram("E7")).positive_roots) == 63


def test_disconnected_diagram_roots_are_componentwise():
    rs = build_root_system(parse_diagram("A1+A2"))
    assert len(rs.positive_roots) == 1 + 3
    for r in rs.positive_roots:
        assert set(support(r)) <= {0} or set(support(r)) <= {1, 2}


def test_unclassifiable_diagram_reports_component():
    # a 4-cycle is no Dynkin diagram
    edges = frozenset({("a1", "a2", 1, None), ("a2", "a3", 1, None),
                       ("a3", "a4", 1, None), ("a1", "a4", 1, None)})
    with pytest.raises(DiagramError, match="cycle"):
        DynkinDiagram(("a1", "a2", "a3", "a4"), edges)


@pytest.mark.parametrize("nodes, edges, message", [
    (("a1", "a1"), (), "duplicate node labels"),
    (("a1", "a2"), (("a1", "a3", 1, None),), r"bad edge endpoints \(a1, a3\)"),
    (("a1", "a2"), (("a1", "a1", 1, None),), r"bad edge endpoints \(a1, a1\)"),
    (("a1", "a2"), (("a2", "a1", 1, None),), r"edge \(a2, a1\) not in node order"),
    (("a1", "a2"), (("a1", "a2", 1, None), ("a1", "a2", 2, "a2")),
     "parallel edges between a1 and a2"),
    (("a1", "a2"), (("a1", "a2", 4, "a2"),), "bond multiplicity 4 out of range"),
    (("a1", "a2"), (("a1", "a2", 2, None),), "multiple bond needs an arrow endpoint"),
    (("a1", "a2"), (("a1", "a2", 3, "a3"),), "multiple bond needs an arrow endpoint"),
])
def test_diagram_refuses_malformed_nodes_and_edges(nodes, edges, message):
    with pytest.raises(DiagramError, match=f"^{message}$"):
        DynkinDiagram(nodes, frozenset(edges))


def test_simple_edge_cannot_carry_arrow():
    with pytest.raises(DiagramError, match="^multiplicity-1 edges carry no arrow$"):
        DynkinDiagram(("a1", "a2"), frozenset({("a1", "a2", 1, "a2")}))


# -- pairings and reflections -------------------------------------------------

def test_pairing_normalization():
    for literal in ("A3", "B3", "G2"):
        rs = build_root_system(parse_diagram(literal))
        for alpha in rs.positive_roots:
            assert rs.pairing(alpha, alpha) == 2


def test_pairing_adjacent_simply_laced():
    rs = build_root_system(parse_diagram("A2"))
    assert rs.pairing((1, 0), (0, 1)) == -1
    assert rs.pairing((1, 0), (0, 2)) == Fraction(-1, 2)   # not a root


def test_pairing_composite_root_value_in_e7():
    # <a6, a7+a6+a5> = -1 + 2 - 1 = 0
    rs = build_root_system(parse_diagram("E7"))
    composite = (0, 0, 0, 0, 1, 1, 1)
    assert rs.is_root(composite)
    assert rs.pairing(rs.simple_root("a6"), composite) == 0


def test_pairing_rejects_zero():
    rs = build_root_system(parse_diagram("A2"))
    with pytest.raises(ValueError):
        rs.pairing((1, 0), (0, 0))


def test_pairing_additive_in_first_argument():
    rs = build_root_system(parse_diagram("B4"))
    rng = random.Random(11)
    roots = sorted(rs.positive_roots)
    for _ in range(200):
        a, b, g = rng.choice(roots), rng.choice(roots), rng.choice(roots)
        assert rs.pairing(plus(a, b), g) == rs.pairing(a, g) + rs.pairing(b, g)


def test_reflection_negates_own_root():
    rs = build_root_system(parse_diagram("D5"))
    for i in range(5):
        alpha = unit(i, 5)
        assert rs.reflect(i, alpha) == neg(alpha)


def test_reflection_involution_and_closure_all_systems():
    for literal in ORACLE_LITERALS:
        rs = build_root_system(parse_diagram(literal))
        for r in rs.positive_roots:
            for i in range(rs.diagram.rank):
                image = rs.reflect(i, r)
                assert rs.is_root(image)
                assert rs.reflect(i, image) == r


def test_one_reflection_check_matches_three_reflection_oracle():
    # roots of both signs, where no check fails, and twice each root, which is
    # never a root, so every check fails
    for literal in ORACLE_LITERALS:
        rs = build_root_system(parse_diagram(literal))
        swept = [v for r in rs.positive_roots for v in (r, neg(r), times(2, r))]
        failures = set(reflection_failures(rs, swept))
        for r in rs.positive_roots:
            for v in (r, neg(r), times(2, r)):
                for i in range(rs.diagram.rank):
                    assert rs.reflect(i, v) == scaled_simple_reflect(rs, i, v)
                    expected = three_reflection_fails(rs, v, i)
                    assert ((v, i) in failures) == expected
                    assert expected == (v == times(2, r)), (literal, v, i)


def test_reflection_known_values_in_e7():
    rs = build_root_system(parse_diagram("E7"))
    a7 = rs.simple_root("a7")
    assert rs.reflect("a6", a7) == (0, 0, 0, 0, 0, 1, 1)
    # s_{a6}(a7 + 2 a6 + 2 a5 + Sigma) = a7 + a6 + 2 a5 + Sigma for every root
    # of that shape (gamma = a7, gamma0 = a6, theta = a5, Sigma over a1..a4)
    found = 0
    for v in rs.positive_roots:
        if v[4] == 2 and v[5] == 2 and v[6] == 1:
            assert rs.reflect("a6", v) == minus(v, rs.simple_root("a6"))
            found += 1
    assert found > 0


def test_roots_reachable_by_simple_steps():
    for literal in ("B4", "E6"):
        rs = build_root_system(parse_diagram(literal))
        n = rs.diagram.rank
        for r in rs.positive_roots:
            if sum(r) > 1:
                assert any(minus(r, unit(i, n)) in rs.positive_roots for i in range(n))


# -- the integer kernel against the Fraction oracle ---------------------------

def node_scales(diagram: DynkinDiagram) -> list[int]:
    """Per node, the scale t of its component."""
    return [FORM_SCALES[diagram.component_of(a).letter] for a in diagram.nodes]


def assert_form_is_scaled_symmetrized_form(diagram: DynkinDiagram) -> None:
    """B = t S on every component, t the component's own scale."""
    S, B, t = symmetrized_form(diagram), diagram.integer_form, node_scales(diagram)
    assert all(type(b) is int and b == t_i * x for t_i, row_b, row_s in zip(t, B, S)
               for b, x in zip(row_b, row_s)), diagram.literal()


@pytest.mark.parametrize("literal, scale", [("B3", 2), ("C3", 2), ("F4", 2), ("G2", 3)])
def test_integer_form_is_minimal_multiple_of_symmetrized_form(literal, scale):
    # t is the least multiple of S with an even diagonal, so that every row
    # B_ij = (B_ii / 2) C_ij is integral; for B_n, S itself is integral but
    # its short root has S_ii = 1
    diagram = parse_diagram(literal)
    assert node_scales(diagram) == [scale] * diagram.rank
    assert_form_is_scaled_symmetrized_form(diagram)
    S = symmetrized_form(diagram)
    for smaller in range(1, scale):
        assert any((smaller * S[i][i] / 2).denominator != 1 for i in range(diagram.rank))


def test_integer_form_scales_b3_and_g2_apart():
    # each component keeps its own multiple: B3's rows are 2 S, G2's 3 S
    diagram = parse_diagram("B3+G2")
    assert node_scales(diagram) == [2, 2, 2, 3, 3]
    assert_form_is_scaled_symmetrized_form(diagram)


@pytest.mark.parametrize("literal", KERNEL_LITERALS)
def test_integer_kernel_matches_fraction_oracle(literal):
    diagram = parse_diagram(literal)
    rs = build_root_system(diagram)
    oracle = FractionRootSystem(diagram)
    assert rs.positive_roots == oracle.positive_roots
    roots = sorted(rs.positive_roots)
    for gamma in roots:
        t = node_scales(diagram)[support(gamma)[0]]     # gamma lies in one component
        assert rs.scaled_norm(gamma) == t * oracle.bilinear(gamma, gamma)
        for beta in roots:
            value = rs.pairing(beta, gamma)
            assert value == oracle.pairing(beta, gamma)
            assert type(value) is int or value.denominator != 1
    table = build_table(rs)
    for alpha in roots:
        assert table_coroot(table, alpha) == oracle.coroot_coefficients(alpha)
        assert table_coroot(table, neg(alpha)) == oracle.coroot_coefficients(neg(alpha))


def test_embedded_type_roots_match_root_strings_on_own_cartan(typed_diagrams):
    for diagram in typed_diagrams:
        generated = set(tuple_root_strings(diagram.cartan_matrix))
        assert build_root_system(diagram).positive_roots == generated, diagram.literal()


def test_packed_root_strings_match_tuple_oracle_in_order():
    for literal in CONNECTED_LITERALS + ["C2"]:
        cartan = parse_diagram(literal).cartan_matrix
        assert _generate(cartan) == tuple_root_strings(cartan), literal


def test_packed_root_strings_keep_a_coefficient_past_a_narrower_digit():
    # no finite type, but the walk ends: alpha_3 + k alpha_1 is a root for
    # k <= 5 and nothing else is.  Each root is reached along one string only,
    # so a step key packed in fewer bits, where 4 alpha_1 reads as alpha_2,
    # would report alpha_2 + alpha_3 + 4 alpha_1 and more as roots.
    cartan = ((2, 0, -5), (0, 2, 0), (0, 0, 2))
    expected = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [(k, 0, 1) for k in range(1, 6)]
    assert _generate(cartan) == tuple_root_strings(cartan) == expected


def test_packed_root_strings_refuse_a_coefficient_past_the_digit():
    # the affine A1 matrix has the real roots k alpha_1 + (k + 1) alpha_2 for
    # every k >= 0, so its root strings grow until a coefficient would pass 7
    with pytest.raises(AssertionError, match="exceeds 7"):
        _generate(((2, -2), (-2, 2)))


def test_packed_root_strings_take_coefficients_up_to_the_pack_bound():
    # no finite type: with <alpha_2, alpha_1> = -m, alpha_2 + k alpha_1 is a
    # root for k <= m and nothing else is, so m = 7 reaches the bound and
    # m = 8 passes it
    cartan = ((2, -7), (0, 2))
    expected = [(1, 0), (0, 1)] + [(k, 1) for k in range(1, 8)]
    assert _generate(cartan) == tuple_root_strings(cartan) == expected
    with pytest.raises(AssertionError, match="^a root coefficient exceeds 7,"):
        _generate(((2, -8), (0, 2)))


def test_packing_orders_as_tuples_and_steps_without_carry():
    # random tuples with coefficients in -7..7, every root's range: each
    # packed digit, most significant first in base 32, is the coefficient
    # plus 16, so pack(a) +- step(b) is pack(a +- b) with coefficients in
    # -14..14, and packed tuples and sums order as the tuples do
    rng = random.Random(35)
    for n in (1, 2, 5, 8):
        pk = packing(n)
        draws = [tuple(rng.randint(-PACK_BOUND, PACK_BOUND) for _ in range(n))
                 for _ in range(300)]
        tuples = set(draws)
        for a, b in zip(draws, draws[1:]):
            for sign in (1, -1):
                moved = tuple(x + sign * y for x, y in zip(a, b))
                assert pk.pack(a) + sign * pk.step(b) == pk.pack(moved)
                tuples.add(moved)
        for c in tuples:
            key = pk.pack(c)
            assert [key // 32 ** (n - 1 - t) % 32 - 16 for t in range(n)] == list(c)
        assert sorted(tuples, key=pk.pack) == sorted(tuples)
        assert pk.pack((0,) * n) == pk.zero and packing(n) is pk


def test_integer_form_matches_fraction_symmetrizer(typed_diagrams):
    for diagram in typed_diagrams:
        assert_form_is_scaled_symmetrized_form(diagram)


def maximal_component_roots(rs, comp):
    """Roots of a component that no simple root of the component raises."""
    croots = component_roots(rs, comp)
    raises = [unit(rs.diagram.index[a], rs.diagram.rank) for a in comp.labels]
    return [r for r in croots if all(plus(r, s) not in croots for s in raises)]


def test_highest_root_matches_uncached_scan(typed_diagrams):
    for diagram in typed_diagrams:
        rs = build_root_system(diagram)
        for comp in diagram.components:
            top = highest_root(rs, comp)
            assert maximal_component_roots(rs, comp) == [top]
            at_labels = tuple(top[diagram.index[a]] for a in comp.labels)
            assert _highest_root_coefficients(comp.letter, comp.rank) == at_labels, comp


def test_marks_are_checked_without_building_root_systems(monkeypatch):
    def refuse(self, diagram):
        raise AssertionError("a mark check built a root system")

    monkeypatch.setattr(RootSystem, "__init__", refuse)
    assert parse_marked("E7+B3:a7,a8").literal() == "E7+B3:a7,a8"
    assert delete_chain(parse_marked("D9:a1"), "a4")[1].literal() == "D6:a4"
    for _ in range(2):
        with pytest.raises(MarkError, match="not cominuscule"):
            parse_marked("B3:a2")


# -- marked diagrams and deletion ---------------------------------------------

def test_marks_must_be_cominuscule():
    with pytest.raises(MarkError, match="not cominuscule"):
        parse_marked("E7:a6")
    with pytest.raises(MarkError, match="not cominuscule"):
        parse_marked("B4:a2")
    parse_marked("B4:a1")
    parse_marked("D5:a5")
    parse_marked("E6:a1")


def test_one_mark_per_component():
    with pytest.raises(MarkError, match="several marks"):
        parse_marked("A4:a1,a2")
    md = parse_marked("A1+A2:a1,a3")
    assert md.marked == frozenset({"a1", "a3"})


def test_delete_chain_table_rows():
    chain, sub = delete_chain(parse_marked("B4:a1"), "a2")
    assert chain == ("a1", "a2")
    assert sub.literal() == "B3:a2"
    assert space_name(sub) == "Q^5"

    chain, sub = delete_chain(parse_marked("E7:a7"), "a6")
    assert chain == ("a7", "a6")
    assert sub.literal() == "E6:a6"
    assert space_name(sub) == "E6/P6"

    chain, sub = delete_chain(parse_marked("D5:a1"), "a2")
    assert chain == ("a1", "a2")
    assert sub.literal() == "D4:a2"
    assert space_name(sub) == "Q^6"


def test_delete_chain_rejects_multiple_bonds():
    with pytest.raises(ChainError, match="type-A"):
        delete_chain(parse_marked("B4:a1"), "a4")


def test_delete_chain_rejects_cross_component():
    with pytest.raises(ChainError, match="different components"):
        delete_chain(MarkedDiagram(parse_diagram("A1+A2"), frozenset({"a1"})), "a2")


def test_delete_chain_preserves_surviving_labels():
    ambient = parse_marked("E7:a7")
    chain, sub = delete_chain(ambient, "a4")
    assert chain == ("a7", "a6", "a5", "a4")
    assert set(sub.diagram.nodes) <= set(ambient.diagram.nodes)
    induced = ambient.diagram.induced(set(sub.diagram.nodes))
    assert induced == sub.diagram


def test_space_names_and_descriptors():
    assert space_name(parse_marked("A4:a2")) == "G(2,3)"
    assert space_name(parse_marked("A4:a3")) == "G(2,3)"
    assert space_name(parse_marked("D5:a4")) == "G^II(5,5)"
    assert space_name(parse_marked("A1+A2:a1,a3")) == "P^1 x P^2"
    assert descriptor(parse_marked("A4:a3")) == (("A", 4, 2),)
    assert canonical_mark_position(
        parse_diagram("D6").components[0], "a5") == 6


def test_hyperquadric_recognition():
    assert is_hyperquadric(parse_marked("B4:a1"))
    assert is_hyperquadric(parse_marked("D5:a1"))
    assert is_hyperquadric(parse_marked("D4:a4"))      # triality
    assert is_hyperquadric(parse_marked("A3:a2"))      # G(2,2) = Q^4
    assert not is_hyperquadric(parse_marked("D5:a5"))
    assert not is_hyperquadric(parse_marked("E7:a7"))


def test_symmetrized_form_is_symmetric_and_fixes_lengths():
    for literal in ("B3", "C3", "F4", "G2"):
        diagram = parse_diagram(literal)
        S = symmetrized_form(diagram)
        n = diagram.rank
        assert all(S[i][j] == S[j][i] for i in range(n) for j in range(n))
        assert max(S[i][i] for i in range(n)) == Fraction(2)


# -- classification against the shape-rule oracle ------------------------------

ORACLE_TYPES = [f"{letter}{n}" for letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                for n in range(lo, 10)] + ["E6", "E7", "E8", "F4", "G2"]


def classified(nodes, edges):
    """Components by the library and by the shape rules, or "error" on either side."""
    sides = []
    for classify in (lambda: DynkinDiagram(nodes, edges).components,
                     lambda: shape_rule_components(nodes, edges)):
        try:
            sides.append(classify())
        except DiagramError:
            sides.append("error")
    return sides


def random_diagram(rng: random.Random):
    """At most 9 nodes in shuffled order: mostly a path-like tree, sometimes
    with extra edges, random multiplicities and arrows on random ends."""
    n = rng.randint(1, 9)
    names = [f"a{i}" for i in range(1, n + 1)]
    order = names[:]
    rng.shuffle(order)
    links = dict.fromkeys(  # insertion-ordered, so the draws follow no hash order
        frozenset((names[i - 1] if rng.random() < 0.7 else rng.choice(names[:i]), names[i]))
        for i in range(1, n))
    for _ in range(rng.choice((0, 0, 0, 1, 2)) if n > 1 else 0):
        links[frozenset(rng.sample(names, 2))] = None
    pos = {a: i for i, a in enumerate(order)}
    edges = set()
    for link in links:
        u, v = sorted(link, key=pos.__getitem__)
        mult = rng.choices((1, 2, 3), (12, 3, 1))[0]
        edges.add((u, v, mult, None if mult == 1 else rng.choice((u, v))))
    return tuple(order), frozenset(edges)


def test_classification_matches_shape_rules_on_induced_sub_diagrams():
    for literal in ORACLE_TYPES:
        diagram = parse_diagram(literal)
        for size in range(1, diagram.rank + 1):
            for keep in itertools.combinations(diagram.nodes, size):
                sub = diagram.induced(set(keep))
                assert sub.components == shape_rule_components(sub.nodes, sub.edges), keep


@pytest.mark.parametrize("seed", range(5))
def test_classification_matches_shape_rules_on_shuffled_literals(seed):
    for k, literal in enumerate(CONNECTED_LITERALS + PRODUCT_LITERALS):
        diagram = shuffled(literal, 1000 * seed + k)
        assert diagram.components == shape_rule_components(diagram.nodes, diagram.edges)


def test_classification_matches_shape_rules_on_random_graphs():
    rng = random.Random(20231)
    letters, errors = set(), 0
    for _ in range(5000):
        nodes, edges = random_diagram(rng)
        new, old = classified(nodes, edges)
        assert new == old, (nodes, sorted(edges))
        if new == "error":
            errors += 1
        else:
            letters |= {comp.letter for comp in new}
    assert letters == set("ABCDEFG")
    assert 500 < errors < 4500


def test_classification_memo_matches_the_search(monkeypatch):
    # every component of the catalog(20) ambients and sub-diagrams and of their
    # compact parts, and shuffled node orders of ten types; a second pass reads
    # each shape from the memo and must equal the uncached template search
    search = rootsys._search
    searches = []
    monkeypatch.setattr(rootsys, "_SHAPES", {})
    monkeypatch.setattr(rootsys, "_search",
                        lambda labels, adj: searches.append(labels) or search(labels, adj))
    diagrams = [d for pair in pairs.catalog(20) for md in (pair.ambient, pair.sub)
                for d in (md.diagram, md.diagram.induced(set(md.diagram.nodes) - md.marked))]
    diagrams += [shuffled(literal, seed) for seed in range(5)
                 for literal in ("E6", "E7", "E8", "D4", "D8", "B8", "C8", "F4", "G2", "A7")]
    blocks = [(sorted(comp.labels, key=d.index.__getitem__), d.adjacency)
              for d in diagrams for comp in d.components]
    for labels, adj in blocks:
        rootsys._classify(labels, adj)
    assert len(searches) == len(rootsys._SHAPES) < len(blocks) // 10
    missed = len(searches)
    for labels, adj in blocks:
        assert rootsys._classify(labels, adj) == search(labels, adj), labels
    assert len(searches) == missed


def test_classification_memo_stores_no_error(monkeypatch):
    monkeypatch.setattr(rootsys, "_SHAPES", {})
    star = (("a1", "a2", "a3", "a4", "a5"),
            frozenset(("a1", b, 1, None) for b in ("a2", "a3", "a4", "a5")))
    for _ in range(2):
        with pytest.raises(DiagramError, match="matches no Bourbaki diagram"):
            DynkinDiagram(*star)
    assert rootsys._SHAPES == {}


def test_letter_order_reads_d3_as_a3_and_c2_as_b2():
    assert parse_diagram("D3").components == (Component("A", ("a2", "a1", "a3")),)
    assert parse_diagram("C2").components == (Component("B", ("a2", "a1")),)


@pytest.mark.parametrize("letter", "ABD")
def test_rank_1200_literal_classifies_without_recursion(letter):
    # the template embedding walks one node per step, far past the default
    # recursion limit; the least isomorphism is still the literal's numbering
    assert parse_diagram(f"{letter}1200").components == (
        Component(letter, tuple(f"a{i}" for i in range(1, 1201))),)


# Terms the regular expression refuses or reads differently from a naive
# reader: non-ASCII digits, leading zeros, inner spaces, empty terms, lower
# case, and ranks past the bounds of each letter.
ODD_LITERALS = ("E\u0667", "A\u00b2", "A\u0661", "D\uff15", "A01", "E007+B02", "A 1", "A1+B 2",
                "E 7", " A1 + A2 ", "A1\t+\tA2", "", " ", "+", "A1+", "+A1", "A1++A2", "a1",
                "e7", "A1+g2", "A", "7", "AB1", "A1.0", "A-1", "A+1", "A0", "B1", "C1", "D2",
                "E5", "E9", "F3", "F5", "G1", "G3", "E08", "H3")


def _read_or_refuse(parse, literal):
    """The diagram and its components, or the text of the DiagramError."""
    try:
        diagram = parse(literal)
    except DiagramError as exc:
        return str(exc)
    return diagram, diagram.components


def test_literal_parser_matches_the_regex_oracle():
    literals = {spec.split(":")[0] for spec, _ in pairs.catalog_specs(MAX_RANK)}
    literals |= {pair.sub.diagram.literal() for pair in pairs.catalog(MAX_RANK)}
    literals |= {"A1+A2", "B3+G2", "E7+A2"}
    for literal in sorted(literals) + list(ODD_LITERALS):
        assert _read_or_refuse(parse_diagram, literal) == \
            _read_or_refuse(regex_parse_diagram, literal), literal
    refused = [lit for lit in ODD_LITERALS if isinstance(_read_or_refuse(parse_diagram, lit), str)]
    # all but A01, E007+B02, E08 and the two sums with spaces or tabs around +
    assert len(refused) == len(ODD_LITERALS) - 5


@pytest.mark.parametrize("nodes, edges", [
    (("a1", "a2", "a3", "a4", "a5"),                       # degree-4 star
     {("a1", "a2", 1, None), ("a1", "a3", 1, None), ("a1", "a4", 1, None),
      ("a1", "a5", 1, None)}),
    (("a1", "a2", "a3", "a4", "a5"),                       # middle double bond
     {("a1", "a2", 1, None), ("a2", "a3", 2, "a3"), ("a3", "a4", 1, None),
      ("a4", "a5", 1, None)}),
    (("a1", "a2", "a3"), {("a1", "a2", 2, "a2"), ("a2", "a3", 2, "a3")}),
    (("a1", "a2", "a3"), {("a1", "a2", 3, "a1"), ("a2", "a3", 1, None)}),
])
def test_non_dynkin_tree_names_its_component(nodes, edges):
    with pytest.raises(DiagramError, match=re.escape(str(list(nodes)))):
        DynkinDiagram(nodes, frozenset(edges))
    with pytest.raises(DiagramError, match=re.escape(str(list(nodes)))):
        DynkinDiagram(("b0",) + nodes, frozenset(edges))
