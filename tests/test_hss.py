import pytest

from delpair import hss, rootsys
from delpair.hss import (
    noncompact_positive_roots,
    psi_gamma,
    vmrt_chain,
    vmrt_diagram,
)
from delpair.rootsys import MarkError, delete_chain, descriptor, parse_marked, space_name
from oracles import filtered_noncompact, filtered_psi


@pytest.mark.parametrize("literal, dim", [
    ("A4:a2", 6),        # dim Gr(2,5)
    ("E7:a7", 27),
    ("B4:a1", 7),        # dim Q^7
    ("E6:a6", 16),
    ("D5:a5", 10),
    ("A1+A2:a1,a3", 3),  # dim P^1 x P^2
])
def test_noncompact_count_is_dimension(literal, dim):
    md = parse_marked(literal)
    assert len(noncompact_positive_roots(md)) == dim


def test_noncompact_filter_oracle_a4():
    md = parse_marked("A4:a2")
    rs = md.root_system()
    direct = {r for r in rs.positive_roots if r[1] == 1}
    assert noncompact_positive_roots(md) == direct


def test_noncompact_roots_are_cached_per_marked_diagram():
    # memoized by (rank, shape, mark positions): the sub-diagram a2..a4 of
    # B4 has B3's shape, so it shares B3's set
    hss._noncompact.cache_clear()
    literals = ["E7:a7", "A1+A2:a1,a3", "E7:a7", "A1+A2:a1", "A1+A2:a1,a3", "B4:a1"]
    results = [noncompact_positive_roots(parse_marked(literal)) for literal in literals]
    assert results[2] is results[0]
    assert results[4] is results[1]
    assert results[3] is not results[1]     # same diagram, other marks
    assert hss._noncompact.cache_info().misses == len(set(literals))
    sub = delete_chain(parse_marked("B4:a1"), "a2")[1]
    assert noncompact_positive_roots(sub) is noncompact_positive_roots(parse_marked("B3:a1"))
    assert hss._noncompact.cache_info().misses == len(set(literals)) + 1


def test_weight_sets_build_no_root_system(monkeypatch):
    # the sets are keyed by the diagram's shape, which needs no root system
    def refused(diagram):
        raise AssertionError(f"hss built the root system of {diagram.literal()}")

    monkeypatch.setattr(rootsys, "RootSystem", refused)
    before = rootsys.build_root_system.cache_info()
    # dim G^II(11,11) x P^3; dim G^III(9,9), whose VMRT has dimension 8; dim E6/P1 x Q^9
    for literal, dim, affine in (("D11+A3:a11,a12", 55 + 3, None), ("C9:a9", 45, 9),
                                 ("E6+B5:a1,a7", 16 + 9, None)):
        md = parse_marked(literal)
        assert len(noncompact_positive_roots(md)) == dim
        if affine:
            assert len(psi_gamma(md)) + 1 == affine
    assert rootsys.build_root_system.cache_info() == before


@pytest.mark.parametrize("literal, affine", [
    ("E7:a7", 17),   # VMRT E6/P6, dimension 16
    ("A4:a2", 4),    # VMRT P^1 x P^2, dimension 3
    ("B4:a1", 6),    # VMRT Q^5, dimension 5
])
def test_psi_gamma_sizes(literal, affine):
    assert len(psi_gamma(parse_marked(literal))) + 1 == affine   # and the radial line


def test_psi_gamma_is_cached_per_marked_diagram():
    hss._psi.cache_clear()
    literals = ["E7:a7", "D5:a5", "E7:a7", "D5:a1", "D5:a5"]
    results = [psi_gamma(parse_marked(literal)) for literal in literals]
    assert results[2] is results[0]
    assert results[4] is results[1]
    assert results[3] != results[1]         # same diagram, other mark
    assert hss._psi.cache_info().misses == len(set(literals))


def test_shape_keyed_roots_match_per_diagram_filter_on_catalog20(catalog20):
    for pair in catalog20:
        for md in (pair.ambient, pair.sub):
            assert noncompact_positive_roots(md) == filtered_noncompact(md), md.literal()
            assert psi_gamma(md) == filtered_psi(md), md.literal()


def test_psi_gamma_inside_noncompact_and_radial_separate():
    md = parse_marked("E6:a6")
    psi = psi_gamma(md)
    assert psi <= noncompact_positive_roots(md)
    assert md.root_system().simple_root("a6") not in psi


@pytest.mark.parametrize("literal", [
    "E7:a7", "E6:a6", "E6:a1", "D5:a5", "D5:a1", "D6:a6", "B4:a1", "B5:a1",
    "A4:a2", "A5:a3", "A3:a1",
])
def test_psi_size_matches_vmrt_dimension(literal):
    md = parse_marked(literal)
    assert len(psi_gamma(md)) == len(noncompact_positive_roots(vmrt_diagram(md)))


@pytest.mark.parametrize("literal, expected", [
    ("E7:a7", (("E", 6, 6),)),
    ("A4:a2", (("A", 1, 1), ("A", 2, 1))),
    ("D5:a5", (("A", 4, 2),)),
])
def test_vmrt_diagram_examples(literal, expected):
    assert descriptor(vmrt_diagram(parse_marked(literal))) == expected


def test_vmrt_of_line_is_empty():
    assert vmrt_diagram(parse_marked("A1:a1")).is_empty
    assert space_name(vmrt_diagram(parse_marked("A1:a1"))) == "pt"


def test_vmrt_refuses_a_mark_whose_removal_strands_a_component():
    # removing a1 from A1+A2 leaves A2 with no neighbor of a1 to mark
    with pytest.raises(MarkError, match="^removing a1 strands an unmarked diagram$"):
        vmrt_diagram(parse_marked("A1+A2:a1"))


def test_vmrt_rejects_product_input():
    with pytest.raises(MarkError):
        vmrt_diagram(parse_marked("A1+A2:a1,a3"))


def test_vmrt_chain_from_e7():
    chain = vmrt_chain(parse_marked("E7:a7"))
    assert [descriptor(md) for md in chain] == [
        (("E", 7, 7),),
        (("E", 6, 6),),
        (("D", 5, 5),),
        (("A", 4, 2),),
        (("A", 1, 1), ("A", 2, 1)),
    ]
    assert [space_name(md) for md in chain[1:]] == [
        "E6/P6", "G^II(5,5)", "G(2,3)", "P^2 x P^1"]
