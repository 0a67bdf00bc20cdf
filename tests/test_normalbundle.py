import networkx as nx
import pytest

from delpair import hss, normalbundle
from delpair.normalbundle import levi_components, normal_weights, summands_distinct
from delpair.pairs import DeletionPair, root_correspondence
from delpair.rootsys import parse_marked
from oracles import form_pairing, minus, plus, times, tuple_levi_components


@pytest.mark.parametrize("pid, count", [
    ("E7:a7/a6", 11),    # 27 - 16
    ("E6:a6/a5", 6),     # 16 - 10
    ("D5:a5/a3", 4),     # 10 - 6
])
def test_normal_weight_counts(catalog7, pid, count):
    pair = catalog7[pid]
    ws = normal_weights(pair)
    assert len(ws) == count
    # set-difference oracle
    corr = root_correspondence(pair)
    nc = hss.noncompact_positive_roots(pair.ambient)
    assert ws == nc - corr.noncompact_image


@pytest.mark.parametrize("pid, sizes", [
    ("E7:a7/a6", [1, 10]),
    ("E6:a6/a5", [1, 5]),
    ("D5:a5/a3", [1, 3]),
])
def test_levi_component_sizes(catalog7, pid, sizes):
    dec = levi_components(catalog7[pid])
    assert [len(c) for c in dec.components] == sizes
    assert [len(c) for c in dec.components].count(1) == 1


def test_components_partition_and_match_networkx_oracle(catalog7):
    for pair in catalog7.values():
        dec = levi_components(pair)
        union = set()
        for block in dec.components:
            assert not (union & block)
            union |= block
        weights = normal_weights(pair)
        assert union == weights

        corr = root_correspondence(pair)
        steps = [corr.apply(pair.sub_rs().simple_root(label))
                 for label in pair.sub.diagram.nodes if label != pair.gamma0]
        graph = nx.Graph()
        graph.add_nodes_from(weights)
        for w in weights:
            for s in steps:
                if plus(w, s) in weights:
                    graph.add_edge(w, plus(w, s))
        oracle = {frozenset(c) for c in nx.connected_components(graph)}
        assert set(dec.components) == oracle


def assert_levi_components_match_tuple_oracle(pair):
    dec = levi_components(pair)
    components, highest = tuple_levi_components(pair)
    assert dec.components == components, pair
    assert dec.highest_weights == highest, pair


def test_packed_levi_components_match_tuple_oracle_on_catalog20(catalog20):
    for pair in catalog20:
        assert_levi_components_match_tuple_oracle(pair)


@pytest.mark.parametrize("n", range(6, 13))
def test_packed_levi_components_order_ties_as_the_tuple_oracle(n):
    # off the catalog, D_n:a_(n-1)/a1 and D_n:a_n/a1 have components of equal
    # size, which sort by their least weights
    for mark in (f"a{n - 1}", f"a{n}"):
        pair = DeletionPair(parse_marked(f"D{n}:{mark}"), "a1")
        sizes = [len(c) for c in levi_components(pair).components]
        assert len(set(sizes)) < len(sizes), pair
        assert_levi_components_match_tuple_oracle(pair)


def test_levi_search_joins_weights_through_a_lowering_step(catalog7, monkeypatch):
    # with steps s < t, the least of {s, t, s + t} is s: raising it by t gives
    # s + t, and only lowering that by s reaches t
    pair = catalog7["E7:a7/a6"]
    s, t = sorted(image for label, image in pair.correspondence.on_simple
                  if label != pair.gamma0)[:2]
    weights = frozenset({s, t, plus(s, t)})
    monkeypatch.setattr(normalbundle, "normal_weights", lambda pair: weights)
    assert levi_components(pair).components == (weights,)


def test_singleton_weight_fixed_by_compact_reflections(maximal_triple):
    for pair in maximal_triple:
        dec = levi_components(pair)
        ars = pair.ambient_rs()
        corr = root_correspondence(pair)
        (w,), = (c for c in dec.components if len(c) == 1)
        for label in pair.sub.diagram.nodes:
            if label == pair.gamma0:
                continue
            rho = corr.apply(pair.sub_rs().simple_root(label))
            assert minus(w, times(form_pairing(ars, w, rho), rho)) == w


def test_highest_weights_unique_per_component(maximal_triple):
    for pair in maximal_triple:
        dec = levi_components(pair)
        corr = root_correspondence(pair)
        steps = [corr.apply(pair.sub_rs().simple_root(label))
                 for label in pair.sub.diagram.nodes if label != pair.gamma0]
        for block, hw in zip(dec.components, dec.highest_weights):
            maximal = [w for w in block if all(plus(w, s) not in block for s in steps)]
            assert maximal == [hw]


def test_summands_distinct_verdicts(catalog7):
    for pid in ("E7:a7/a6", "E6:a6/a5", "D5:a5/a3"):
        report = summands_distinct(catalog7[pid])
        assert report.status == "pass"
        sizes = report.witnesses[0]["component_sizes"]
        hw = report.witnesses[0]["highest_weights"]
        assert sizes[0] != sizes[1] and hw[0] != hw[1]

    # hyperquadric pairs: two isomorphic line-bundle factors or a scatter
    assert summands_distinct(catalog7["B4:a1/a2"]).status == "fail"
    assert summands_distinct(catalog7["B4:a1/a3"]).status == "indeterminate"
    assert summands_distinct(catalog7["D5:a1/a2"]).status == "fail"
    assert "connectivity" in summands_distinct(catalog7["B4:a1/a2"]).notes


def test_component_sizes_sum_to_codimension(catalog7):
    for pair in catalog7.values():
        dec = levi_components(pair)
        total = sum(len(c) for c in dec.components)
        assert total == (len(hss.noncompact_positive_roots(pair.ambient))
                         - len(hss.noncompact_positive_roots(pair.sub)))
