import json
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delpair import hss, pairs
from delpair.checks import correspondence_checks
from delpair.normalbundle import normal_weights
from delpair.pairs import (
    CorrespondenceError,
    DeletionPair,
    RootCorrespondence,
    catalog,
    catalog_specs,
    is_maximal,
    root_correspondence,
)
from delpair.report import FAIL, PASS
from delpair.rootsys import ChainError, MarkError, parse_diagram, parse_marked
from oracles import (
    FAMILY_CLOSED_FORMS,
    PAIR_ROWS,
    FractionRootSystem,
    additive_apply,
    chain_sum,
    exhaustive_maximality,
    family_reading,
    form_pairing,
    inner_gram,
    neg,
)

SWEEP_DIAGRAMS = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
    + [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(3, 13)]
    + ["E6", "E7", "E8", "F4", "G2", "A2+B3", "D4+A3", "E6+A2"])


def single_mark_pairs(literals):
    """Every pair (a cominuscule mark gamma, a node gamma0) that DeletionPair accepts."""
    out = []
    for literal in literals:
        nodes = parse_diagram(literal).nodes
        for gamma in nodes:
            try:
                ambient = parse_marked(f"{literal}:{gamma}")
            except MarkError:
                continue
            for gamma0 in nodes:
                if gamma0 == gamma:
                    continue
                try:
                    out.append(DeletionPair(ambient, gamma0))
                except (ChainError, MarkError):
                    continue
    return out


def test_catalog_contains_the_table_rows(catalog7):
    for pid in ("B4:a1/a2", "B4:a1/a3", "D5:a5/a3", "D5:a1/a2", "D5:a1/a3",
                "E6:a6/a4", "E6:a6/a5", "E7:a7/a4", "E7:a7/a5", "E7:a7/a6"):
        assert pid in catalog7


def test_catalog_names_match_the_table(catalog7):
    assert catalog7["E7:a7/a6"].name == "(E6/P6 in E7/P7)"
    assert catalog7["D5:a5/a3"].name == "(G(2,3) in G^II(5,5))"
    assert catalog7["B4:a1/a2"].name == "(Q^5 in Q^7)"
    assert catalog7["E6:a6/a5"].name == "(G^II(5,5) in E6/P6)"


def test_catalog_max_rank_filters():
    ids = {p.pair_id for p in catalog(5)}
    assert "D5:a5/a3" in ids
    assert not any(pid.startswith(("E7", "B6", "B7", "D6", "D7")) for pid in ids)
    with pytest.raises(ValueError):
        catalog(3)


def test_catalog_specs_name_the_catalog_pairs():
    assert [p.pair_id for p in catalog(12)] == [f"{a}/{g0}" for a, g0 in catalog_specs(12)]
    with pytest.raises(ValueError):
        catalog_specs(3)


def irreducible_literals(max_rank: int) -> list[str]:
    """Every one-term diagram literal of rank at most max_rank, as the parser
    reads them: C2 and D3 too, which it types as B2 and A3."""
    return ([f"{letter}{n}" for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for n in range(low, max_rank + 1)]
            + [literal for literal in ("E6", "E7", "E8", "F4", "G2") if int(literal[1]) <= max_rank])


def derived_catalog(max_rank: int) -> tuple[list, set]:
    """(accepted, kept): each single-mark pair DeletionPair accepts on the
    irreducible diagrams of rank at most max_rank, with the literal it was
    found on, and the pairs left after two steps.  A pair whose sub is a
    projective space, its marked component of type A_k marked at an end, is
    dropped.  Of the two pairs in an orbit of the diagram involution,
    a_(n-1) <-> a_n on D_n (n >= 4) and a1 <-> a6, a3 <-> a5 on E6, the one
    whose (gamma, gamma0) numbers are larger is kept.  D4's triality is not
    quotiented, so both D4:a1/a2 and D4:a4/a2 are kept."""
    accepted, kept = [], set()
    for literal in irreducible_literals(max_rank):
        n = int(literal[1:])
        swap = ({n - 1: n, n: n - 1} if literal[0] == "D" and n >= 4
                else {1: 6, 6: 1, 3: 5, 5: 3} if literal == "E6" else {})
        for pair in single_mark_pairs([literal]):
            accepted.append((literal, pair))
            comp, = (c for c in pair.sub.diagram.components if pair.gamma0 in c.labels)
            if comp.letter == "A" and len(pair.sub.diagram.neighbors(pair.gamma0)) <= 1:
                continue
            numbers = (int(pair.gamma[1:]), int(pair.gamma0[1:]))
            if numbers >= tuple(swap.get(k, k) for k in numbers):
                kept.add(pair)
    return accepted, kept


@pytest.mark.parametrize("max_rank, accepted, kept", [(12, 838, 114), (16, 1838, 214),
                                                      (20, 3414, 346)])
def test_catalog_is_derived_from_its_definition(max_rank, accepted, kept):
    # the families of catalog_specs, against every pair DeletionPair accepts:
    # C_n yields no pair, and every pair on A_n, F4 and G2 has a projective sub
    found, derived = derived_catalog(max_rank)
    assert len(found) == accepted
    assert [literal for literal, _ in found if literal[0] == "C"] == []
    assert {literal[0] for literal, pair in found if pair in derived} == {"B", "D", "E"}
    listed = catalog(max_rank)
    assert len(listed) == kept and set(listed) == derived
    assert {"D4:a1/a2", "D4:a4/a2"} <= {pair.pair_id for pair in listed}


def test_gamma_is_chain_sum(catalog7):
    pair = catalog7["B4:a1/a3"]
    assert pair.big_gamma == (0, 1, 1, 0)
    pair = catalog7["E7:a7/a6"]
    assert pair.big_gamma == (0, 0, 0, 0, 0, 1, 0)


def test_gamma_matches_root_sum_oracle(catalog12):
    for pair in catalog12:
        assert pair.big_gamma == chain_sum(pair), pair


def test_phi_on_simple_roots_e7(catalog7):
    corr = root_correspondence(catalog7["E7:a7/a6"])
    table = dict(corr.on_simple)
    assert table["a6"] == (0, 0, 0, 0, 0, 0, 1)          # gamma
    assert table["a5"] == (0, 0, 0, 0, 1, 1, 0)          # a5 + Gamma
    assert table["a2"] == (0, 1, 0, 0, 0, 0, 0)          # untouched


def test_phi_on_simple_roots_b4(catalog7):
    corr = root_correspondence(catalog7["B4:a1/a2"])
    table = dict(corr.on_simple)
    assert table["a2"] == (1, 0, 0, 0)
    assert table["a3"] == (0, 1, 1, 0)
    assert table["a4"] == (0, 0, 0, 1)


def test_phi_preserves_pairings_example(catalog7):
    pair = catalog7["E7:a7/a6"]
    ars = pair.ambient_rs()
    corr = root_correspondence(pair)
    table = dict(corr.on_simple)
    assert form_pairing(ars, table["a5"], table["a6"]) == -1


def test_every_catalog_pair_verifies(catalog7):
    for pair in catalog7.values():
        corr = root_correspondence(pair)
        nc0 = hss.noncompact_positive_roots(pair.sub)
        nc = hss.noncompact_positive_roots(pair.ambient)
        image = corr.noncompact_image
        assert len(image) == len(nc0)
        assert image <= nc
        # every weight set is a set of roots of its own system
        for md, weights in ((pair.ambient, nc), (pair.sub, nc0),
                            (pair.ambient, hss.psi_gamma(pair.ambient)),
                            (pair.sub, hss.psi_gamma(pair.sub)),
                            (pair.ambient, normal_weights(pair))):
            rs = md.root_system()
            assert weights and all(rs.is_root(w) for w in weights), (pair, md)


def test_matrix_apply_matches_additive_oracle(catalog12):
    for pair in catalog12:
        corr = pair.correspondence
        for beta in pair.sub_rs().positive_roots:
            assert corr.apply(beta) == additive_apply(corr, beta), (pair, beta)


def test_sparse_gram_matches_per_entry_inner_on_catalog20(catalog20):
    for pair in catalog20:
        gram = pairs._phi_gram(pair.ambient_rs().form, pair.correspondence._columns)
        assert gram == inner_gram(pair), pair.pair_id


def test_sparse_apply_matches_additive_oracle_on_catalog20(catalog20):
    for pair in catalog20:
        corr = pair.correspondence
        nc0 = hss.noncompact_positive_roots(pair.sub)
        for beta in nc0:
            assert corr.apply(beta) == additive_apply(corr, beta), (pair, beta)
        assert corr.on_noncompact == {beta: additive_apply(corr, beta) for beta in nc0}


def assert_phi_preserves_cartan_integers(pair):
    ars = pair.ambient_rs()
    images = dict(pair.correspondence.on_simple)
    nodes = pair.sub.diagram.nodes
    cartan = pair.sub.diagram.cartan_matrix
    for i, la in enumerate(nodes):
        for j, lb in enumerate(nodes):
            got = form_pairing(ars, images[la], images[lb])
            assert got == cartan[j][i] and type(got) is int, (pair, la, lb)


def test_phi_pairings_match_the_sub_cartan_matrix_on_catalog20(catalog20):
    for pair in catalog20:
        assert_phi_preserves_cartan_integers(pair)


def test_integer_identity_matches_the_rational_pairing_off_the_roots(catalog7):
    # arbitrary nonzero images, so that pairings are often not integers and
    # the lengths of the two slots differ: 2 B(x, y) = k B(y, y), the identity
    # root_correspondence checks, holds exactly when <x, y> = k
    rng = random.Random(11)
    non_integral = 0
    for pid in ("B4:a1/a2", "D5:a5/a3", "E7:a7/a6"):
        pair = catalog7[pid]
        ars, oracle = pair.ambient_rs(), FractionRootSystem(pair.ambient.diagram)
        rank = pair.ambient.diagram.rank
        for _ in range(5):
            images = []
            for label in pair.sub.diagram.nodes:
                coeffs = [rng.randrange(-2, 3) for _ in range(rank)]
                coeffs[rng.randrange(rank)] = 1
                images.append(tuple(coeffs))
            for x in images:
                for y in images:
                    want = oracle.pairing(x, y)
                    assert form_pairing(ars, x, y) == want, (pair, x, y)
                    for k in range(-3, 4):
                        holds = 2 * ars.inner(x, y) == k * ars.inner(y, y)
                        assert holds == (want == k), (pair, x, y, k)
                    non_integral += type(want) is Fraction
    assert non_integral


def test_corrupted_gamma_fails_with_named_invariant(catalog7):
    good = catalog7["B4:a1/a2"]
    bad = DeletionPair(good.ambient, good.gamma0)
    object.__setattr__(bad, "big_gamma", (0, 1, 1, 0))   # wrong chain sum
    with pytest.raises(CorrespondenceError, match="a3"):
        root_correspondence(bad)


def test_correspondence_row_fails_on_a_pairing_mismatch():
    # with Gamma = 0, Phi sends a2 (gamma0) to alpha_1 and its neighbour a3
    # to alpha_3: both are roots, but orthogonal, while a2 and a3 are joined
    # in the sub, so only the Cartan-invariance check sees it
    pair = DeletionPair(parse_marked("B3:a1"), "a2")
    object.__setattr__(pair, "big_gamma", (0, 0, 0))
    (rep,) = correspondence_checks(pair)
    assert rep.status == FAIL
    assert rep.notes.startswith("pairing mismatch at (a2, a3)"), rep.notes


def test_correspondence_raises_when_phi_leaves_the_noncompact_cone(monkeypatch):
    # -Phi sends simple roots to roots and has Phi's Gram matrix, so only the
    # cone check sees it: the noncompact roots go to negative roots
    real = pairs.RootCorrespondence
    monkeypatch.setattr(pairs, "RootCorrespondence", lambda pair, on_simple: real(
        pair, tuple((label, neg(image)) for label, image in on_simple)))
    with pytest.raises(CorrespondenceError, match="^Phi image leaves the noncompact cone"):
        root_correspondence(DeletionPair(parse_marked("E7:a7"), "a6"))


def test_correspondence_raises_when_phi_is_not_injective(monkeypatch):
    # no table of simple-root images reaches this check: images whose
    # pairings match the sub's Cartan matrix have a nonsingular Gram matrix,
    # so they are independent and Phi is injective.  A patched apply does.
    monkeypatch.setattr(RootCorrespondence, "apply", lambda self, beta: self.on_simple[0][1])
    with pytest.raises(CorrespondenceError, match="^Phi is not injective on noncompact roots$"):
        root_correspondence(DeletionPair(parse_marked("E7:a7"), "a6"))


def test_the_pairs_that_pass_every_pair_row_at_rank_40(rank40_witnesses):
    # the paper's family G(2, n-2) in G^II(n,n) for 5 <= n <= 40, twice the
    # rank of the largest pinned bundle, and the two exceptional pairs; every
    # other pair fails none of the five rows
    statuses = {key: status for key, (status, _) in rank40_witnesses.items()}
    subjects = {pair_id for check_id, pair_id in statuses if check_id == "pairs.correspondence"}
    assert len(subjects) == len(catalog(40)) == 1486
    assert FAIL not in statuses.values()
    passing = {pair_id for pair_id in subjects
               if all(statuses[check_id, pair_id] == PASS for check_id in PAIR_ROWS)}
    assert passing == FAMILY_CLOSED_FORMS.keys() and len(passing) == 38
    witnesses = {key: found for key, (_, found) in rank40_witnesses.items()}
    for pair_id, forms in FAMILY_CLOSED_FORMS.items():
        assert family_reading(witnesses, pair_id) == forms, pair_id


def test_maximality_verdicts(catalog7):
    assert is_maximal(catalog7["E7:a7/a6"]).maximal
    assert is_maximal(catalog7["D5:a5/a3"]).maximal
    assert is_maximal(catalog7["B4:a1/a2"]).maximal

    verdict = is_maximal(catalog7["E7:a7/a4"])
    assert not verdict.maximal
    assert set(verdict.witness_ids()) == {"E7:a7/a5", "E7:a7/a6"}

    verdict = is_maximal(catalog7["B4:a1/a3"])
    assert not verdict.maximal
    assert verdict.witness_ids() == ("B4:a1/a2",)


def test_decomposition_composes_to_direct_phi(catalog7):
    for pair in catalog7.values():
        verdict = is_maximal(pair)
        direct = root_correspondence(pair)
        srs = pair.sub_rs()
        for step in verdict.witnesses:
            second = DeletionPair(step.sub, pair.gamma0)
            phi1 = root_correspondence(step)
            phi2 = root_correspondence(second)
            for label in pair.sub.diagram.nodes:
                beta = srs.simple_root(label)
                assert phi1.apply(phi2.apply(beta)) == direct.apply(beta)


def test_dimension_bookkeeping(catalog7):
    for pair in catalog7.values():
        nc0 = len(hss.noncompact_positive_roots(pair.sub))
        nc = len(hss.noncompact_positive_roots(pair.ambient))
        assert nc0 + len(normal_weights(pair)) == nc


def test_maximality_matches_exhaustive_oracle_on_catalog20(catalog20):
    assert len(catalog20) == 346
    assert sum(not is_maximal(p).maximal for p in catalog20) == 292
    for pair in catalog20:
        assert is_maximal(pair).witness_ids() == exhaustive_maximality(pair).witness_ids(), pair


def test_maximality_matches_exhaustive_oracle_on_single_mark_pairs():
    swept = single_mark_pairs(SWEEP_DIAGRAMS)
    assert len(swept) == 868
    assert sum(not is_maximal(p).maximal for p in swept) == 332
    for pair in swept:
        assert is_maximal(pair).witness_ids() == exhaustive_maximality(pair).witness_ids(), pair


# A fresh interpreter records each chain deletion as (ambient literal, gamma0),
# then runs the lines given and prints the deletions that they made.
DELETIONS = """
import json
from delpair import checks, pairs
from delpair.report import RunConfig
from delpair.rootsys import parse_marked
deletions, derive = [], pairs.delete_chain
def recording(ambient, gamma0):
    deletions.append((ambient.literal(), gamma0))
    return derive(ambient, gamma0)
pairs.delete_chain = recording
"""


def fresh_deletions(lines: str) -> list[tuple[str, str]]:
    probe = f"{DELETIONS}{lines}\nprint(json.dumps(deletions))"
    env = {**os.environ, "PYTHONPATH": str(Path(pairs.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return [tuple(d) for d in json.loads(done.stdout)]


@pytest.mark.parametrize("pair_id", ["B12:a1/a11", "E7:a7/a4"])
def test_maximality_deletes_only_at_chain_interior_nodes(pair_id):
    ambient, gamma0 = pair_id.rsplit("/", 1)
    pair = DeletionPair(parse_marked(ambient), gamma0)
    deletions = fresh_deletions(
        f"pair = pairs.DeletionPair(parse_marked({ambient!r}), {gamma0!r})\n"
        "deletions.clear()\n"
        "assert not pairs.is_maximal(pair).maximal")
    assert sorted(deletions) == sorted((ambient, g1) for g1 in pair.chain[1:-1])


def test_the_pair_rows_delete_each_chain_once():
    # the catalog's pairs are the steps that maximality tries, so the four
    # pair rows of a rank-12 run derive each (ambient, gamma0) once
    deletions = fresh_deletions(
        "config = RunConfig(max_rank=12)\n"
        "for row in ('pairs.correspondence', 'sff.kernel', 'sff.infinity_locus',\n"
        "            'normalbundle.summands_distinct'):\n"
        "    checks.SUITES[row][0](config)")
    assert sorted(deletions) == sorted(catalog_specs(12))


def test_the_catalog_is_built_once():
    first, again = catalog(12), catalog(12)
    assert len(first) == 114 and all(map(operator.is_, first, again))
    # maximality's steps are catalog pairs, and the same objects
    objects = set(map(id, first))
    assert all(id(w) in objects for pair in first for w in is_maximal(pair).witnesses)
