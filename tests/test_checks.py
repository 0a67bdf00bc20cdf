"""The SUITES table: what each row reads, and that run-all is its rows
together; the property rows' seeded draws, and each of those rows and the
Plücker survey row seen to fail."""
import random

import pytest

from delpair import cli, labs
from delpair.checks import _PROPERTY_SYSTEMS, SUITES, run_all
from delpair.chevalley import ChevalleyTable
from delpair.labs import reflection_failures
from delpair.projgeo import plucker
from delpair.projgeo.plucker import SurveyReport
from delpair.report import DEFAULT_SEED, FAIL, PASS, RunConfig
from delpair.rootsys import RootSystem, build_root_system, parse_diagram
from oracles import rref

# Two values of each field: the default, and another a row that reads the
# field reports differently on.
VARIED = {"max_rank": 5, "primes_plucker": (3,), "primes_segre": (2,)}


def _rows(name, config):
    reports, _ = SUITES[name]
    return [rep.to_dict() for rep in reports(config)]


@pytest.mark.parametrize("name", list(SUITES))
def test_each_row_reads_exactly_the_fields_it_declares(name):
    _, reads = SUITES[name]
    assert set(reads) <= {*RunConfig._fields, "seed"} - {"fmt"}
    usual = _rows(name, RunConfig())
    for field, value in VARIED.items():
        varied = _rows(name, RunConfig(**{field: value}))
        assert (varied != usual) == (field in reads), field


@pytest.mark.parametrize("fixture, config", [
    ("default_bundle", RunConfig()),
    ("rank_sweep_bundle", RunConfig(max_rank=12, primes_plucker=(3,), primes_segre=(2,))),
])
def test_run_all_is_every_row_together(fixture, config, request):
    doc = request.getfixturevalue(fixture)
    rows = [row for name in SUITES for row in _rows(name, config)]
    keys = [(row["check_id"], row["subject"]) for row in rows]
    assert len(set(keys)) == len(keys)
    assert sorted(rows, key=lambda row: (row["check_id"], row["subject"])) == doc["reports"]
    # the bundle echoes format and the fields the rows read, nothing else
    reads = {field for _, fields in SUITES.values() for field in fields}
    assert doc["config"].keys() == {"format"} | reads


def test_cli_run_all_is_this_run_all():
    assert cli.run_all is run_all


def test_draws_follow_choice_and_randrange():
    # the same values as the generator calls they stand for, and the same
    # generator state afterwards, at every sequence length up to 300
    for seed in (0, 1, "qorbit", DEFAULT_SEED):
        for n in range(1, 301):
            ours, theirs = random.Random(f"{seed}/{n}"), random.Random(f"{seed}/{n}")
            assert labs._draws(ours, n, 7) == [theirs.choice(range(n)) for _ in range(7)], n
            assert ours.getstate() == theirs.getstate(), n
        ours, theirs = random.Random(seed), random.Random(seed)
        assert ([d - 4 for d in labs._draws(ours, 9, 300)]
                == [theirs.randrange(-4, 5) for _ in range(300)])
        assert ours.getstate() == theirs.getstate()


def _property_rows(check_id, systems=_PROPERTY_SYSTEMS):
    return [rep for rep in labs.property_suite(systems) if rep.check_id == check_id]


def test_decomposability_rows_fail_on_a_wrong_membership_predicate(monkeypatch):
    membership, quadrics = labs.grassmannian_membership, labs.plucker_quadrics
    monkeypatch.setattr(labs, "grassmannian_membership", lambda omega: not membership(omega))
    monkeypatch.setattr(labs, "plucker_quadrics",
                        lambda omega: (0,) * 5 if any(q % 5 for q in quadrics(omega)) else (1,) * 5)
    rows = _property_rows("projgeo.decomposability")
    assert [rep.subject for rep in rows] == ["QQ", "F5"]
    for rep in rows:
        assert rep.status == FAIL
        assert rep.witnesses == [{"samples": 500, "mismatches": 500}]


def test_qorbit_invariance_fails_on_a_wrong_membership_predicate(monkeypatch):
    monkeypatch.setattr(labs, "grassmannian_membership", lambda omega: False)
    rep = labs._qorbit_invariance()
    assert rep.status == FAIL
    assert rep.witnesses == [{"group_elements": 20, "points": 5, "violations": 100}]


def test_invertibility_closed_form_matches_the_fraction_rank():
    # matrices of the Q-orbit draws' shape: fully random, or with g00 = 0, or
    # with the {1, 2} or {3, 4} block's second row a multiple of its first;
    # the block-determinant product is nonzero exactly at Fraction rank 5
    rng = random.Random(36)
    shape = [(0,), (0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)]
    seen = set()
    for k in range(800):
        g = [[rng.randrange(-3, 4) if c in cols else 0 for c in range(5)] for cols in shape]
        if k % 4 == 1:
            g[0][0] = 0
        elif k % 4 > 1:                 # the block {i, i + 1}, rows i and i + 1
            i, m = (1 if k % 4 == 2 else 3), rng.randrange(-2, 3)
            g[i + 1][i:i + 2] = [m * x for x in g[i][i:i + 2]]
        full = len(rref(g)[0]) == 5
        assert labs._invertible(g) == full, g
        seen.add((k % 4, full))
    assert seen == {(0, True), (0, False), (1, False), (2, False), (3, False)}


def test_chevalley_row_fails_on_one_flipped_structure_constant(monkeypatch):
    # N_{a1,a2} flipped in the bracket [e_a1, e_a2] alone, as the A4 row reads it
    rs = build_root_system(parse_diagram("A4"))
    table = ChevalleyTable(rs)
    a, b = map(table.basis_roots.index, ((1, 0, 0, 0), (0, 1, 0, 0)))
    true_bracket = table.basis_bracket
    table.basis_bracket = lambda i, j: (tuple((k, -c) for k, c in true_bracket(i, j))
                                        if (i, j) == (a, b) else true_bracket(i, j))
    monkeypatch.setattr(labs, "build_table", lambda rs: table)
    rep, = _property_rows("chevalley.properties", ("A4",))
    assert rep.status == FAIL
    assert rep.witnesses[0]["jacobi_failures"] > 0
    assert rep.witnesses[0]["reflection_failures"] == 0


def test_reflection_sweep_fails_on_a_corrupted_cartan_row(monkeypatch):
    # <., alpha_1> loses its alpha_2 term: s_1 (a1 + a2) leaves the roots
    bad = RootSystem(parse_diagram("A4"))
    bad.cartan = ((2, 0, 0, 0),) + bad.cartan[1:]
    assert ((1, 1, 0, 0), 0) in reflection_failures(bad, [(1, 1, 0, 0)])
    monkeypatch.setattr(labs, "build_root_system", lambda diagram: bad)
    rep, = _property_rows("chevalley.properties", ("A4",))
    assert rep.status == FAIL
    assert rep.witnesses[0]["reflection_failures"] > 0


@pytest.mark.parametrize("field", ["surveyed", "full_plane_count", "excluded_axis_point"])
def test_survey_row_fails_on_a_count_off_its_closed_form(monkeypatch, field):
    # dee_points - (p + 1), p^2 (p + 2) and p^2 (p + 1) at F3: one more
    # point in one count fails the row
    survey = plucker.dee_exhaustive_survey

    def statuses():
        return [rep.status for rep in plucker.plucker_suite((3,))
                if rep.check_id == "plucker.survey"]

    def one_more(p):
        rep = survey(p)
        values = {name: getattr(rep, name) for name in rep._fields}
        values[field] += 1
        return SurveyReport(**values)

    assert statuses() == [PASS]
    monkeypatch.setattr(plucker, "dee_exhaustive_survey", one_more)
    assert statuses() == [FAIL]
