"""Contracts of the value classes that the memo caches and the bundles rely on.

The caches key on equal values, not on identity: a value class whose
``__eq__`` or ``__hash__`` went wrong would keep every bundle the same and
silently rebuild each root system and deletion per call.  The read-only
records share ``Frozen``'s ``__init__``, which takes each field once,
positionally or by name.
"""
import operator

import pytest

from delpair import pairs
from delpair.frozen import Frozen
from delpair.hss import noncompact_positive_roots
from delpair.normalbundle import levi_components
from delpair.pairs import DeletionPair, MaximalityVerdict
from delpair.projgeo.plucker import (
    collinearity_scan,
    dee_exhaustive_survey,
    parse_bivector,
    plane_section,
)
from delpair.projgeo.segre import SegreLine, segre_point
from delpair.report import PASS, CheckReport, RunConfig
from delpair.rootsys import (
    Component,
    build_root_system,
    parse_diagram,
    parse_marked,
)
from delpair.sff import KernelReport, SFFContext

# Per value class, a builder of fresh equal instances and one of its fields.
VALUES = {
    "Component": (lambda: Component("A", ("a1", "a2")), "letter"),
    "DynkinDiagram": (lambda: parse_diagram("E7+A2"), "nodes"),
    "MarkedDiagram": (lambda: parse_marked("E7:a7"), "marked"),
    "DeletionPair": (lambda: DeletionPair(parse_marked("E7:a7"), "a5"), "gamma0"),
    "RunConfig": (lambda: RunConfig(max_rank=9, primes_plucker=(3,)), "max_rank"),
    "SegreLine": (lambda: SegreLine(segre_point((1, 0), (1, 0, 0), 3),
                                    segre_point((1, 0), (0, 1, 0), 3), 3), "q"),
    "MaximalityVerdict": (lambda: MaximalityVerdict(
        False, (DeletionPair(parse_marked("D6:a1"), "a4"),)), "witnesses"),
    "SFFContext": (lambda: SFFContext.for_pair(DeletionPair(parse_marked("D5:a5"), "a3")),
                   "psi"),
    "KernelReport": (lambda: KernelReport(frozenset({(0, 1, 1)}), strict=True), "strict"),
    "NormalDecomposition": (
        lambda: levi_components(DeletionPair(parse_marked("E7:a7"), "a6")), "components"),
    "SectionDescription": (lambda: plane_section(parse_bivector("e4^e5")), "lines"),
    "CollinearityWitness": (lambda: collinearity_scan(parse_bivector("e2^e4")), "param"),
    "SurveyReport": (lambda: dee_exhaustive_survey(3), "surveyed"),
}


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned(name):
    build, field = VALUES[name]
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_built_apart_are_equal_and_hash_equal(name):
    build, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("args, kwargs, message", [
    (("A",), {}, r"^Component\(\) missing field 'labels'$"),
    (("A", ("a1",)), {"rank": 1}, r"^Component\(\) got an unexpected field 'rank'$"),
    (("A", ("a1",)), {"letter": "B"}, r"^Component\(\) got multiple values for field 'letter'$"),
    (("A", ("a1",), 1), {}, r"^Component\(\) takes 2 fields but 3 were given$"),
])
def test_a_record_refuses_a_missing_unknown_or_repeated_field(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Component(*args, **kwargs)


def test_a_value_is_unequal_to_a_value_of_another_class():
    # the same field values in another Frozen class: __eq__ declines it both ways

    class Twin(Frozen, fields=("letter", "labels")):
        pass

    component, twin = Component("A", ("a1", "a2")), Twin("A", ("a1", "a2"))
    assert component.__eq__(twin) is NotImplemented
    assert component != twin and twin != component
    assert hash(component) == hash(twin)


def test_a_record_takes_its_fields_positionally_or_by_name():
    by_position = Component("A", ("a1", "a2"))
    assert Component(labels=("a1", "a2"), letter="A") == by_position
    assert Component("A", labels=("a1", "a2")) == by_position
    assert (by_position.letter, by_position.labels) == ("A", ("a1", "a2"))


def test_deletion_pair_equality_ignores_chain_and_sub():
    p = DeletionPair(parse_marked("D6:a1"), "a3")
    q = DeletionPair(parse_marked("D6:a1"), "a3")
    object.__setattr__(q, "chain", ())
    object.__setattr__(q, "sub", None)
    assert p == q and hash(p) == hash(q)
    assert p != DeletionPair(parse_marked("D6:a1"), "a4")


@pytest.mark.parametrize("status, message", [
    ("passed", "unknown status 'passed'"),
    ("fail", "fail report needs witnesses or notes"),
    ("indeterminate", "indeterminate report needs witnesses or notes"),
])
def test_check_report_refuses_an_unknown_status_or_an_unexplained_verdict(status, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CheckReport("x", "s", status)


def test_check_reports_do_not_share_a_witness_list():
    a = CheckReport("x", "s", PASS)
    b = CheckReport("x", "s", PASS)
    a.witnesses.append({"seen": 1})
    assert b.witnesses == []
    a.notes = "reports stay mutable"
    assert a.notes == "reports stay mutable"


def test_memo_caches_hit_on_equal_values():
    build_root_system.cache_clear()
    first = build_root_system(parse_diagram("E7"))
    assert build_root_system(parse_diagram("E7")) is first
    assert build_root_system.cache_info().misses == 1

    # the catalog parses its ambients afresh on each call, so only equal
    # values find the same pairs, and their Phi; so too the noncompact roots
    # of a marked diagram parsed twice
    assert all(map(operator.is_, pairs.catalog(7), pairs.catalog(7)))
    assert noncompact_positive_roots(parse_marked("E7:a7")) is noncompact_positive_roots(
        parse_marked("E7:a7"))
