"""Acceptance suite: one test per criterion, each printing a verdict line.

Every check here is exact (zero tolerance); the only stated tolerances are
wall-clock budgets, asserted with perf counters.
"""
import time
from contextlib import contextmanager

from delpair import hss, normalbundle, pairs, sff
from delpair.chevalley import build_table
from delpair.cli import run_all
from delpair.projgeo.plucker import (
    alternating_matrix,
    dee_exhaustive_survey,
    ell_generators,
    grassmannian_membership,
    parse_bivector,
    plane_section,
    plucker_quadrics,
)
from delpair.projgeo.segre import segre_fitting_report
from delpair.report import RunConfig, bundle_json
from delpair.rootsys import build_root_system, descriptor, parse_diagram, parse_marked
from oracles import (
    LieElement,
    bracket,
    neg,
    plus,
    reflection_closure_positive_roots,
    rref,
    rref_mod,
)

import random


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_root_system_counts():
    with criterion(1, "root-system counts"):
        t0 = time.perf_counter()
        expected = {"A4": 10, "B4": 16, "D5": 20, "E6": 36, "E7": 63}
        for literal, count in expected.items():
            diagram = parse_diagram(literal)
            rs = build_root_system(diagram)
            assert len(rs.positive_roots) == count
            assert rs.positive_roots == reflection_closure_positive_roots(diagram)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_catalog_phi_verification(catalog7):
    with criterion(2, "catalog and root correspondence"):
        required = {"B4:a1/a2", "B4:a1/a3", "D5:a5/a3", "D5:a1/a2", "D5:a1/a3",
                    "E6:a6/a4", "E6:a6/a5", "E7:a7/a4", "E7:a7/a5", "E7:a7/a6"}
        assert required <= set(catalog7)
        for pair in catalog7.values():
            t0 = time.perf_counter()
            pairs.root_correspondence(pair)       # raises on any violation
            assert time.perf_counter() - t0 < 1.0


def test_criterion_3_degeneracy_suite(maximal_triple):
    with criterion(3, "degeneracy of the three maximal pairs"):
        for pair in maximal_triple:
            ctx = sff.SFFContext.for_pair(pair)
            sigma, tau = sff.kernels(ctx)
            assert sigma.strict
            ars = pair.ambient_rs()
            gamma = ars.simple_root(pair.gamma)
            for nb in pair.ambient.diagram.neighbors(pair.gamma):
                assert plus(gamma, ars.simple_root(nb)) in sigma.kernel_weights
            assert ctx.sub_tangent <= tau.kernel_weights
            assert tau.strict


def test_criterion_4_infinity_locus_suite(maximal_triple):
    with criterion(4, "infinity locus identities"):
        sizes = []
        for pair in maximal_triple:
            report = sff.verify_infinity_locus(pair)
            assert report.status == "pass"
            sizes.append(report.witnesses[0]["locus_size"])
        assert sizes == [6, 10, 16]


def test_criterion_5_vmrt_chain():
    with criterion(5, "VMRT chain from (E7, a7)"):
        chain = hss.vmrt_chain(parse_marked("E7:a7"))
        assert [descriptor(md) for md in chain] == [
            (("E", 7, 7),),
            (("E", 6, 6),),
            (("D", 5, 5),),
            (("A", 4, 2),),
            (("A", 1, 1), ("A", 2, 1)),
        ]


def test_criterion_6_normal_bundle_suite(catalog7, maximal_triple):
    with criterion(6, "normal bundle decomposition"):
        expected = {"D5:a5/a3": [1, 3], "E6:a6/a5": [1, 5], "E7:a7/a6": [1, 10]}
        for pair in maximal_triple:
            dec = normalbundle.levi_components(pair)
            assert [len(c) for c in dec.components] == expected[pair.pair_id]
            report = normalbundle.summands_distinct(pair)
            assert report.status == "pass"
            hw = report.witnesses[0]["highest_weights"]
            assert hw[0] != hw[1]
        for pid in ("B4:a1/a2", "B4:a1/a3", "D5:a1/a2"):
            report = normalbundle.summands_distinct(catalog7[pid])
            assert report.status in ("fail", "indeterminate")


def test_criterion_7_plucker_lab():
    with criterion(7, "Plücker lab"):
        t0 = time.perf_counter()
        # (i) ell on the variety over the rationals, exactly
        g1, g2 = ell_generators()
        for t, s in ((1, 0), (0, 1), (1, 1), (2, 1), (1, -3)):
            assert grassmannian_membership(tuple(t * a + s * b for a, b in zip(g1, g2)))
        # (ii) span([e4^e5], ell): one line plus one isolated point
        section = plane_section(parse_bivector("e4^e5"), primes=(5, 7))
        assert section.shape() == (1, 1)
        assert section.certified_over == ("QQ", "F5", "F7")
        # (iii) span([e2^e4], ell): two lines
        section = plane_section(parse_bivector("e2^e4"), primes=(5, 7))
        assert section.shape() == (2, 0)
        # (iv) surveys agree between the primes; cross-consistency at 100%
        reports = {p: dee_exhaustive_survey(p) for p in (5, 7)}
        assert len({r.exists_exact_b for r in reports.values()}) == 1
        for r in reports.values():
            assert r.witness_without_extra == 0
        assert time.perf_counter() - t0 < 60.0


def test_criterion_8_segre_lab():
    with criterion(8, "Segre lab"):
        t0 = time.perf_counter()
        report = segre_fitting_report(3)
        assert report.status == "pass"
        assert report.witnesses[0]["single_orbit"] is True
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_property_suites(tmp_path):
    with criterion(9, "property suites and reproducibility"):
        # Jacobi on 1000 seeded triples per system
        for literal in ("A4", "B4", "D5", "E6", "E7"):
            rs = build_root_system(parse_diagram(literal))
            table = build_table(rs)
            roots = sorted(rs.positive_roots)
            basis = [LieElement.root_vector(r) for r in roots]
            basis += [LieElement.root_vector(neg(r)) for r in roots]
            basis += [LieElement.coroot(i) for i in range(rs.diagram.rank)]
            rng = random.Random(f"acceptance-{literal}")
            for _ in range(1000):
                x, y, z = (rng.choice(basis) for _ in range(3))
                total = (bracket(bracket(x, y, table), z, table)
                         + bracket(bracket(y, z, table), x, table)
                         + bracket(bracket(z, x, table), y, table))
                assert total.is_zero
            # reflection involutivity on all roots
            for r in rs.positive_roots:
                for i in range(rs.diagram.rank):
                    assert rs.reflect(i, rs.reflect(i, r)) == r
        # decomposability iff the wedge square vanishes, 1000 seeded bivectors
        rng = random.Random("acceptance-bivectors")
        for k in range(1000):
            coords = [rng.randrange(-4, 5) for _ in range(10)]
            if all(c == 0 for c in coords):
                coords[0] = 1
            matrix = alternating_matrix(coords)
            if k % 2 == 0:
                assert grassmannian_membership(coords) == (len(rref(matrix)[0]) <= 2)
            else:                                                   # over F5
                assert (not any(q % 5 for q in plucker_quadrics(coords))) == (
                    len(rref_mod(matrix, 5)) <= 2)
        # byte-identical bundles across repeated seeded runs
        config = RunConfig(max_rank=4, primes_plucker=(5,), primes_segre=(2,))
        code1, doc1 = run_all(config)
        code2, doc2 = run_all(config)
        assert code1 == code2 == 0
        assert bundle_json(doc1) == bundle_json(doc2)
