import itertools
from fractions import Fraction

import pytest

from delpair.projgeo import segre
from delpair.projgeo.linalg import canonical_mod, primitive_int_covector, projective_points
from delpair.projgeo.segre import (
    SegreLine,
    _gl_generators,
    _on_segre,
    segre_fitting_report,
    segre_point,
)
from oracles import (
    enumerated_span_section,
    fraction_primitive_covector,
    looped_fitting_report,
    rref,
    sympy_section_locus,
)


def segre_minors(z) -> list:
    """The 2x2 minors of the coordinate matrix [[z0, z1, z2], [z3, z4, z5]]."""
    return [z[0] * z[4] - z[1] * z[3], z[0] * z[5] - z[2] * z[3], z[1] * z[5] - z[2] * z[4]]


def rational_segre_point(a: tuple, b: tuple) -> tuple:
    return tuple(ai * bj for ai in a for bj in b)


def test_segre_point_counts():
    for q, expected in ((2, 21), (3, 52)):
        pts = {segre_point(a, b, q)
               for a in projective_points(q, 2)
               for b in projective_points(q, 3)}
        assert len(pts) == expected
        assert expected == (q + 1) * (q * q + q + 1)


def test_quadrics_cut_out_the_image():
    # the minors whose vanishing SegreLine checks and whose polar forms give
    # the closed form of its sections, against the image itself; q = 2 is
    # included, since the closed form needs no halving there
    for q in (2, 3, 5):
        image = {segre_point(a, b, q)
                 for a in projective_points(q, 2)
                 for b in projective_points(q, 3)}
        count = 0
        for z in projective_points(q, 6):
            count += 1
            assert (z in image) == _on_segre(z, q)
        assert count == (q**6 - 1) // (q - 1)


def test_fitting_report_passes_f2_and_f3():
    for q in (2, 3):
        report = segre_fitting_report(q)
        assert report.status == "pass"
        data = report.witnesses[0]
        assert data["single_orbit"] is True
        assert data["orbit_size"] == data["valid_configs"]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fitting_report_counts_match_closed_forms(q):
    # F5 is exhaustive too: a (1,0)-line is a plane point y, its extra point
    # (a, b) has b != y; a (0,1)-line is (x, L), its extra point has a != x
    # (q choices) and b off L (q^2 choices)
    report = segre_fitting_report(q)
    assert report.status == "pass"
    data = report.witnesses[0]
    plane = q * q + q + 1
    assert data["a_configs"] == plane * (q + 1) * (q * q + q)
    assert data["b_configs"] == (q + 1) * plane * q * q * q
    assert data["valid_configs"] == data["orbit_size"] == data["b_configs"]
    assert data["single_orbit"] is True
    assert len(report.witnesses) == 1


def _cut_generators(n: int, q: int, cut):
    """The generators of GL_n(F_q): all, the first ``cut``, or all with each
    inverse replaced by the generator itself, which moves plane lines wrongly."""
    gens = list(_gl_generators(n, q))
    if cut == "self-inverse":
        return [(g, g) for g, _ in gens]
    return gens[:cut]


def _not_involutions(n: int, q: int) -> list[int]:
    """Indices of the generators g of GL_n(F_q) with g^2 != 1 mod q."""
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return [k for k, (g, _) in enumerate(_gl_generators(n, q))
            if [[sum(g[i][t] * g[t][j] for t in range(n)) % q for j in range(n)]
                for i in range(n)] != identity]


@pytest.mark.parametrize("cut", [None, 1, 2, 3, "self-inverse"])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_orbit_step_matches_four_tuple_oracle(q, cut, monkeypatch):
    # the whole report against the looped oracle, which cuts the section of
    # every configuration of (a) and (b) and searches both orbits over whole
    # (y, a, b) and (x, L, a, b) tuples: with every generator, with each
    # group cut to its first 1, 2 or 3 generators (several orbits), and with
    # wrong inverses, whose orbit leaves the valid set for q > 2
    gens = {n: _cut_generators(n, q, cut) for n in (2, 3)}
    monkeypatch.setattr(segre, "_gl_generators", lambda n, p: iter(gens[n]))
    report = segre_fitting_report(q).to_dict()
    oracle = looped_fitting_report(q, gens[2], gens[3]).to_dict()
    # a wrong inverse carries plane lines wrongly, which step (i) reports;
    # the oracle acts on the factors directly and has no such rows
    moved_wrongly = [{"check": "generator", "factor": 2, "index": k}
                     for k in (_not_involutions(3, q) if cut == "self-inverse" else [])]
    assert [row for row in report["witnesses"] if row.get("check") == "generator"] == moved_wrongly
    report["witnesses"] = [row for row in report["witnesses"] if row not in moved_wrongly]
    assert report == oracle
    data, checks = report["witnesses"][0], [row.get("check") for row in report["witnesses"][1:]]
    plane = q * q + q + 1
    assert data["segre_points"] == (q + 1) * plane
    assert (data["a_configs"] == plane * (q + 1) * (q * q + q)) == ("a-orbit" not in checks)
    # at q = 2 each generator is its own inverse, so only the cuts fail there
    assert data["single_orbit"] == (cut is None or (cut == "self-inverse" and q == 2))
    assert ("a-orbit" in checks) == (cut in (1, 2, 3))
    assert (report["status"] == "pass") == data["single_orbit"]


def test_factor_orbit_of_the_right_size_off_the_valid_set_fails(monkeypatch):
    # single_orbit compares each factor's orbit with its set, not only sizes:
    # an orbit of pairs (x, a) with one a != x replaced by a == x fails
    orbit = segre._orbit

    def one_pair_off(seed, moves):
        found = orbit(seed, moves)
        if len(seed[0]) == 2:                   # (x, a) of line points, not (L, b)
            x, a = min(found)
            found = found - {(x, a)} | {(x, x)}
        return found

    monkeypatch.setattr(segre, "_orbit", one_pair_off)
    report = segre_fitting_report(3)
    size = report.witnesses[0]["valid_configs"]
    assert report.witnesses[0]["orbit_size"] == size
    assert report.witnesses[0]["single_orbit"] is False
    assert report.status == "fail"
    assert report.witnesses[1:] == [{"check": "c-orbit", "orbit_size": size,
                                     "valid_configs": size}]


@pytest.mark.parametrize("call", [0, 1])
def test_a_orbit_of_the_right_size_off_its_set_fails(call, monkeypatch):
    # the two factor orbits of (a), searched first, are compared with their
    # sets, not only by size: one element of the call-th orbit is moved off
    # its set, a diagonal (a, a) to (a, c) or a pair (y, b) of distinct plane
    # points to (y, y)
    orbit, seeds = segre._orbit, []

    def one_off(seed, moves):
        found = orbit(seed, moves)
        seeds.append(seed)
        if len(seeds) - 1 == call:
            u, v = min(found)
            w = max(found)[1] if u == v else u
            found = found - {(u, v)} | {(u, w)}
        return found

    monkeypatch.setattr(segre, "_orbit", one_off)
    report = segre_fitting_report(3)
    assert [len(seed[0]) for seed in seeds] == [2, 3, 2, 3]
    assert (seeds[0][0] == seeds[0][1]) and seeds[1][0] != seeds[1][1]
    size = 4 * 13 * 12
    assert report.witnesses[0]["a_configs"] == size
    assert report.witnesses[0]["single_orbit"] is True
    assert report.status == "fail"
    assert report.witnesses[1:] == [{"check": "a-orbit", "orbit_size": size, "configs": size}]


def test_generator_off_the_product_fails(monkeypatch):
    # step (i) ties each generator's action on the ambient space to its action
    # on the factors: with z01 and z10 swapped after g (x) 1 and 1 (x) h, no
    # generator maps the image of (a, b) to that of the moved pair
    kronecker = segre._kronecker

    def swapped(g, h):
        m = list(kronecker(g, h))
        m[1], m[3] = m[3], m[1]
        return tuple(m)

    monkeypatch.setattr(segre, "_kronecker", swapped)
    report = segre_fitting_report(3)
    assert report.status == "fail"
    assert report.witnesses[1:] == (
        [{"check": "generator", "factor": 1, "index": k} for k in range(3)]
        + [{"check": "generator", "factor": 2, "index": k} for k in range(7)])


def test_a_section_that_is_exactly_line_plus_point_fails(monkeypatch):
    # a negative control for (a): a section that adds only the point to the
    # line misses the joining curve and is the exact section (a) rules out,
    # while (b), whose section is exactly that, still passes
    monkeypatch.setattr(segre.SegreLine, "section_with", lambda self, P2: self.points | {P2})
    report = segre_fitting_report(3)
    assert report.status == "fail"
    assert [row["check"] for row in report.witnesses[1:]] == ["a-witness", "a-exact-section"]


def test_a_segre_map_that_joins_two_points_fails_the_point_count(monkeypatch):
    # the image of (a, b) with a and b the largest points of their factors
    # taken for that of (min a, b): 51 Segre points at F3, not 4 * 13, and no
    # generator then acts on the image as on the factors
    p1, p2 = list(projective_points(3, 2)), list(projective_points(3, 3))
    point = segre.segre_point
    monkeypatch.setattr(segre, "segre_point", lambda a, b, q: point(
        min(p1) if (a, b) == (max(p1), max(p2)) else a, b, q))
    report = segre_fitting_report(3)
    assert report.status == "fail"
    assert report.witnesses[1] == {"check": "point-count", "got": 51, "expected": 52}
    assert {row["check"] for row in report.witnesses[2:]} == {"generator"}


def test_a_b_section_with_one_point_too_many_fails(monkeypatch):
    # a negative control for (b): each section gains P0 + P2, a point of its
    # plane off the variety; (a), whose section holds more than the line and
    # the point, still passes
    section_with = segre.SegreLine.section_with

    def one_too_many(self, P2):
        return section_with(self, P2) | {canonical_mod([u + w for u, w in zip(self.P0, P2)],
                                                       self.q)}

    monkeypatch.setattr(segre.SegreLine, "section_with", one_too_many)
    report = segre_fitting_report(3)
    assert report.status == "fail"
    assert report.witnesses[1:] == [{"check": "b-section", "x": (0, 1), "L": (0, 0, 1),
                                     "point": ((1, 0), (0, 0, 1))}]


def a_configs(q: int):
    """(P0, P1, P2): two points of each (1,0)-line x {y} and each (a, b), b != y."""
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    for y in p2:
        P0, P1 = (segre_point(x, y, q) for x in p1[:2])
        for a, b in itertools.product(p1, p2):
            if b != y:
                yield P0, P1, segre_point(a, b, q)


def b_configs(q: int, lines):
    """(P0, P1, P2): two points of each (0,1)-line {x} x L with (x, L) in
    lines, and each (a, b) with a != x and b off L."""
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    for x, L in lines:
        on_L = [m for m in p2 if sum(c * v for c, v in zip(L, m)) % q == 0]
        P0, P1 = (segre_point(x, m, q) for m in on_L[:2])
        for a, b in itertools.product(p1, p2):
            if a != x and b not in on_L:
                yield P0, P1, segre_point(a, b, q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_closed_form_section_matches_enumeration(q):
    # every (a) configuration; every (b) configuration at F2 and F3, and
    # those of two (0,1)-lines at F5
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    lines = list(itertools.product(p1, p2)) if q < 5 else [(p1[0], p2[0]), (p1[-1], p2[-1])]
    compared = 0
    for P0, P1, P2 in itertools.chain(a_configs(q), b_configs(q, lines)):
        closed = SegreLine(P0, P1, q).section_with(P2)
        assert closed == enumerated_span_section([P0, P1, P2], q), (P0, P1, P2)
        compared += 1
    plane = q * q + q + 1
    assert compared == plane * (q + 1) * (q * q + q) + len(lines) * q * q * q


@pytest.mark.parametrize("q", [2, 3])
def test_rank_zero_section_is_the_whole_plane(q):
    # a (0,1)-line {x} x L plus (x, b), b off L, spans {x} x P^2, which lies
    # on the variety: all three polar forms vanish, and the report never
    # builds such a span
    p2 = list(projective_points(q, 3))
    for x in projective_points(q, 2):
        for L in p2:
            on_L = [m for m in p2 if sum(c * v for c, v in zip(L, m)) % q == 0]
            line = SegreLine(segre_point(x, on_L[0], q), segre_point(x, on_L[1], q), q)
            for b in p2:
                if b in on_L:
                    continue
                P2 = segre_point(x, b, q)
                section = line.section_with(P2)
                assert section == {segre_point(x, m, q) for m in p2}
                assert section == enumerated_span_section([line.P0, line.P1, P2], q)


@pytest.mark.parametrize("q", [2, 3])
def test_section_hypotheses_are_checked(q):
    e0, e1 = (1, 0), (0, 1)
    f0, f1, f2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    line = SegreLine(segre_point(e0, f0, q), segre_point(e0, f1, q), q)
    with pytest.raises(ValueError, match="^span is not a plane$"):
        line.section_with(segre_point(e0, (1, 1, 0), q))            # on the line
    with pytest.raises(ValueError, match="^point is not on the Segre variety$"):
        line.section_with((0, 0, 1, 1, 0, 0))                       # z02 z10 != 0
    with pytest.raises(ValueError, match="^span is not a plane$"):
        enumerated_span_section([line.P0, line.P1, segre_point(e0, (1, 1, 0), q)], q)
    not_a_line = "^points do not span a line of the Segre variety$"
    with pytest.raises(ValueError, match=not_a_line):                   # no common factor
        SegreLine(segre_point(e0, f0, q), segre_point(e1, f2, q), q)
    with pytest.raises(ValueError, match=not_a_line):
        SegreLine((0, 0, 1, 1, 0, 0), segre_point(e0, f0, q), q)
    with pytest.raises(ValueError, match="^span is not a line$"):
        SegreLine(segre_point(e0, f0, q), segre_point(e0, f0, q), q)


def test_f3_config_count_by_direct_double_loop():
    report = segre_fitting_report(3)
    data = report.witnesses[0]
    p1 = list(projective_points(3, 2))
    p2 = list(projective_points(3, 3))
    lines = list(projective_points(3, 3))          # covectors
    count = 0
    for x in p1:
        for L in lines:
            on_line = [b for b in p2 if sum(c * v for c, v in zip(L, b)) % 3 == 0]
            for a in p1:
                if a == x:
                    continue
                count += len(p2) - len(on_line)
    assert count == 4 * 13 * 3 * 9
    assert data["b_configs"] == count
    assert data["valid_configs"] == count


def test_zero_one_line_plus_point_section_over_rationals():
    # plane spanned by the line {x} x L and an off-line point, over QQ:
    # exactly one line plus one isolated point
    x = (1, 0)
    m0 = rational_segre_point(x, (1, 0, 0))
    m1 = rational_segre_point(x, (0, 1, 0))     # L = the line {b2 = 0}
    pt = rational_segre_point((0, 1), (0, 0, 1))
    basis, _ = rref([m0, m1, pt])
    lines, points, full_plane = sympy_section_locus(basis, segre_minors)
    assert (len(lines), len(points), full_plane) == (1, 1, False)
    found = [sum(c * x for c, x in zip(points[0], col)) for col in zip(*basis)]
    assert fraction_primitive_covector(found) == fraction_primitive_covector(pt)


def test_primitive_covector_refuses_the_zero_covector():
    # the library's covector is an int vector; the rational oracle's may hold Fractions
    with pytest.raises(ValueError, match="^zero covector$"):
        primitive_int_covector([0, 0, 0])
    with pytest.raises(ValueError, match="^zero covector$"):
        fraction_primitive_covector([0, Fraction(0, 3), 0])


def test_canonical_mod_refuses_a_vector_that_vanishes_mod_p():
    with pytest.raises(ValueError, match="^projective point needs a nonzero coordinate$"):
        canonical_mod((5, -10, 0), 5)


def test_one_zero_line_plus_point_has_witness_curve():
    # the same span built on a (1,0)-line picks up the joining curve
    y = (1, 0, 0)
    m0 = rational_segre_point((1, 0), y)
    m1 = rational_segre_point((0, 1), y)
    pt = rational_segre_point((1, 0), (0, 1, 0))
    lines, _, full_plane = sympy_section_locus(rref([m0, m1, pt])[0], segre_minors)
    assert len(lines) >= 2 and not full_plane      # never just line plus point


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_generator_inverses_are_inverse_mod_p(n, p):
    gens = list(_gl_generators(n, p))
    assert len(gens) == n * (n - 1) + (p > 2)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for g, g_inv in gens:
        for left, right in ((g, g_inv), (g_inv, g)):
            product = [[sum(left[i][k] * right[k][j] for k in range(n)) % p for j in range(n)]
                       for i in range(n)]
            assert product == identity, (g, g_inv)
        assert g != tuple(map(tuple, identity))
    assert len({g for g, _ in gens}) == len(gens)
