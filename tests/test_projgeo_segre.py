import pytest

from delpair.projgeo.linalg import primitive_int_covector, projective_points, rref
from delpair.projgeo.segre import _MINORS, _gl_generators, segre_fitting_report, segre_point
from oracles import sympy_section_locus


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
    # the minors that _span_section tests, against the image itself
    image = {segre_point(a, b, 3)
             for a in projective_points(3, 2)
             for b in projective_points(3, 3)}
    for z in projective_points(3, 6):
        on_segre = not any((z[a] * z[b] - z[c] * z[d]) % 3 for (a, b), (c, d) in _MINORS)
        assert (z in image) == on_segre


def test_fitting_report_passes_f2_and_f3():
    for q in (2, 3):
        report = segre_fitting_report(q)
        assert report.status == "pass"
        data = report.witnesses[0]
        assert data["single_orbit"] is True
        assert data["orbit_size"] == data["valid_configs"]


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
    assert primitive_int_covector(found) == primitive_int_covector(pt)


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
