import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from delpair.projgeo import plucker
from delpair.projgeo.linalg import (
    alternating_rank,
    canonical_mod,
    kernel_basis,
    primitive_int_covector,
    projective_points,
    rref,
    rref_mod,
)
from delpair.projgeo.plucker import (
    PAIR_INDEX,
    CertificationError,
    _certify,
    _echelon_cells,
    _pencil_parameter,
    _polarization_rank,
    alternating_matrix,
    collinearity_scan,
    dee_exhaustive_survey,
    ell_generators,
    ell_plane,
    ell_rows,
    grassmannian_membership,
    parse_bivector,
    plane_section,
    plucker_quadrics,
    q_orbit_membership,
    wedge,
)
from delpair.report import DEFAULT_SEED
from oracles import (
    _common_vector,
    _on_ell,
    _wedge_mod,
    coord_plucker_quadrics,
    decomposability_bivectors,
    early_stop_rank,
    enumerate_grassmannian,
    finite_plane_section,
    gaussian_binomial_2_of_5,
    maximal_minors,
    pointwise_dee_survey,
    quadric_polarization,
    sympy_section_locus,
)


def rank(rows) -> int:
    """Rank over the rationals."""
    return len(rref(rows)[0])


def span_rows(b: tuple) -> list[tuple]:
    """Spanning rows b, e1^e2, e1^e3 of the plane through b and ell."""
    return [b, *ell_generators()]


def line_span(rows, cov) -> list[tuple[int, ...]]:
    """Two primitive integer points spanning the section line with plane
    covector cov, plane coordinates referring to the rref basis of rows."""
    basis = rref(rows)[0]
    return [primitive_int_covector([sum(c * row[i] for c, row in zip(k, basis))
                                    for i in range(10)])
            for k in kernel_basis([cov], 3)]


def on_grassmannian_mod(coords, p: int) -> bool:
    return not any(q % p for q in plucker_quadrics(coords))


def test_quadrics_vanish_on_decomposable():
    assert plucker_quadrics(parse_bivector("e2^e4")) == (Fraction(0),) * 5


def test_symplectic_form_single_component_two():
    values = plucker_quadrics(parse_bivector("e1^e2 + e3^e4"))
    assert sorted(values) == [0, 0, 0, 0, 2]
    # the nonzero coordinate sits on e1^e2^e3^e4, i.e. the set missing 5
    assert values[4] == 2


@pytest.mark.parametrize("kind", ["int", "Fraction", "tuple"])
def test_written_out_quadrics_match_coord_oracle(kind):
    # src/ passes both lists (plane combinations) and tuples (bivectors)
    rng = random.Random(f"quadric-table-{kind}")
    for _ in range(500):
        if kind == "Fraction":
            coords = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(10)]
        else:
            coords = [rng.randrange(-9, 10) for _ in range(10)]
        if kind == "tuple":
            coords = tuple(coords)
        assert plucker_quadrics(coords) == coord_plucker_quadrics(coords), coords


def test_hand_expansion_x_e45_y_e12_z_e13():
    # omega = x e45 + y e12 + z e13 has omega^omega = 2xy + 2xz components
    x, y, z = 2, 3, -5
    omega = parse_bivector(f"{x} e4^e5 + {y} e1^e2 - 5 e1^e3")
    values = plucker_quadrics(omega)
    nonzero = {v for v in values if v != 0}
    assert nonzero == {2 * x * y, 2 * x * z}


def test_membership_examples():
    assert grassmannian_membership(parse_bivector("e4^e5"))
    assert not grassmannian_membership(parse_bivector("e1^e2 + e3^e4"))
    g1, g2 = ell_generators()
    for t, s in ((1, 0), (0, 1), (1, 1), (3, -2), (7, 5)):
        assert grassmannian_membership(tuple(t * a + s * b for a, b in zip(g1, g2)))


def test_q_orbit_membership():
    assert q_orbit_membership(parse_bivector("e4^e5"))
    assert not q_orbit_membership(parse_bivector("e2^e4"))
    assert q_orbit_membership(wedge([1, 0, 0, 1, 0], [0, 1, 0, 0, 1]))
    with pytest.raises(ValueError):
        q_orbit_membership(parse_bivector("e1^e2 + e3^e4"))


def test_decomposability_iff_rank_two_seeded():
    rng = random.Random(20230915)
    for k in range(1000):
        coords = [rng.randrange(-4, 5) for _ in range(10)]
        if all(c == 0 for c in coords):
            coords[0] = 1
        if k % 2 == 0:
            decomposable = grassmannian_membership(coords)
            assert decomposable == (rank(alternating_matrix(coords)) <= 2)
        else:                                               # over F5
            decomposable = on_grassmannian_mod(coords, 5)
            assert decomposable == (len(rref_mod(alternating_matrix(coords), 5)) <= 2)


def test_integer_bivectors_decide_like_rational_ones():
    # the property suite's QQ branch keeps int coordinates; the verdicts and
    # the alternating matrix's rank are those of the Fraction bivector
    rng = random.Random(8)
    for _ in range(300):
        ints = tuple(rng.randrange(-4, 5) for _ in range(10))
        fracs = tuple(map(Fraction, ints))
        assert all(type(x) is int for row in alternating_matrix(ints) for x in row)
        assert grassmannian_membership(ints) == grassmannian_membership(fracs)
        assert alternating_rank(ints) == min(rank(alternating_matrix(fracs)), 3)
        if any(ints) and grassmannian_membership(ints):
            assert q_orbit_membership(ints) == q_orbit_membership(fracs)


def _low_rank_matrix(rng, nrows, ncols, r, bound):
    """A nrows x ncols integer product of two random factors of inner size r."""
    left = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(nrows)]
    right = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(r)]
    return [[sum(row[k] * right[k][c] for k in range(r)) for c in range(ncols)]
            for row in left]


def test_early_stop_rank_matches_fraction_rref():
    # the oracle's rank-only elimination at every stop, over Q against the
    # Fraction rref and mod 5 and 7 against rref_mod
    # (itself checked against kernel counts below), on the property suite's
    # 1 000 decomposability draws and on integer matrices of rank 0 to 5
    draws = [alternating_matrix(omega) for field in ("QQ", "F5")
             for omega in decomposability_bivectors(DEFAULT_SEED, field)]
    rng = random.Random(57)
    products = [_low_rank_matrix(rng, nrows, ncols, r, 9)
                for nrows, ncols in ((5, 5), (6, 7), (7, 6)) for r in range(6) for _ in range(3)]
    seen = {}
    for m in draws + products:
        for p in (None, 5, 7):
            full = rank(m) if p is None else len(rref_mod(m, p))
            seen.setdefault(p, set()).add(full)
            assert early_stop_rank(m, p) == full, (p, m)
            for stop in (1, 2, 3, 5):
                assert early_stop_rank(m, p, stop) == min(full, stop), (p, stop, m)
    assert all(ranks >= {0, 1, 2, 3, 4, 5} for ranks in seen.values()), seen


def test_alternating_rank_matches_early_stop_rank_on_every_point_of_p9_f3():
    # every point of P^9(F_3) as ten integer coordinates; the points of rank
    # at most 2 are G(2,5)(F_3), of size [5 choose 2]_3
    counts = Counter()
    for x in projective_points(3, 10):
        got = alternating_rank(x, 3)
        assert got == early_stop_rank(alternating_matrix(x), 3, stop=3), x
        counts[got] += 1
    assert sum(counts.values()) == 29_524
    assert counts == {2: gaussian_binomial_2_of_5(3), 3: 29_524 - gaussian_binomial_2_of_5(3)}


def test_alternating_rank_matches_early_stop_rank_on_small_coordinates():
    # over Q and mod 5 and 7: coordinates in {-2..2}^10, some with most of
    # them zero, and wedges of two vectors in {-2..2}^5, which have rank <= 2
    rng = random.Random(32)
    sample = [[rng.randrange(-2, 3) for _ in range(10)] for _ in range(1500)]
    for _ in range(1500):
        support = rng.sample(range(10), rng.randrange(1, 6))
        sample.append([rng.randrange(-2, 3) if k in support else 0 for k in range(10)])
    sample += [list(wedge([rng.randrange(-2, 3) for _ in range(5)],
                          [rng.randrange(-2, 3) for _ in range(5)]))
               for _ in range(500)]
    seen = {}
    for x in sample:
        m = alternating_matrix(x)
        for p in (None, 5, 7):
            got = alternating_rank(x, p)
            assert got == early_stop_rank(m, p, stop=3), (p, x)
            assert (got <= 2) == (early_stop_rank(m, p) <= 2), (p, x)
            seen.setdefault(p, set()).add(got)
    assert all(ranks == {0, 2, 3} for ranks in seen.values()), seen


def test_rank_mod_p_matches_brute_force_kernel_count():
    # |ker| = p^(ncols - rank) for the kernel counted over all of F_p^ncols
    rng = random.Random(31)
    seen = {}
    for p in (2, 3, 5):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
            r = rng.randint(0, min(nrows, ncols))
            m = [[x % p for x in row] for row in _low_rank_matrix(rng, nrows, ncols, r, 2 * p)]
            for matrix in (m, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]):
                red = rref_mod(matrix, p)
                kernel = sum(1 for x in itertools.product(range(p), repeat=ncols)
                             if not any(sum(a * b for a, b in zip(row, x)) % p for row in matrix))
                assert kernel == p ** (ncols - len(red)), (p, matrix)
                assert all(next(x for x in row if x) == 1 and all(0 <= x < p for x in row)
                           for row in red)
                seen.setdefault(p, set()).add(len(red))
    assert all(ranks >= {0, 1, 2, 3, 4} for ranks in seen.values()), seen


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_projective_points_sequence(p):
    # every nonzero vector of F_p^d whose first nonzero entry is 1, ordered by
    # that entry's position and then by the vector; the labs index by this order
    for d in (1, 2, 3, 4):
        canonical = [v for v in itertools.product(range(p), repeat=d)
                     if any(v) and next(x for x in v if x) == 1]
        canonical.sort(key=lambda v: (next(i for i, x in enumerate(v) if x), v))
        assert list(projective_points(p, d)) == canonical
        assert len(canonical) == (p ** d - 1) // (p - 1)


def test_bivector_literal_parsing():
    omega = parse_bivector("e2^e4 - 3 e1^e5")
    assert omega[PAIR_INDEX[(2, 4)]] == 1
    assert omega[PAIR_INDEX[(1, 5)]] == -3
    assert parse_bivector("e4^e2")[PAIR_INDEX[(2, 4)]] == -1
    with pytest.raises(ValueError):
        parse_bivector("e1^e1")
    with pytest.raises(ValueError):
        parse_bivector("nonsense")
    # every term after the first carries its own sign
    assert parse_bivector("e1^e2 + e3^e4 - 2 e1^e5") == (1, 0, 0, -2, 0, 0, 0, 1, 0, 0)
    for text in ("e1^e2 e3^e4", "e1^e2e3^e4", "e1^e2 + e1^e3 2 e4^e5"):
        with pytest.raises(ValueError, match="needs \\+ or - before"):
            parse_bivector(text)
    # a literal whose terms cancel is refused with its own message
    for text in ("e1^e2 - e1^e2", "0 e1^e2", "e2^e4 + e4^e2"):
        with pytest.raises(ValueError, match="is zero$"):
            parse_bivector(text)


# -- plane sections -----------------------------------------------------------

def test_section_span_e45_is_line_plus_point():
    section = plane_section(parse_bivector("e4^e5"))
    assert section.shape() == (1, 1)
    assert section.certified_over == ("QQ", "F5", "F7")
    assert not section.full_plane
    point = section.isolated_points[0]
    e45 = parse_bivector("e4^e5")
    assert point == primitive_int_covector(e45)


def test_section_span_e24_is_two_lines():
    plane = span_rows(parse_bivector("e2^e4"))
    section = plane_section(parse_bivector("e2^e4"))
    assert section.shape() == (2, 0)
    # the extra line passes through e2^e4 and e1^e2
    extra_pts = set()
    for line in section.lines:
        extra_pts |= set(line_span(plane, line))
    b = primitive_int_covector(parse_bivector("e2^e4"))
    spans = [p for line in section.lines for p in line_span(plane, line)]
    assert any(b == p or rank(spans + [b]) == rank(spans) for p in extra_pts)


def test_section_of_plane_inside_variety_is_full_plane():
    # span(e2^e3, ell) is the plane of lines inside a fixed 3-space
    section = plane_section(parse_bivector("e2^e3"))
    assert section.full_plane
    assert section.shape() == (0, 0)


def test_section_lines_substitute_back():
    plane = span_rows(parse_bivector("e4^e5"))
    section = plane_section(parse_bivector("e4^e5"))
    for line in section.lines:
        p, q = line_span(plane, line)
        for t, s in ((1, 0), (0, 1), (1, 1), (2, -3)):
            assert grassmannian_membership(tuple(t * a + s * b for a, b in zip(p, q)))


def _wrong_covector(monkeypatch, size: int, wrong: tuple) -> None:
    """Make plane_section report ``wrong`` wherever it makes a primitive
    vector of ``size`` coordinates: a section line (3) or an isolated point (10)."""
    real = plucker.primitive_int_covector
    monkeypatch.setattr(plucker, "primitive_int_covector",
                        lambda v: wrong if len(v) == size else real(v))


def test_substitution_refuses_a_line_off_the_variety(monkeypatch):
    # u = 0 in span(e2^e4, ell) holds e1^e3 + e2^e4, of rank 4
    _wrong_covector(monkeypatch, 3, (1, 0, 0))
    with pytest.raises(AssertionError, match=r"^reported line \(1, 0, 0\) leaves the variety$"):
        plane_section(parse_bivector("e2^e4"))


def test_substitution_refuses_a_point_off_the_variety(monkeypatch):
    e12_e34 = parse_bivector("e1^e2 + e3^e4")
    _wrong_covector(monkeypatch, 10, e12_e34)
    with pytest.raises(AssertionError, match=rf"^reported point {re.escape(str(e12_e34))} "
                                             r"is off the variety$"):
        plane_section(parse_bivector("e4^e5"))


def test_substitution_refuses_a_point_off_the_plane(monkeypatch):
    # e2^e4 is on the variety but not in span(e4^e5, ell)
    e24 = parse_bivector("e2^e4")
    _wrong_covector(monkeypatch, 10, e24)
    with pytest.raises(AssertionError,
                       match=rf"^reported point {re.escape(str(e24))} is off the plane$"):
        plane_section(parse_bivector("e4^e5"))


def test_certification_failure_is_hard():
    # a plane whose reduced basis rows become parallel mod 5 must raise,
    # not silently pass; it does not pass through ell, so it is certified
    # directly
    v1 = [Fraction(0)] * 10
    v2 = [Fraction(0)] * 10
    v3 = [Fraction(0)] * 10
    v1[0], v1[4] = Fraction(1), Fraction(1, 5)   # e1^e2 + (1/5) e2^e3
    v2[1], v2[4] = Fraction(1), Fraction(2, 5)   # e1^e3 + (2/5) e2^e3
    v3[9] = Fraction(1)                          # e4^e5
    with pytest.raises(CertificationError, match="degenerates modulo 5"):
        _certify(rref([v1, v2, v3])[0], (), (), False, 5)


# -- the closed-form section against the oracles ------------------------------

def _sparse(rng, n, k):
    x = [0] * n
    for i in rng.sample(range(n), k):
        x[i] = rng.choice([-2, -1, 1, 2])
    return x


def _seeded_points(rng, n):
    """n rational bivectors b off ell, decomposable or sparse, each spanning a
    plane with ell."""
    made = 0
    while made < n:
        if made % 2 == 0:
            u, v = ([rng.randint(-2, 2) for _ in range(5)] for _ in range(2))
            b = wedge(u, v)
        else:
            b = tuple(_sparse(rng, 10, rng.randint(1, 4)))
        if rank(span_rows(b)) == 3:
            made += 1
            yield b


def test_ell_plane_is_the_rref_of_the_span():
    for b in _seeded_points(random.Random(1), 1000):
        basis = ell_plane(b)
        assert basis == rref(span_rows(b))[0], b
        assert basis[:2] == [list(g) for g in ell_generators()]


def test_points_on_ell_span_no_plane():
    g1, g2 = ell_generators()
    for t, s in ((1, 0), (0, 1), (1, -3), (Fraction(2, 3), 5)):
        b = tuple(t * a + s * c for a, c in zip(g1, g2))
        assert rank(span_rows(b)) == 2
        with pytest.raises(ValueError, match="^plane must have projective dimension exactly 2$"):
            ell_plane(b)
        with pytest.raises(ValueError, match="^plane must have projective dimension exactly 2$"):
            plane_section(b)


def test_plane_sections_match_sympy_oracle():
    outcomes = Counter()
    for b in _seeded_points(random.Random(1), 1000):
        section = plane_section(b, primes=())
        lines, points, full_plane = sympy_section_locus(rref(span_rows(b))[0])
        assert set(section.lines) == set(lines), b
        assert set(section.isolated_plane_coords) == {primitive_int_covector(p)
                                                     for p in points}, b
        assert section.full_plane == full_plane, b
        outcomes["full plane" if full_plane else section.shape()] += 1
    # the seeded mix reaches every kind of answer
    assert set(outcomes) == {"full plane", (1, 1), (2, 0), (1, 0)}


def test_finite_section_oracle_matches_reduced_rational_section():
    # the rational description, reduced mod p, against the regrouped F_p
    # enumeration of the plane that certification at p reduces to
    certified = Counter()
    e45 = parse_bivector("e4^e5")
    for b in itertools.chain([e45], _seeded_points(random.Random(2), 150)):
        plane = span_rows(b)
        for p in (5, 7):
            try:
                section = plane_section(b, primes=(p,))
            except CertificationError:
                continue
            mod_plane = rref_mod([primitive_int_covector(r) for r in rref(plane)[0]], p)
            lines, points, full_plane = finite_plane_section(mod_plane, p)
            reduced = {canonical_mod(ln, p) for ln in section.lines}
            isolated = {canonical_mod(pt, p) for pt in section.isolated_plane_coords}
            assert full_plane == section.full_plane, b
            assert set(lines) == reduced, b
            assert set(points) == {pt for pt in isolated if not any(
                sum(c * x for c, x in zip(cov, pt)) % p == 0 for cov in reduced)}, b
            certified[p] += 1
    assert certified[5] >= 100 and certified[7] >= 100, certified


def test_grassmannian_enumeration_count_oracle():
    points = list(enumerate_grassmannian(5))
    assert len(points) == gaussian_binomial_2_of_5(5)
    seen = {p for p, _ in points}
    assert len(seen) == len(points)


# -- closed forms against the generic oracles, on every point of G(2,5)(F5) ----

def line_ell_points(p: int) -> set[tuple]:
    """The canonical points t e1^e2 + s e1^e3 of ell over F_p."""
    g1, g2 = ell_generators()
    return {canonical_mod([t * a + s * b for a, b in zip(g1, g2)], p)
            for t, s in projective_points(p, 2)}


@pytest.fixture(scope="module")
def f5_points():
    return list(enumerate_grassmannian(5))


def test_echelon_cells_run_over_the_oracle_enumeration(f5_points):
    cells = {(u, v) for us, vs in _echelon_cells(5)
             for u in itertools.product(*us) for v in itertools.product(*vs)}
    assert cells == {uv for _, uv in f5_points}
    for omega, (u, v) in f5_points:
        assert _wedge_mod(u, v, 5) == omega


def test_closed_form_minors_match_generic_minors(f5_points):
    e1, e2, e3 = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    for omega, (u, v) in f5_points:
        m2 = maximal_minors([u, v, e1, e2], 5)
        m3 = maximal_minors([u, v, e1, e3], 5)
        closed = [(a % 5, c % 5) for a, c in ell_rows(wedge(u, v))]
        assert closed == list(zip(m2, m3))
        rows = [[a, c] for a, c in zip(m2, m3) if a or c]
        param = _pencil_parameter(omega, 5)
        if rows and len(rref_mod(rows, 5)) == 2:
            assert param is None
        else:
            t, s = param
            assert (t, s) != (0, 0)
            assert all((a * t + c * s) % 5 == 0 for a, c in rows)


def test_ell_rows_are_halved_polarization_rows(f5_points):
    # exactly, over Z: every point of G(2,5)(F5) as an integer tuple, then
    # seeded integer bivectors, decomposable or not
    e12, e13 = ell_generators()
    rng = random.Random(22)
    seeded = [tuple(rng.randint(-9, 9) for _ in range(10)) for _ in range(500)]
    for x in [omega for omega, _ in f5_points] + seeded:
        rows = ell_rows(x)
        assert tuple(2 * a for a, _ in rows) == quadric_polarization(x, e12), x
        assert tuple(2 * c for _, c in rows) == quadric_polarization(x, e13), x


def test_closed_form_rank_matches_polarization_rows(f5_points):
    g1, g2 = ell_generators()
    for omega, _ in f5_points:
        c1 = [x % 5 for x in quadric_polarization(omega, g1)]
        c2 = [x % 5 for x in quadric_polarization(omega, g2)]
        rows = [[a, b] for a, b in zip(c1, c2) if a or b]
        expected = len(rref_mod(rows, 5)) if rows else 0
        assert _polarization_rank(omega, 5) == expected


def test_boundary_points_on_ell_match_line_ell_points(f5_points):
    ell_pts = line_ell_points(5)
    boundary = [omega for omega, _ in f5_points if omega[PAIR_INDEX[(4, 5)]] == 0]
    on_ell = [omega for omega in boundary if _on_ell(omega)]
    assert len(on_ell) == len(ell_pts)
    for omega in boundary:
        assert _on_ell(omega) == (canonical_mod(omega, 5) in ell_pts)


def test_common_vector_rejects_a_wrong_parameter():
    u, v = (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)           # b = e2 ^ e4, witness [1:0]
    assert _common_vector(u, v, 1, 0, 5) == (0, 1, 0, 0, 0)
    with pytest.raises(AssertionError, match="without a common vector"):
        _common_vector(u, v, 0, 1, 5)


# -- collinearity --------------------------------------------------------------

def test_collinearity_examples():
    w = collinearity_scan(parse_bivector("e2^e4"))
    assert w is not None
    t, s = w.param
    assert s == 0 and t != 0                      # [t:s] = [1:0]
    common = primitive_int_covector(w.common_vector)
    assert common == (0, 1, 0, 0, 0)

    assert collinearity_scan(parse_bivector("e4^e5")) is None

    w = collinearity_scan(parse_bivector("e1^e4"))
    assert w is not None and w.param == "all"
    assert primitive_int_covector(w.common_vector) == (1, 0, 0, 0, 0)


def test_collinearity_refuses_a_witness_without_a_common_vector(monkeypatch):
    # an empty kernel for the stacked columns of W_b, e1 and the pencil vector
    monkeypatch.setattr(plucker, "kernel_basis", lambda rows, n: [])
    with pytest.raises(AssertionError, match="^witness parameter without a common vector$"):
        collinearity_scan(parse_bivector("e2^e4"))


def test_no_witness_means_no_extra_line_through_b():
    # e4^e5 has no witness; its section carries no line through b
    plane = span_rows(parse_bivector("e4^e5"))
    section = plane_section(parse_bivector("e4^e5"))
    b = primitive_int_covector(parse_bivector("e4^e5"))
    for line in section.lines:
        span = line_span(plane, line)
        assert rank([*span, b]) == rank(span) + 1


# -- the survey ----------------------------------------------------------------

@pytest.fixture(scope="module")
def surveys():
    return {p: dee_exhaustive_survey(p) for p in (5, 7)}


def test_survey_counts(surveys):
    for p, rep in surveys.items():
        assert rep.grassmannian_points == gaussian_binomial_2_of_5(p)
        assert rep.affine_cell_points == p ** 6
        assert rep.dee_points == rep.grassmannian_points - p ** 6
        assert rep.surveyed == rep.dee_points - (p + 1)
        assert rep.exact_section_count + rep.extra_component_count == rep.surveyed


def test_survey_cross_consistency_invariant(surveys):
    for rep in surveys.values():
        assert rep.witness_without_extra == 0


def test_survey_qualitative_verdict_agrees_between_primes(surveys):
    assert len({rep.exists_exact_b for rep in surveys.values()}) == 1


def test_survey_computed_truth_every_boundary_point_obstructed(surveys):
    # computed outcome: every surveyed b lies on a variety line meeting ell,
    # and no b achieves the exact point-plus-line section
    for rep in surveys.values():
        assert rep.no_witness_count == 0
        assert rep.excluded_line_meeting == rep.surveyed
        assert not rep.exists_exact_b
        assert rep.excluded_axis_point < rep.excluded_line_meeting


# SurveyReport witnesses recorded from the field-object survey that computed
# every count through BiVector, PrimeField and generic 4x4 minors; F11 and F13
# were recorded from the point-by-point survey that is now `pointwise_dee_survey`.
PINNED_SURVEYS = {
    3: dict(grassmannian_points=1210, affine_cell_points=729, dee_points=481,
            surveyed=477, exact_section_count=0, extra_component_count=477,
            full_plane_count=45, no_witness_count=0, witness_without_extra=0,
            excluded_line_meeting=477, excluded_axis_point=36, exists_exact_b=False),
    5: dict(grassmannian_points=20306, affine_cell_points=15625, dee_points=4681,
            surveyed=4675, exact_section_count=0, extra_component_count=4675,
            full_plane_count=175, no_witness_count=0, witness_without_extra=0,
            excluded_line_meeting=4675, excluded_axis_point=150, exists_exact_b=False),
    7: dict(grassmannian_points=140050, affine_cell_points=117649, dee_points=22401,
            surveyed=22393, exact_section_count=0, extra_component_count=22393,
            full_plane_count=441, no_witness_count=0, witness_without_extra=0,
            excluded_line_meeting=22393, excluded_axis_point=392, exists_exact_b=False),
    11: dict(grassmannian_points=1964810, affine_cell_points=1771561, dee_points=193249,
             surveyed=193237, exact_section_count=0, extra_component_count=193237,
             full_plane_count=1573, no_witness_count=0, witness_without_extra=0,
             excluded_line_meeting=193237, excluded_axis_point=1452,
             exists_exact_b=False),
    13: dict(grassmannian_points=5259970, affine_cell_points=4826809, dee_points=433161,
             surveyed=433147, exact_section_count=0, extra_component_count=433147,
             full_plane_count=2535, no_witness_count=0, witness_without_extra=0,
             excluded_line_meeting=433147, excluded_axis_point=2366,
             exists_exact_b=False),
}


@pytest.mark.parametrize("p", sorted(PINNED_SURVEYS))
def test_survey_report_pinned(p, surveys):
    rep = surveys[p] if p in surveys else dee_exhaustive_survey(p)
    assert rep.to_witness() == {"prime": p, **PINNED_SURVEYS[p]}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_block_survey_matches_pointwise_oracle(p, surveys):
    rep = surveys[p] if p in surveys else dee_exhaustive_survey(p)
    assert rep.to_witness() == pointwise_dee_survey(p).to_witness()


def test_survey_checks_each_common_vector_against_the_class_table(monkeypatch):
    # [s:t] for [t:s] is wrong on the class (0, 0, 0, 1), whose witness is
    # [0:1]; the class table passes it on, and only the check of the common
    # vector can catch it, first on a fibre of the big cell's block
    # (u4, u5, v4, v5) = (0, 0, 0, 1)
    real = plucker._pencil_parameter

    def swapped(x, p):
        param = real(x, p)
        return None if param is None else param[::-1]

    monkeypatch.setattr(plucker, "_pencil_parameter", swapped)
    with pytest.raises(AssertionError,
                       match=r"^witness parameter \[1:0\] without a common vector$"):
        dee_exhaustive_survey(5)


def test_survey_refuses_a_witness_on_an_exact_section(monkeypatch):
    # every class read as rank 2: every surveyed point is an exact section
    # with a witness, which the final assertion refuses, counted in full
    monkeypatch.setattr(plucker, "_polarization_rank", lambda x, p: 2)
    with pytest.raises(AssertionError, match=r"^collinearity witness without extra "
                       r"section component \(4675 boundary points\)$"):
        dee_exhaustive_survey(5)


def test_survey_counts_points_without_a_pencil_parameter(monkeypatch):
    monkeypatch.setattr(plucker, "_pencil_parameter", lambda x, p: None)
    rep = dee_exhaustive_survey(5)
    assert rep.no_witness_count == rep.surveyed == 4675
    assert rep.excluded_line_meeting == 0
    assert rep.witness_without_extra == 0


def test_survey_rejects_characteristic_two():
    with pytest.raises(ValueError):
        dee_exhaustive_survey(2)


def test_qorbit_invariance_under_seeded_group_elements():
    rng = random.Random(99)
    shape = [(0,), (0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)]
    samples = [parse_bivector(t) for t in ("e4^e5", "e2^e4", "e1^e4")]
    samples.append(wedge([1, 0, 0, 1, 0], [0, 1, 0, 0, 1]))
    done = 0
    while done < 20:
        rows = [[Fraction(rng.randrange(-3, 4)) if c in cols else Fraction(0)
                 for c in range(5)] for cols in shape]
        if rank(rows) != 5:
            continue
        done += 1
        for omega in samples:
            from delpair.projgeo.plucker import plane_spanned_by
            u, v = plane_spanned_by(omega)
            gu = [sum(u[i] * rows[i][c] for i in range(5)) for c in range(5)]
            gv = [sum(v[i] * rows[i][c] for i in range(5)) for c in range(5)]
            image = wedge(gu, gv)
            assert grassmannian_membership(image)
            assert q_orbit_membership(image) == q_orbit_membership(omega)


def test_ell_points_on_variety_finite_fields():
    for p in (5, 7):
        for coords in line_ell_points(p):
            assert on_grassmannian_mod(coords, p)
