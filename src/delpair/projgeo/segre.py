"""The Segre embedding of a line times a plane, and its fitting checks.

Coordinates z_ij = a_i b_j (i in {0,1}, j in {0,1,2}) are flattened in the
order z_00, z_01, z_02, z_10, z_11, z_12; the image is cut out by the three
2x2 minors of the coordinate matrix.  Lines of the image have a bidegree:
(1,0)-lines sweep the first factor over a fixed plane point, (0,1)-lines fix
the first factor and sweep a line of the plane.
"""
from __future__ import annotations

import itertools

from ..report import FAIL, PASS, CheckReport, require_prime
from .linalg import canonical_mod, projective_points

# The minors z_a z_b - z_c z_d, as ((a, b), (c, d)), that cut out the image.
_MINORS = (((0, 4), (1, 3)), ((0, 5), (2, 3)), ((1, 5), (2, 4)))


def segre_point(a: tuple, b: tuple, q: int) -> tuple:
    """Canonical image mod q of (a, b) in the ambient projective 5-space."""
    return canonical_mod([ai * bj for ai in a for bj in b], q)


def _line_points(cov: tuple, plane_pts: list[tuple], q: int) -> list[tuple]:
    """The points of plane_pts on the line with covector cov."""
    return [pt for pt in plane_pts if sum(c * x for c, x in zip(cov, pt)) % q == 0]


def _join_points(y: tuple, b: tuple, plane_pts: list[tuple], q: int) -> list[tuple]:
    """Points of the plane line through two distinct plane points."""
    cov = (y[1] * b[2] - y[2] * b[1], y[2] * b[0] - y[0] * b[2], y[0] * b[1] - y[1] * b[0])
    return _line_points(canonical_mod(cov, q), plane_pts, q)


def _span_section(points3: list[tuple], plane_pts: list[tuple], q: int) -> set:
    """The Segre points, canonical mod q, on the plane spanned by three points.

    The combinations c0 P0 + c1 P1 + c2 P2 over the points [c0:c1:c2] of the
    coordinate plane meet every point of the span once; one of them is zero
    exactly when the three points are dependent.
    """
    P0, P1, P2 = points3
    section = set()
    for c0, c1, c2 in plane_pts:
        z = [(c0 * x + c1 * y + c2 * w) % q for x, y, w in zip(P0, P1, P2)]
        if not any(z):
            raise ValueError("span is not a plane")
        if not any((z[a] * z[b] - z[c] * z[d]) % q for (a, b), (c, d) in _MINORS):
            section.add(canonical_mod(z, q))
    return section


# -- configuration orbit under the product of the two linear groups ----------

def _gl_generators(n: int, q: int):
    """Generators g of GL_n(F_q), each with its inverse, as (g, g^-1).

    I + E_ij (i != j) has inverse I - E_ij; for q > 2, diag(2, 1, ..., 1)
    has inverse diag((q + 1) / 2, 1, ..., 1).
    """

    def unit_plus(i: int, j: int, c: int) -> tuple:
        """The identity matrix with c added at (i, j)."""
        return tuple(tuple(int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n))
                     for a in range(n))

    for i in range(n):
        for j in range(n):
            if i != j:
                yield unit_plus(i, j, 1), unit_plus(i, j, -1)
    if q > 2:
        yield unit_plus(0, 0, 1), unit_plus(0, 0, (q - 1) // 2)


def _mat_vec(m: tuple, v: tuple) -> tuple:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def _move_tables(g2, g3, g3inv, p1: list, p2: list, q: int) -> tuple[dict, dict, dict]:
    """The move (g2, g3) as permutations of the line, the plane and its lines."""
    on1 = {x: canonical_mod(_mat_vec(g2, x), q) for x in p1}
    on2 = {b: canonical_mod(_mat_vec(g3, b), q) for b in p2}
    # covectors transform by the inverse on the right: L' = L . g3^{-1}
    on_lines = {L: canonical_mod([sum(L[i] * g3inv[i][j] for i in range(3))
                                  for j in range(3)], q) for L in p2}
    return on1, on2, on_lines


# -- the fitting report -------------------------------------------------------

def segre_fitting_report(q: int) -> CheckReport:
    """Exhaustive base-case checks for the fitting of a point plus a line.

    (a) a (1,0)-line plus an off-line point spans a plane whose section
        contains the joining (0,1)-curve, so no exact point-plus-line section
        exists with a (1,0)-line;
    (b) a (0,1)-line {x} x L plus a point (a, b) with a != x and b off L
        meets the variety in exactly the line and the point;
    (c) the valid configurations of (b) form a single orbit under the product
        of the projective linear groups of the two factors.

    Points, sections and the orbit search use plain ints mod q; each
    generator of the group acts through permutation tables built once.
    """
    require_prime(q)
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    lines2 = p2          # lines of the plane, as canonical covectors
    subject = f"F{q}"
    failures: list[dict] = []

    segre_pts = {segre_point(a, b, q) for a in p1 for b in p2}
    expected_count = (q + 1) * (q * q + q + 1)
    if len(segre_pts) != expected_count:
        failures.append({"check": "point-count", "got": len(segre_pts),
                         "expected": expected_count})

    # (a) bidegree-(1,0) lines never fit with an extra point
    a_configs = 0
    for y in p2:
        line_pts = [segre_point(x, y, q) for x in p1]
        joins = {b: _join_points(y, b, p2, q) for b in p2 if b != y}
        for (a, b) in itertools.product(p1, p2):
            if b == y:
                continue
            a_configs += 1
            pt = segre_point(a, b, q)
            section = _span_section([line_pts[0], line_pts[1], pt], p2, q)
            witness_curve = {segre_point(a, m, q) for m in joins[b]}
            if not witness_curve <= section:
                failures.append({"check": "a-witness", "y": y, "point": (a, b)})
            if section == set(line_pts) | {pt}:
                failures.append({"check": "a-exact-section", "y": y, "point": (a, b)})
    # (b) bidegree-(0,1) lines fit exactly
    valid = set()
    for x in p1:
        for L in lines2:
            Lpts = _line_points(L, p2, q)
            line_img = [segre_point(x, m, q) for m in Lpts]
            for a in p1:
                if a == x:
                    continue
                for b in p2:
                    if b in Lpts:
                        continue
                    valid.add((x, L, a, b))
                    pt = segre_point(a, b, q)
                    section = _span_section([line_img[0], line_img[1], pt], p2, q)
                    if section != set(line_img) | {pt}:
                        failures.append({"check": "b-section", "x": x, "L": L,
                                         "point": (a, b)})

    # (c) single orbit on the valid (x, L, a, b) configurations of (b)
    id2 = ((1, 0), (0, 1))
    id3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    moves = [_move_tables(g, id3, id3, p1, p2, q) for g, _ in _gl_generators(2, q)] + [
        _move_tables(id2, g, g_inv, p1, p2, q) for g, g_inv in _gl_generators(3, q)]
    seed = next(iter(sorted(valid)))
    orbit = {seed}
    frontier = [seed]
    while frontier:
        cfg = frontier.pop()
        x, L, a, b = cfg
        for on1, on2, on_lines in moves:
            nxt = (on1[x], on_lines[L], on1[a], on2[b])
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    if orbit != valid:
        failures.append({"check": "c-orbit", "orbit_size": len(orbit),
                         "valid_configs": len(valid)})

    witnesses = [{
        "segre_points": len(segre_pts),
        "a_configs": a_configs,
        "b_configs": len(valid),
        "valid_configs": len(valid),
        "orbit_size": len(orbit),
        "single_orbit": orbit == valid,
    }]
    status = PASS if not failures else FAIL
    return CheckReport("segre.fitting", subject, status,
                       witnesses=witnesses + failures)

