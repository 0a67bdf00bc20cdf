"""Small exact linear algebra on plain ints, over the integers and mod p.

Rational witnesses are primitive integer vectors with a positive leading
entry; points of projective space over F_p are tuples of ints in [0, p)
whose first nonzero coordinate is 1.
"""
from __future__ import annotations

import itertools
from math import gcd


def alternating_rank(x, p: int | None = None) -> int:
    """min(rank, 3) of the alternating 5x5 integer matrix with the ten entries
    x above its diagonal, row by row, over the rationals or mod p when p is given.

    A certificate comes first: the minor on rows 1-3 and columns 3-5,
    x13 (x24 x35 - x25 x34) - x14 x23 x35 + x15 x23 x34, reduced mod p when p
    is given.  When it is nonzero the rank is at least 3, and it is even, so
    the answer is 3 with no elimination.  The minor is cubic, neither a
    Plücker quadric nor a Pfaffian, so a rank read from it stays independent
    of the quadrics.  When it vanishes the rank comes from elimination.

    The rows are built from x without a matrix object.  Elimination is
    fraction-free: a row below the pivot row becomes pivot * row - entry * top,
    and a row whose entry is 0 is left as it is.  Mod p the rows stay integers and a pivot
    is an entry that p does not divide, so each step is invertible mod p.
    Only the first pivot is eliminated.  After the second, a third pivot
    exists iff some entry pivot * a - entry * b of the rows below, right of
    the pivot column, is nonzero; those entries are tested one at a time and
    the first nonzero one returns 3, without building the eliminated rows.
    So the entries stay small without Bareiss division.
    ``alternating_rank(x) <= 2`` asks whether the rank is at most 2.
    """
    x12, x13, x14, x15, x23, x24, x25, x34, x35, x45 = x
    minor = x13 * (x24 * x35 - x25 * x34) - x14 * x23 * x35 + x15 * x23 * x34
    if minor % p if p else minor:
        return 3
    rows = [[0, x12, x13, x14, x15], [-x12, 0, x23, x24, x25], [-x13, -x23, 0, x34, x35],
            [-x14, -x24, -x34, 0, x45], [-x15, -x25, -x35, -x45, 0]]
    r = 0
    for c in range(5):
        for pivot in range(r, 5):
            if rows[pivot][c] % p if p else rows[pivot][c]:
                break
        else:
            continue
        top = rows[pivot]
        rows[pivot] = rows[r]
        rows[r] = top
        r += 1
        piv = top[c]
        if r == 2:
            tail = top[c + 1:]
            for row in rows[2:]:
                f = row[c]
                for a, b in zip(row[c + 1:], tail):
                    e = piv * a - f * b
                    if e % p if p else e:
                        return 3
            return 2
        for i in range(r, 5):
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [piv * a - f * b for a, b in zip(row, top)]
    return r


def canonical_mod(coords, p: int) -> tuple[int, ...]:
    """Scale an integer vector mod p so that its first nonzero coordinate is 1."""
    coords = [c % p for c in coords]
    lead = next((c for c in coords if c), 0)
    if not lead:
        raise ValueError("projective point needs a nonzero coordinate")
    if lead != 1:
        inv = pow(lead, -1, p)
        coords = [c * inv % p for c in coords]
    return tuple(coords)


def projective_points(p: int, dim: int):
    """All points of P^{dim-1}(F_p) as canonical coordinate tuples, by the
    position of the leading 1, then lexicographically in the tail after it."""
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield prefix + tail


def primitive_int_covector(ints) -> tuple[int, ...]:
    """An integer vector over the gcd of its entries, with a positive leading entry."""
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero covector")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)
