"""Chevalley basis structure constants, the basis-pair bracket and a Jacobi
counter.

Signs follow the classical extraspecial-pair construction: positive roots are
totally ordered lexicographically in the simple-root basis (an order in which
summands always precede sums), each non-simple positive root rho picks the
extraspecial pair (alpha, beta) with alpha minimal among all ordered pairs of
positive roots summing to rho, and N_{alpha,beta} = p + 1 > 0 on those pairs.
Every other constant is forced by antisymmetry, N_{-a,-b} = -N_{a,b}, the
cyclic length-ratio identity for triples summing to zero, and the Jacobi
identity.  The resulting table satisfies |N_{a,b}| = p + 1 with p the largest
integer such that b - p a is a root.

Squared norms are the integers B(r, r) = L (r, r) of the root system's
integer form, so every length ratio below is an exact integer division; a
nonzero remainder is an integrality failure and raises AssertionError.

Constants are computed on demand and memoized, never swept over all pairs.
The Jacobi step for a positive pair summing to rho reads only pairs whose
sum has lower height, plus rho's own extraspecial pair, whose constant is
p + 1 outright; so every request bottoms out at extraspecial pairs and the
recursion terminates.  Each value is the one the height-ordered sweep gives.

The Lie algebra itself is seen through an indexed basis: the root vectors of
the sorted positive roots, then of their negatives, then the simple coroots.
The bracket of two basis elements is a tuple of (index, integer coefficient)
terms, so the Jacobi identity on basis triples is checked with int-keyed
sums and no element objects.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

from .rootsys import Root, RootSystem

BasisTerms = tuple[tuple[int, int], ...]   # ((basis index, coefficient), ...)


class ChevalleyTable:
    """Structure constants N_{a,b} for ordered root pairs with a + b a root.

    Nothing is computed up front: each constant on a pair of positive roots
    and each extraspecial pair is derived the first time the recursion asks
    for it and then memoized, so a table costs only the constants its
    callers read.  ``constant`` itself keeps no memo (``jacobi_failures``
    memoizes the basis brackets it reads), and squared norms B(r, r) come
    from the root system, which memoizes B r.  The recursion behind a
    constant terminates because every Jacobi step moves to pairs whose sum
    has lower height, or to an extraspecial pair.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._sorted_positives = sorted(rs.positive_roots)
        self._pos: dict[tuple[Root, Root], int] = {}
        self._extra: dict[Root, tuple[Root, Root]] = {}

    # -- construction --------------------------------------------------------

    def _p(self, a: Root, b: Root) -> int:
        """Largest p with b - p a a root."""
        p = 0
        while self.rs.is_root(b - a.scaled(p + 1)):
            p += 1
        return p

    def _extraspecial(self, rho: Root) -> tuple[Root, Root]:
        """The pair (alpha, rho - alpha) of positive roots with alpha minimal.

        The first positive alpha in sorted order with rho - alpha positive is
        that minimum; alpha < rho - alpha holds for it, since rho - alpha is
        itself such a root and 2 alpha is never one.
        """
        extra = self._extra.get(rho)
        if extra is None:
            pos = self.rs.positive_roots
            alpha = next((a for a in self._sorted_positives if rho - a in pos), None)
            if alpha is None:
                raise AssertionError(f"no decomposition of {rho} into positives")
            extra = self._extra[rho] = (alpha, rho - alpha)
        return extra

    def _positive(self, xi: Root, eta: Root) -> int:
        """N_{xi,eta} for positive xi, eta whose sum is a root, memoized."""
        key = (xi, eta)
        n = self._pos.get(key)
        if n is None:
            if eta < xi:
                n = -self._positive(eta, xi)
            else:
                extra = self._extraspecial(xi + eta)
                if key == extra:
                    n = self._p(xi, eta) + 1
                else:
                    n = self._special_from_jacobi(xi, eta, extra)
            self._pos[key] = n
        return n

    def _special_from_jacobi(self, xi: Root, eta: Root,
                             extra: tuple[Root, Root]) -> int:
        """Solve the Jacobi identity on (xi, eta, -alpha) for N_{xi,eta}."""
        alpha, beta = extra
        rho = xi + eta
        t = 0
        if self.rs.is_root(eta - alpha):
            t += self._mixed(eta, -alpha) * self._signed_pair(eta - alpha, xi)
        if self.rs.is_root(xi - alpha):
            t += -self._mixed(xi, -alpha) * self._signed_pair(xi - alpha, eta)
        value, rem = divmod(-t, self._mixed(rho, -alpha))
        if rem or value == 0:
            raise AssertionError(f"Jacobi reduction failed on ({xi}, {eta})")
        return value

    def _signed_pair(self, a: Root, b: Root) -> int:
        """Constant for a pair whose members may have either sign."""
        apos, bpos = a in self.rs.positive_roots, b in self.rs.positive_roots
        if apos and bpos:
            return self._positive(a, b)
        if not apos and not bpos:
            return -self._positive(-a, -b)
        if apos:
            return self._mixed(a, b)
        return -self._mixed(b, a)

    def _mixed(self, mu: Root, negnu: Root) -> int:
        """Constant N_{mu, -nu} with mu, nu positive, reduced to positive pairs
        via the cyclic identity N_{a,b}/|c|^2 = N_{b,c}/|a|^2 for a+b+c = 0."""
        nu = -negnu
        rho = mu - nu
        norm = self.rs.scaled_norm
        if rho in self.rs.positive_roots:
            value, rem = divmod(-norm(rho) * self._positive(nu, rho), norm(mu))
        else:
            value, rem = divmod(norm(-rho) * self._positive(-rho, mu), norm(nu))
        if rem:
            raise AssertionError(f"non-integral mixed constant for ({mu}, {negnu})")
        return value

    # -- queries --------------------------------------------------------------

    def constant(self, a: Root, b: Root) -> int:
        """N_{a,b}; only defined when a, b and a + b are all roots."""
        is_root = self.rs.is_root
        if not is_root(a + b):
            raise ValueError(f"{a} + {b} is not a root")
        if not (is_root(a) and is_root(b)):
            raise ValueError(f"{a} or {b} is not a root")
        return self._signed_pair(a, b)

    def coroot_coefficients(self, alpha: Root) -> tuple[int, ...]:
        """Coefficients of the coroot of alpha over the simple coroots.

        The coefficient at i is k_i B(alpha_i, alpha_i) / B(alpha, alpha).
        """
        norm = self.rs.scaled_norm(alpha)
        form = self.rs.form
        out = []
        for i, k in enumerate(alpha.coeffs):
            c, rem = divmod(k * form[i][i], norm)
            if rem:
                raise AssertionError(f"non-integral coroot for {alpha}")
            out.append(c)
        return tuple(out)

    # -- the indexed basis ----------------------------------------------------

    @cached_property
    def basis_roots(self) -> tuple[Root, ...]:
        """Roots of the basis root vectors: sorted positives, then negatives.

        Index len(basis_roots) + i is the simple coroot h_i.
        """
        return tuple(self._sorted_positives) + tuple(-r for r in self._sorted_positives)

    @cached_property
    def _basis_index(self) -> dict[Root, int]:
        return {r: k for k, r in enumerate(self.basis_roots)}

    @property
    def dimension(self) -> int:
        return len(self.basis_roots) + self.rs.diagram.rank

    def basis_bracket(self, i: int, j: int) -> BasisTerms:
        """[X_i, X_j] over the indexed basis as ((k, c), ...), nonzero c only."""
        roots = self.basis_roots
        m = len(roots)
        if i >= m:                      # [h, h'] = 0 and [h_i, e_b] = <b, alpha_i> e_b
            c = 0 if j >= m else self.rs.pairing_simple(roots[j], i - m)
            return ((j, c),) if c else ()
        a = roots[i]
        if j >= m:                      # [e_a, h_k] = -<a, alpha_k> e_a
            c = self.rs.pairing_simple(a, j - m)
            return ((i, -c),) if c else ()
        b = roots[j]
        s = a + b
        k = self._basis_index.get(s)
        if k is not None:
            return ((k, self.constant(a, b)),)
        if s.is_zero:                   # [e_a, e_-a] = h_a over the simple coroots
            return tuple((m + t, c) for t, c in enumerate(self.coroot_coefficients(a)) if c)
        return ()


@lru_cache(maxsize=None)
def build_table(rs: RootSystem) -> ChevalleyTable:
    return ChevalleyTable(rs)


def jacobi_failures(table: ChevalleyTable, triples) -> int:
    """How many basis index triples (x, y, z) have a nonzero Jacobiator
    [[X_x, X_y], X_z] + [[X_y, X_z], X_x] + [[X_z, X_x], X_y].

    Basis-pair brackets are memoized for this call only, in a flat list
    indexed by i * dimension + j, so the cached table does not grow.
    """
    dim = table.dimension
    memo: list = [None] * (dim * dim)

    def br(i: int, j: int) -> BasisTerms:
        terms = memo[i * dim + j]
        if terms is None:
            terms = memo[i * dim + j] = table.basis_bracket(i, j)
        return terms

    bad = 0
    for x, y, z in triples:
        total: dict[int, int] = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for k, ck in br(a, b):
                for t, ct in br(k, c):
                    total[t] = total.get(t, 0) + ck * ct
        if any(total.values()):
            bad += 1
    return bad
