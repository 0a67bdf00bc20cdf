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

Squared norms are the integers B(r, r) of the root system's integer form.
A root and every root it is compared with lie in one component, where B is
a fixed multiple of the inner product, so every length ratio below is an
exact integer division; a nonzero remainder is an integrality failure and
raises AssertionError.

The Lie algebra is seen through an indexed basis: the root vectors of the
sorted positive roots (indices 0..n-1), then of their negatives (index
k + n for the negative of k), then the simple coroots.  Constants live on
these indices: the recursion keys its memos by basis index, finds a sum of
roots by adding two roots packed by ``rootsys.packing``, which never carries
on a sum of two roots, and looking the result up in a dict from packed roots
to indices, and reads B(r, r) from a per-index list, so a sum builds no
tuple.  ``basis_roots`` is the tuple of the basis roots themselves, plain
root tuples as ``rootsys`` gives them.  The bracket of two basis elements is
a tuple of (index, integer coefficient) terms, so the Jacobi identity on
basis triples is checked with int-keyed sums and no element objects.

Constants are computed on demand and memoized, never swept over all pairs.
The Jacobi step for a positive pair summing to rho reads only pairs whose
sum has lower height, plus rho's own extraspecial pair, whose constant is
p + 1 outright; so every request bottoms out at extraspecial pairs and the
recursion terminates.  Each value is the one the height-ordered sweep gives.
"""
from __future__ import annotations

import operator
from functools import lru_cache

from .rootsys import RootSystem, add, packing

BasisTerms = tuple[tuple[int, int], ...]   # ((basis index, coefficient), ...)


class ChevalleyTable:
    """Structure constants N_{a,b} for ordered root pairs with a + b a root.

    Nothing is computed up front: each constant on a pair of positive roots,
    each mixed-sign constant N_{mu,-nu} and each extraspecial pair is derived
    the first time the recursion asks for it and then memoized by basis
    index, so a table costs only the constants its callers read.
    ``constant`` is the checked entry point on root tuples and maps onto
    that index kernel; ``jacobi_failures`` memoizes the basis brackets it reads
    for one call only.  The recursion behind a constant terminates because
    every Jacobi step moves to pairs whose sum has lower height, or to an
    extraspecial pair.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        positives = sorted(rs.positive_roots)
        n = self._n = len(positives)
        # the roots of the basis root vectors: sorted positives, then their
        # negatives; index len(basis_roots) + i is the simple coroot h_i
        self.basis_roots = tuple(positives) + tuple(tuple(-c for c in r) for r in positives)
        self._packing = packing(rs.diagram.rank)
        self._packed = list(map(self._packing.pack, self.basis_roots))
        self._zero = self._packing.zero
        self._index = {key: k for k, key in enumerate(self._packed)}
        norms = [rs.scaled_norm(r) for r in positives]
        self._norm = norms + norms
        self._pos: dict[int, int] = {}     # xi * n + eta -> N_{xi,eta}
        self._mix: dict[int, int] = {}     # mu * n + nu -> N_{mu,-nu}
        self._extra: dict[int, tuple[int, int]] = {}

    # -- the index kernel ----------------------------------------------------

    def _sum(self, i: int, j: int) -> "int | None":
        """Basis index of root i + root j, None when the sum is not a root."""
        return self._index.get(self._packed[i] + self._packed[j] - self._zero)

    def _p(self, a: int, b: int) -> int:
        """Largest p with b - p a a root, for positive indices a, b."""
        neg, p = a + self._n, 0
        while (b := self._sum(b, neg)) is not None:
            p += 1
        return p

    def _extraspecial(self, rho: int) -> tuple[int, int]:
        """The pair (alpha, rho - alpha) of positive indices with alpha minimal.

        The first positive alpha in sorted order with rho - alpha positive is
        that minimum; alpha < rho - alpha holds for it, since rho - alpha is
        itself such a root and 2 alpha is never one.
        """
        extra = self._extra.get(rho)
        if extra is None:
            n = self._n
            for alpha in range(n):
                beta = self._sum(rho, alpha + n)
                if beta is not None and beta < n:
                    break
            else:
                raise AssertionError(f"no decomposition of {self.basis_roots[rho]} into positives")
            extra = self._extra[rho] = (alpha, beta)
        return extra

    def _positive(self, xi: int, eta: int) -> int:
        """N_{xi,eta} for positive indices whose roots sum to a root, memoized."""
        key = xi * self._n + eta
        value = self._pos.get(key)
        if value is None:
            if eta < xi:
                value = -self._positive(eta, xi)
            else:
                rho = self._sum(xi, eta)
                alpha, beta = self._extraspecial(rho)
                if (xi, eta) == (alpha, beta):
                    value = self._p(xi, eta) + 1
                else:
                    value = self._special_from_jacobi(xi, eta, rho, alpha)
            self._pos[key] = value
        return value

    def _special_from_jacobi(self, xi: int, eta: int, rho: int, alpha: int) -> int:
        """Solve the Jacobi identity on (xi, eta, -alpha) for N_{xi,eta}."""
        neg = alpha + self._n
        t = 0
        k = self._sum(eta, neg)
        if k is not None:
            t += self._mixed(eta, neg) * self._signed(k, xi)
        k = self._sum(xi, neg)
        if k is not None:
            t -= self._mixed(xi, neg) * self._signed(k, eta)
        value, rem = divmod(-t, self._mixed(rho, neg))
        if rem or value == 0:
            raise AssertionError(
                f"Jacobi reduction failed on ({self.basis_roots[xi]}, {self.basis_roots[eta]})")
        return value

    def _signed(self, a: int, b: int) -> int:
        """N_{a,b} for basis root indices of either sign whose roots sum to a root."""
        n = self._n
        if a < n:
            return self._positive(a, b) if b < n else self._mixed(a, b)
        if b >= n:
            return -self._positive(a - n, b - n)
        return -self._mixed(b, a)

    def _mixed(self, mu: int, negnu: int) -> int:
        """N_{mu,-nu} for positive mu and the index negnu of -nu, memoized;
        reduced to positive pairs via the cyclic identity
        N_{a,b}/|c|^2 = N_{b,c}/|a|^2 for a + b + c = 0."""
        n = self._n
        nu = negnu - n
        key = mu * n + nu
        value = self._mix.get(key)
        if value is None:
            rho = self._sum(mu, negnu)
            norm = self._norm
            if rho < n:
                value, rem = divmod(-norm[rho] * self._positive(nu, rho), norm[mu])
            else:
                value, rem = divmod(norm[rho] * self._positive(rho - n, mu), norm[nu])
            if rem:
                raise AssertionError("non-integral mixed constant for "
                                     f"({self.basis_roots[mu]}, {self.basis_roots[negnu]})")
            self._mix[key] = value
        return value

    # -- queries --------------------------------------------------------------

    def constant(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """N_{a,b}; only defined when a, b and a + b are all roots."""
        is_root = self.rs.is_root
        if not is_root(add(a, b)):
            raise ValueError(f"{a} + {b} is not a root")
        if not (is_root(a) and is_root(b)):
            raise ValueError(f"{a} or {b} is not a root")
        pack = self._packing.pack
        return self._signed(self._index[pack(a)], self._index[pack(b)])

    def _coroot(self, coeffs: tuple[int, ...], norm: int) -> tuple[int, ...]:
        """The coefficient at i is k_i B(alpha_i, alpha_i) / B(alpha, alpha)."""
        form = self.rs.form
        out = []
        for i, k in enumerate(coeffs):
            c, rem = divmod(k * form[i][i], norm)
            if rem:
                raise AssertionError(f"non-integral coroot for {coeffs}")
            out.append(c)
        return tuple(out)

    # -- the indexed basis ----------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.basis_roots) + self.rs.diagram.rank

    def basis_bracket(self, i: int, j: int) -> BasisTerms:
        """[X_i, X_j] over the indexed basis as ((k, c), ...), nonzero c only."""
        roots = self.basis_roots
        m = len(roots)
        cartan = self.rs.cartan
        if i >= m:                      # [h, h'] = 0 and [h_i, e_b] = <b, alpha_i> e_b
            c = 0 if j >= m else sum(map(operator.mul, roots[j], cartan[i - m]))
            return ((j, c),) if c else ()
        if j >= m:                      # [e_a, h_k] = -<a, alpha_k> e_a
            c = sum(map(operator.mul, roots[i], cartan[j - m]))
            return ((i, -c),) if c else ()
        k = self._index.get(self._packed[i] + self._packed[j] - self._zero)
        if k is not None:
            return ((k, self._signed(i, j)),)
        if j == (i + self._n) % m:      # [e_a, e_-a] = h_a over the simple coroots
            return tuple((m + t, c) for t, c in enumerate(self._coroot(roots[i], self._norm[i]))
                         if c)
        return ()


@lru_cache(maxsize=None)
def build_table(rs: RootSystem) -> ChevalleyTable:
    return ChevalleyTable(rs)


def jacobi_failures(table: ChevalleyTable, triples) -> int:
    """How many basis index triples (x, y, z) have a nonzero Jacobiator
    [[X_x, X_y], X_z] + [[X_y, X_z], X_x] + [[X_z, X_x], X_y].

    Each triple sums all three cyclic terms over basis brackets.  The
    brackets are read through ``table.basis_bracket`` and memoized, inline,
    for this call only, in a flat list indexed by i * dimension + j, so the
    cached table does not grow.
    """
    dim = table.dimension
    memo: list = [None] * (dim * dim)
    basis_bracket = table.basis_bracket
    bad = 0
    for x, y, z in triples:
        total: dict[int, int] = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            outer = memo[a * dim + b]
            if outer is None:
                outer = memo[a * dim + b] = basis_bracket(a, b)
            for k, ck in outer:
                inner = memo[k * dim + c]
                if inner is None:
                    inner = memo[k * dim + c] = basis_bracket(k, c)
                for t, ct in inner:
                    total[t] = total.get(t, 0) + ck * ct
        if any(total.values()):
            bad += 1
    return bad
