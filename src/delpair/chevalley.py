"""Chevalley basis structure constants and exact bracket evaluation.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootsys import Root, RootSystem

BasisKey = tuple[str, "Root | int"]   # ("e", root) or ("h", simple index)


@dataclass(frozen=True)
class LieElement:
    """Finitely supported integer combination of root vectors and coroots."""

    terms: tuple[tuple[BasisKey, int], ...] = ()

    @staticmethod
    def from_dict(d: dict[BasisKey, int]) -> "LieElement":
        terms = [(k, c) for k, c in d.items() if c != 0]
        if len(terms) > 1:
            terms.sort()
        return LieElement(tuple(terms))

    @staticmethod
    def root_vector(alpha: Root, coeff: int = 1) -> "LieElement":
        return LieElement.from_dict({("e", alpha): coeff})

    @staticmethod
    def coroot(i: int, coeff: int = 1) -> "LieElement":
        return LieElement.from_dict({("h", i): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[BasisKey, int]:
        return dict(self.terms)

    def __add__(self, other: "LieElement") -> "LieElement":
        d = self.as_dict()
        for k, c in other.terms:
            d[k] = d.get(k, 0) + c
        return LieElement.from_dict(d)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scaled(-1)

    def scaled(self, k: int) -> "LieElement":
        return LieElement.from_dict({key: k * c for key, c in self.terms})

    def coefficient(self, key: BasisKey) -> int:
        return self.as_dict().get(key, 0)

    def root_support(self) -> set[Root]:
        return {k[1] for k, _ in self.terms if k[0] == "e"}


class ChevalleyTable:
    """Structure constants N_{a,b} for ordered root pairs with a + b a root.

    Nothing is computed up front: each constant, extraspecial pair and
    integer squared norm B(r, r) is derived the first time a bracket asks
    for it and then memoized, so a table costs only the constants its
    callers read.  The recursion behind a constant terminates because every
    Jacobi step moves to pairs whose sum has lower height, or to an
    extraspecial pair.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._sorted_positives = sorted(rs.positive_roots)
        self._constants: dict[tuple[Root, Root], int] = {}
        self._pos: dict[tuple[Root, Root], int] = {}
        self._extra: dict[Root, tuple[Root, Root]] = {}
        self._norms: dict[Root, int] = {}

    # -- construction --------------------------------------------------------

    def _p(self, a: Root, b: Root) -> int:
        """Largest p with b - p a a root."""
        p = 0
        while self.rs.is_root(b - a.scaled(p + 1)):
            p += 1
        return p

    def _norm(self, r: Root) -> int:
        """B(r, r) = L (r, r) under the integer form, memoized."""
        n = self._norms.get(r)
        if n is None:
            n = self._norms[r] = self.rs.scaled_norm(r)
        return n

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
        if rho in self.rs.positive_roots:
            value, rem = divmod(-self._norm(rho) * self._positive(nu, rho), self._norm(mu))
        else:
            value, rem = divmod(self._norm(-rho) * self._positive(-rho, mu), self._norm(nu))
        if rem:
            raise AssertionError(f"non-integral mixed constant for ({mu}, {negnu})")
        return value

    # -- queries --------------------------------------------------------------

    def constant(self, a: Root, b: Root) -> int:
        """N_{a,b}; only defined when a, b and a + b are all roots."""
        key = (a, b)
        n = self._constants.get(key)
        if n is None:
            is_root = self.rs.is_root
            if not is_root(a + b):
                raise ValueError(f"{a} + {b} is not a root")
            if not (is_root(a) and is_root(b)):
                raise ValueError(f"{a} or {b} is not a root")
            n = self._constants[key] = self._signed_pair(a, b)
        return n

    def coroot_coefficients(self, alpha: Root) -> tuple[int, ...]:
        """Coefficients of the coroot of alpha over the simple coroots.

        The coefficient at i is k_i B(alpha_i, alpha_i) / B(alpha, alpha).
        """
        norm = self._norm(alpha)
        form = self.rs.form
        out = []
        for i, k in enumerate(alpha.coeffs):
            c, rem = divmod(k * form[i][i], norm)
            if rem:
                raise AssertionError(f"non-integral coroot for {alpha}")
            out.append(c)
        return tuple(out)


@lru_cache(maxsize=None)
def build_table(rs: RootSystem) -> ChevalleyTable:
    return ChevalleyTable(rs)


def bracket(x: LieElement, y: LieElement, table: ChevalleyTable) -> LieElement:
    """Lie bracket of two elements in the Chevalley basis."""
    rs = table.rs
    out: dict[BasisKey, int] = {}

    def acc(key: BasisKey, c: int) -> None:
        if c:
            out[key] = out.get(key, 0) + c

    for (kx, cx) in x.terms:
        for (ky, cy) in y.terms:
            c = cx * cy
            if kx[0] == "h" and ky[0] == "h":
                continue
            if kx[0] == "h" and ky[0] == "e":
                acc(ky, c * rs.pairing_simple(ky[1], kx[1]))
            elif kx[0] == "e" and ky[0] == "h":
                acc(kx, -c * rs.pairing_simple(kx[1], ky[1]))
            else:
                a, b = kx[1], ky[1]
                s = a + b
                if rs.is_root(s):
                    acc(("e", s), c * table.constant(a, b))
                elif s.is_zero:
                    for i, hc in enumerate(table.coroot_coefficients(a)):
                        acc(("h", i), c * hc)
    return LieElement.from_dict(out)
