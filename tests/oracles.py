"""Independent oracles, kept deliberately apart from the library paths.

Diagram literals are read term by term with the regular expression
``^([ABCDEFG])([0-9]+)$`` instead of ``str`` methods.  Diagram components
are classified by hand-written shape rules, one branch per letter, instead
of the library's typing of induced sub-diagrams by arm lengths and bonds.
Root systems are regenerated here by reflection closure instead of root
strings, and by the generic Fraction kernel (root strings on coefficient
tuples with the arithmetic written out here, inner products from the rational
symmetrized form) instead of the integer form; the symmetrized form comes
from a breadth-first walk of Cartan-entry ratios instead of the table of
simple-root lengths, highest roots from a scan of each component's roots
instead of the Bourbaki coefficient table,
the root correspondence from additive extension instead of its sparse
columns, the positive roots of one type from root strings walked on
coefficient tuples instead of packed ints, the chain-sum root Gamma from
root additions instead of the chain's indicator vector, the sub-VMRT tangent
weights gamma + Gamma + kappa0 from compact sub roots embedded by node label
instead of through the root correspondence, maximality from an exhaustive
two-step deletion search over every node instead of the chain-interior
closed form, and the Levi components of the normal weights from a
breadth-first search on coefficient tuples, with steps from additive
extension, instead of on packed ints; Chevalley
structure constants come from one eager height-ordered sweep instead of
on-demand recursion; kernels are recomputed by testing
every (nu, nu') pair with raw root-sum arithmetic, and by the search from
the live weights on coefficient tuples instead of packed ints; the Gram
matrix of Phi comes from one ``inner`` per entry instead of B's rows and
the sparse columns, and the noncompact roots and Psi_gamma from a filter
per marked diagram instead of the memo per (rank, shape, marks); the
positive roots of A-D come from the reflection closure and from root
strings instead of the closed forms; the Lie bracket acts on
dict-built elements keyed by roots and coroots instead of basis indices,
and second fundamental form values come from two such brackets instead of
the weight rule alone; counts come from closed formulas; the Grassmannian is
enumerated through wedge products of echelon bases, the maximal minors of
the collinearity scan are expanded as generic determinants, the rows
``ell_rows`` through ell are checked against the generic polarization of the
quadrics, and the boundary survey visits every point of G(2,5)(F_p) with
its full Plücker tuple instead of counting affine blocks, weighting one
point per rank-1 fibre in the big cell's boundary blocks and reading a
per-class table; one 10-tuple at a time, its rank comes from a closed form
on those rows and its pencil parameter from ``ell_rows`` itself, instead of
the survey's closed form on four coordinates, so the survey oracle shares
``ell_rows`` with the survey and relies on the polarization check for it.  Plane sections come from two oracles that share none of
the quadric or solver code of ``plane_section``, and the Plücker tests run
both on planes through ell, the only planes ``plane_section`` takes: over a
prime field, every point of the plane is tested and the locus is regrouped
into the lines it contains and the points left over; over the rationals, the
plane is substituted into quadrics written out here and the locus is found
with sympy's polynomial gcd, factorization, division and nullspace, with no
use of the factor w that ell contributes to every restricted quadric.
Segre sections of the span of three points come from testing every point of
the span on minors written out here, instead of the rank of the polar-form
matrix; the Segre fitting report is rebuilt with the section of every
configuration cut in two loops, instead of one representative per orbit,
and with the orbits of both configuration sets found by breadth-first
searches over whole (y, a, b) and (x, L, a, b) tuples instead of one factor
of the product at a time.  The property suite's replaced paths stay here too: Chevalley
constants and basis brackets by a recursion keyed by root tuples instead of
basis indices, the Jacobi counter on every triple instead of the weight-live
ones alone, simple reflections through a scaled simple root and checked
with three reflections instead of one, the Plücker quadrics with each
coordinate looked up by its pair (i, j) instead of written out, and the
seeded samples drawn as the suite first drew them.  The rank of an alternating matrix comes from
one general fraction-free elimination, over Q or mod p and with an early
stop, instead of ``alternating_rank``'s elimination from a bivector's ten
coordinates.  Two readers that only the tests use live here as well: the
rational Cartan pairing 2 B(beta, gamma) / B(gamma, gamma), which the library
reads only as a Cartan-row sum or an integer identity on its form B, and a
structure constant N_{a,b} on two root tuples, read off the table's basis
bracket.  The rational Plücker lab that integer closed forms replaced stays
here as well: Fraction row reduction and kernels, row reduction mod p,
which ``plane_section``'s certification replaced by a closed form on the
basis of span(b, ell), primitive covectors of rational vectors, the reduced echelon bases of W_b and of span(b, ell), plane
sections from the row-reduced forms L_S, the collinearity witness from the
first kernel vector of the stacked columns, and bivector literals read with a
regular expression instead of ``str`` methods.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import sympy

from delpair.chevalley import ChevalleyTable
from delpair import hss
from delpair.pairs import DeletionPair, MaximalityVerdict
from delpair.projgeo.linalg import canonical_mod, projective_points
from delpair.projgeo.plucker import (
    PAIR_INDEX,
    PAIRS,
    QUAD_SETS,
    CollinearityWitness,
    SectionDescription,
    SurveyReport,
    _certify,
    _combination,
    _echelon_cells,
    alternating_matrix,
    ell_generators,
    ell_rows,
    grassmannian_membership,
    plucker_quadrics,
    wedge,
)
from delpair.projgeo.segre import SegreLine, segre_point
from delpair.report import CheckReport, require_odd_prime
from delpair.rootsys import (
    _RANK_BOUNDS,
    ChainError,
    Component,
    DiagramError,
    DynkinDiagram,
    MarkedDiagram,
    RootSystem,
    delete_chain,
)

Vec = tuple[int, ...]       # a root or weight: coefficients in a diagram's node order


# Root arithmetic on coefficient tuples, written out here instead of read from
# ``rootsys.add`` and ``rootsys.sub``; a strict zip refuses two ranks.

def plus(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def minus(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def times(k: int, a: Vec) -> Vec:
    return tuple(k * x for x in a)


def unit(i: int, n: int) -> Vec:
    """The simple root alpha_i of a rank-n diagram."""
    return tuple(int(j == i) for j in range(n))


def support(r: Vec) -> tuple[int, ...]:
    return tuple(i for i, a in enumerate(r) if a)


def form_pairing(rs: RootSystem, beta: Vec, gamma: Vec) -> "int | Fraction":
    """<beta, gamma> = 2 B(beta, gamma) / B(gamma, gamma) on the integer form,
    an int when exact."""
    if not any(gamma):
        raise ValueError("pairing against the zero vector")
    value = Fraction(2 * rs.inner(beta, gamma), rs.inner(gamma, gamma))
    return value.numerator if value.denominator == 1 else value


COUNT_FORMULAS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


# The five rows run-all reports on each catalog pair.
PAIR_ROWS = ("pairs.correspondence", "sff.kernel_sigma", "sff.kernel_tau",
             "sff.infinity_locus", "normalbundle.summands_distinct")

# Per pair that passes every pair row, for n up to 40: dim_sub, dim_ambient,
# the normal-bundle component sizes, the infinity locus_size, the kernel_tau
# kernel_size and the number of kernel_sigma weights.  D_n:a_n/a_(n-2) is
# G(2, n-2) in G^II(n,n).
FAMILY_CLOSED_FORMS = {
    **{f"D{n}:a{n}/a{n - 2}": (2 * (n - 2), n * (n - 1) // 2, [1, math.comb(n - 2, 2)],
                               2 * (n - 2), n - 1, 1)
       for n in range(5, 41)},
    "E6:a6/a5": (10, 16, [1, 5], 10, 7, 1),
    "E7:a7/a6": (16, 27, [1, 10], 16, 11, 1),
}


def family_reading(witnesses, pair_id: str) -> tuple:
    """The witnesses ``FAMILY_CLOSED_FORMS`` lists, read off the pair rows'
    witnesses, keyed by (check_id, pair id)."""
    (corr,) = witnesses["pairs.correspondence", pair_id]
    (normal,) = witnesses["normalbundle.summands_distinct", pair_id]
    (locus,) = witnesses["sff.infinity_locus", pair_id]
    (tau,) = witnesses["sff.kernel_tau", pair_id]
    (sigma,) = witnesses["sff.kernel_sigma", pair_id]
    return (corr["dim_sub"], corr["dim_ambient"], sorted(normal["component_sizes"]),
            locus["locus_size"], tau["kernel_size"], len(sigma["kernel"]))


def closed_form_positive_count(diagram: DynkinDiagram) -> int:
    return sum(COUNT_FORMULAS[c.letter](c.rank) for c in diagram.components)


def symmetrized_form(diagram: DynkinDiagram) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix (alpha_i, alpha_j), with long roots of squared length 2.

    The squared lengths spread from the first node of each component by the
    ratio C_ij / C_ji across each bond, then are scaled so the longest is 2.
    """
    n = diagram.rank
    C = diagram.cartan_matrix
    d: list[Fraction | None] = [None] * n
    for comp in diagram.components:
        idxs = [diagram.index[a] for a in comp.labels]
        d[idxs[0]] = Fraction(1)
        queue = deque([comp.labels[0]])
        while queue:
            a = queue.popleft()
            i = diagram.index[a]
            for b in diagram.adjacency[a]:
                j = diagram.index[b]
                if d[j] is None:
                    d[j] = d[i] * Fraction(C[i][j], C[j][i])
                    queue.append(b)
        top = max(d[i] for i in idxs)
        for i in idxs:
            d[i] /= top
    return tuple(tuple(d[i] * C[i][j] for j in range(n)) for i in range(n))


def component_roots(rs: RootSystem, comp: Component) -> frozenset[Vec]:
    """Positive roots supported on one component, by scanning their supports."""
    idxs = {rs.diagram.index[a] for a in comp.labels}
    return frozenset(r for r in rs.positive_roots if set(support(r)) <= idxs)


def highest_root(rs: RootSystem, comp: Component) -> Vec:
    """The unique root of greatest height among a component's roots."""
    croots = component_roots(rs, comp)
    top = max(croots, key=lambda r: (sum(r), r))
    if sum(1 for r in croots if sum(r) == sum(top)) != 1:
        raise DiagramError(f"component {comp.name}: highest root not unique")
    return top


def additive_apply(corr, beta: Vec) -> Vec:
    """Phi(beta) as the sum of c_j Phi(alpha_j), one root at a time."""
    images = dict(corr.on_simple)
    total = (0,) * corr.pair.ambient.diagram.rank
    for label, c in zip(corr.pair.sub.diagram.nodes, beta, strict=True):
        if c:
            total = plus(total, times(c, images[label]))
    return total


def tuple_root_strings(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Positive roots by root strings through the simple roots, in discovery order.

    Every candidate of a string is built as a coefficient tuple, and each
    pairing <beta, alpha_i> is a dot product with a Cartan row.
    """
    n = len(cartan)
    layer = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = dict.fromkeys(layer)        # insertion-ordered set
    while layer:
        nxt: list[tuple[int, ...]] = []
        for beta in layer:
            for i in range(n):
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in roots:
                    p += 1
                if p - sum(b * c for b, c in zip(beta, cartan[i])) > 0:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in roots:
                        roots[up] = None
                        nxt.append(up)
        layer = nxt
    return list(roots)


def tuple_levi_components(pair) -> tuple[tuple[frozenset[Vec], ...], tuple[Vec, ...]]:
    """The Levi components of the normal weights and their highest weights.

    A breadth-first search on coefficient tuples from the least weight left,
    with the steps Phi(alpha) of the compact sub simple roots from additive
    extension; components sort by (size, least weight), and each highest
    weight is the greatest (height, tuple) among the weights that no step
    raises.
    """
    corr = pair.correspondence
    srs = pair.sub.root_system()
    steps = [additive_apply(corr, srs.simple_root(label))
             for label in pair.sub.diagram.nodes if label != pair.gamma0]
    nc = hss.noncompact_positive_roots(pair.ambient)
    image = {additive_apply(corr, b) for b in hss.noncompact_positive_roots(pair.sub)}
    remaining = set(nc - image)
    blocks: list[set[Vec]] = []
    while remaining:
        seed = min(remaining)
        block = {seed}
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            for s in steps:
                for cand in (plus(w, s), minus(w, s)):
                    if cand in remaining and cand not in block:
                        block.add(cand)
                        frontier.append(cand)
        remaining -= block
        blocks.append(block)
    blocks.sort(key=lambda c: (len(c), min(c)))
    highest = []
    for block in blocks:
        maximal = [w for w in block
                   if all(plus(w, s) not in block for s in steps)]
        highest.append(max(maximal, key=lambda c: (sum(c), c)))
    return tuple(map(frozenset, blocks)), tuple(highest)


def label_embedded_sub_tangent(pair) -> frozenset[Vec]:
    """Sub-VMRT tangent weights as gamma + Gamma + kappa0, kappa0 embedded by labels.

    kappa0 = mu0 - gamma0 runs over the compact sub roots of mu0 in
    Psi_gamma0(X0); its coefficients move to the ambient by node label,
    without the root correspondence.
    """
    rs = pair.ambient.root_system()
    base = plus(rs.simple_root(pair.gamma), pair.big_gamma)
    gamma0 = pair.sub.root_system().simple_root(pair.gamma0)
    index = pair.ambient.diagram.index
    out = set()
    for mu0 in hss.psi_gamma(pair.sub):
        coeffs = [0] * pair.ambient.diagram.rank
        for label, c in zip(pair.sub.diagram.nodes, minus(mu0, gamma0)):
            coeffs[index[label]] = c
        out.add(plus(base, tuple(coeffs)))
    return frozenset(out)


def chain_sum(pair) -> Vec:
    """Gamma as a sum of simple roots of the ambient system, one root at a time."""
    rs = pair.ambient.root_system()
    total = (0,) * pair.ambient.diagram.rank
    for label in pair.chain[1:]:
        total = plus(total, rs.simple_root(label))
    return total


@functools.lru_cache(maxsize=None)
def _single_deletions(md: MarkedDiagram) -> tuple:
    """All valid one-step deletions from a marked diagram to a connected result."""
    gamma = md.single_mark
    out = []
    for node in md.diagram.nodes:
        if node == gamma:
            continue
        try:
            pair = DeletionPair(md, node)
        except (ChainError, ValueError):
            continue
        if len(pair.sub.diagram.components) != 1:
            continue
        out.append(pair)
    return tuple(out)


def exhaustive_maximality(pair) -> MaximalityVerdict:
    """Search every one-step deletion X1 of the ambient for a second step to X0."""
    witnesses = []
    for step in _single_deletions(pair.ambient):
        mid = step.sub
        if mid == pair.sub or mid == pair.ambient:
            continue
        if pair.gamma0 not in mid.diagram.nodes:
            continue
        try:
            _, second = delete_chain(mid, pair.gamma0)
        except (ChainError, ValueError):
            continue
        if second == pair.sub:
            witnesses.append(step)
    witnesses.sort(key=lambda p: p.pair_id)
    return MaximalityVerdict(not witnesses, tuple(witnesses))


def shape_rule_components(nodes: tuple[str, ...], edges) -> tuple[Component, ...]:
    """Components of a diagram by the hand-written shape rules, one branch per
    letter, apart from the library's typing of induced sub-diagrams.

    Takes raw (nodes, edges), so that a test can give it a parent's bonds,
    not those a diagram reads off its own typing; raises DiagramError where
    no rule applies."""
    adj: dict[str, dict] = {a: {} for a in nodes}
    for u, v, mult, arrow in edges:
        adj[u][v] = adj[v][u] = (mult, arrow)
    comps, seen = [], set()
    for start in nodes:
        if start in seen:
            continue
        block, queue = {start}, deque([start])
        while queue:
            for b in adj[queue.popleft()]:
                if b not in block:
                    block.add(b)
                    queue.append(b)
        seen |= block
        comps.append(shape_rule_classify(sorted(block, key=nodes.index), adj))
    return tuple(comps)


_DIAGRAM_TERM_RE = re.compile(r"^([ABCDEFG])([0-9]+)$")


def regex_parse_diagram(text: str) -> DynkinDiagram:
    """``parse_diagram`` with each stripped term matched by the regular
    expression; the same bonds per term and the same error messages."""
    nodes: list[str] = []
    components = []
    for term in text.strip().split("+"):
        m = _DIAGRAM_TERM_RE.match(term.strip())
        if not m:
            raise DiagramError(f"cannot parse diagram literal {term!r}")
        letter, n = m.group(1), int(m.group(2))
        lo, hi = _RANK_BOUNDS[letter]
        if n < lo or (hi is not None and n > hi):
            raise DiagramError(f"rank {n} out of range for type {letter}")
        components.append(Component(letter, tuple(f"a{len(nodes) + i}" for i in range(1, n + 1))))
        nodes += components[-1].labels
    return DynkinDiagram(tuple(nodes), tuple(components)).induced(set(nodes))


def _walk_path(start: str, labels: list[str], adj: dict[str, dict]) -> list[str]:
    seq = [start]
    prev = None
    while True:
        nxt = [b for b in adj[seq[-1]] if b in labels and b != prev]
        if not nxt:
            return seq
        if len(nxt) > 1:
            raise DiagramError("not a path")
        prev = seq[-1]
        seq.append(nxt[0])


def shape_rule_classify(labels: list[str], full_adj: dict[str, dict]) -> Component:
    """Match one connected component against the finite-type classification."""
    adj = {a: {b: m for b, m in full_adj[a].items() if b in set(labels)} for a in labels}
    n = len(labels)
    nedges = sum(len(adj[a]) for a in labels) // 2
    if nedges != n - 1:
        raise DiagramError(f"component {labels} contains a cycle")
    mults = sorted(m for a in labels for (m, _) in adj[a].values())
    degrees = {a: len(adj[a]) for a in labels}
    if any(d > 3 for d in degrees.values()):
        raise DiagramError(f"component {labels}: node of degree > 3")

    if mults and mults[-1] == 3:
        if n != 2 or mults != [3, 3]:
            raise DiagramError(f"component {labels}: stray triple bond")
        (u, v, _, arrow) = next(iter(_component_edges(labels, full_adj)))
        short = arrow
        longr = v if short == u else u
        return Component("G", (short, longr))

    if mults and mults[-1] == 2:
        doubles = [e for e in _component_edges(labels, full_adj) if e[2] == 2]
        if len(doubles) != 1 or any(d > 2 for d in degrees.values()):
            raise DiagramError(f"component {labels}: unclassifiable multiple bonds")
        ends = [a for a in labels if degrees[a] <= 1]
        seq = _walk_path(ends[0], labels, adj)
        (u, v, _, arrow) = doubles[0]
        k = min(seq.index(u), seq.index(v))
        if n == 2:
            longr = v if arrow == u else u
            return Component("B", (longr, arrow))
        if k == 0:
            seq, k = seq[::-1], n - 2
        if k == n - 2:
            letter = "B" if arrow == seq[-1] else "C"
            return Component(letter, tuple(seq))
        if n == 4 and k == 1:
            if arrow != seq[2]:
                seq = seq[::-1]
            if full_adj[seq[1]][seq[2]][1] != seq[2]:
                raise DiagramError(f"component {labels}: not of type F4")
            return Component("F", tuple(seq))
        raise DiagramError(f"component {labels}: double bond in illegal position")

    branch = [a for a in labels if degrees[a] == 3]
    if not branch:
        if n == 1:
            return Component("A", tuple(labels))
        ends = sorted((a for a in labels if degrees[a] == 1), key=labels.index)
        seqs = [_walk_path(e, labels, adj) for e in ends]
        best = min(seqs, key=lambda s: [labels.index(a) for a in s])
        return Component("A", tuple(best))
    if len(branch) > 1:
        raise DiagramError(f"component {labels}: more than one branch node")
    b = branch[0]
    arms = []
    for nb in adj[b]:
        seq = [nb]
        prev = b
        while True:
            nxt = [c for c in adj[seq[-1]] if c != prev]
            if not nxt:
                break
            prev = seq[-1]
            seq.append(nxt[0])
        arms.append(seq)
    lengths = sorted(len(a) for a in arms)
    if lengths[:2] == [1, 1]:
        tips = sorted([a[0] for a in arms if len(a) == 1], key=labels.index)
        tails = [a for a in arms if len(a) == lengths[2]]
        if lengths[2] == 1:   # D4: three symmetric arms
            tail_leaf = tips[0]
            tips = tips[1:]
            tail = [tail_leaf]
        else:
            tail = tails[0]
        return Component("D", tuple(reversed(tail)) + (b,) + tuple(tips))
    if lengths[0] == 1 and lengths[1] == 2 and lengths[2] in (2, 3, 4):
        short = next(a for a in arms if len(a) == 1)
        twos = [a for a in arms if len(a) == 2]
        longs = [a for a in arms if len(a) == lengths[2]]
        candidates = []
        if lengths[2] == 2:   # E6: the two length-2 arms are interchangeable
            candidates = [(twos[0], twos[1]), (twos[1], twos[0])]
        else:
            candidates = [(twos[0], longs[0])]
        orders = []
        for mid, tail in candidates:
            orders.append((mid[1], short[0], mid[0], b) + tuple(tail))
        best = min(orders, key=lambda s: [labels.index(a) for a in s])
        return Component("E", best)
    raise DiagramError(f"component {labels}: arm lengths {lengths} match no type")


def _component_edges(labels: list[str], full_adj: dict[str, dict]):
    block = set(labels)
    seen = set()
    for a in labels:
        for bnode, (m, arrow) in full_adj[a].items():
            if bnode in block and frozenset((a, bnode)) not in seen:
                seen.add(frozenset((a, bnode)))
                yield (a, bnode, m, arrow)


def reflection_closure_positive_roots(diagram: DynkinDiagram) -> frozenset[Vec]:
    """Orbit of the simple roots under all simple reflections, positives only.

    s_i keeps every positive root but alpha_i positive, and every positive
    root reaches a simple one by reflections that lower its height, so the
    orbit is walked on positive roots alone: s_i(beta) changes coordinate i
    only, so it is negative exactly when that coordinate drops below 0.
    Each root carries its pairings <beta, alpha_k>, which s_i lowers by
    <beta, alpha_i> times those of alpha_i, column i of the Cartan matrix.
    """
    n = diagram.rank
    cartan = diagram.cartan_matrix
    column = [tuple(row[i] for row in cartan) for i in range(n)]
    frontier = [(unit(i, n), column[i]) for i in range(n)]
    roots = {beta for beta, _ in frontier}
    while frontier:
        new = []
        for beta, pairings in frontier:
            for i, k in enumerate(pairings):
                if k and beta[i] >= k:
                    img = beta[:i] + (beta[i] - k,) + beta[i + 1:]
                    if img not in roots:
                        roots.add(img)
                        new.append((img, tuple(p - k * c for p, c in zip(pairings, column[i]))))
        frontier = new
    return frozenset(roots)


class FractionRootSystem:
    """Positive roots, inner products and pairings in exact rationals.

    Reads only the diagram's Cartan matrix and rational symmetrized form S,
    never its integer form: (beta, gamma) is beta dotted with the Fraction
    vector S gamma.
    """

    def __init__(self, diagram: DynkinDiagram):
        self.cartan = diagram.cartan_matrix
        self.sym = symmetrized_form(diagram)
        self._columns: dict[Vec, tuple[Fraction, ...]] = {}
        self._norms: dict[Vec, Fraction] = {}
        self.positive_roots = frozenset(self._generate(diagram.rank))

    def _generate(self, n: int) -> set[Vec]:
        roots: set[Vec] = {unit(i, n) for i in range(n)}
        layer = set(roots)
        while layer:
            nxt: set[Vec] = set()
            for beta in layer:
                for i in range(n):
                    alpha = unit(i, n)
                    p = 0
                    while minus(beta, times(p + 1, alpha)) in roots:
                        p += 1
                    if p - self.pairing_simple(beta, i) > 0:
                        cand = plus(beta, alpha)
                        if cand not in roots:
                            nxt.add(cand)
            roots |= nxt
            layer = nxt
        return roots

    def pairing_simple(self, beta: Vec, i: int) -> int:
        return sum(b * self.cartan[i][j] for j, b in enumerate(beta) if b)

    def _column(self, gamma: Vec) -> tuple[Fraction, ...]:
        """The Fraction vector S gamma, memoized per gamma."""
        col = self._columns.get(gamma)
        if col is None:
            col = self._columns[gamma] = tuple(
                sum((row[j] * g for j, g in enumerate(gamma) if g), Fraction(0))
                for row in self.sym)
        return col

    def bilinear(self, beta: Vec, gamma: Vec) -> Fraction:
        """(beta, gamma) under the symmetrized form."""
        col = self._column(gamma)
        return sum((b * col[i] for i, b in enumerate(beta) if b), Fraction(0))

    def _norm(self, gamma: Vec) -> Fraction:
        """(gamma, gamma), memoized per gamma."""
        norm = self._norms.get(gamma)
        if norm is None:
            norm = self._norms[gamma] = self.bilinear(gamma, gamma)
        return norm

    def pairing(self, beta: Vec, gamma: Vec) -> "int | Fraction":
        """<beta, gamma> = 2(beta, gamma)/(gamma, gamma)."""
        if not any(gamma):
            raise ValueError("pairing against the zero vector")
        value = 2 * self.bilinear(beta, gamma) / self._norm(gamma)
        return int(value) if value.denominator == 1 else value

    def coroot_coefficients(self, alpha: Vec) -> tuple[int, ...]:
        """alpha^vee = sum_i k_i (alpha_i, alpha_i)/(alpha, alpha) alpha_i^vee."""
        norm = self.bilinear(alpha, alpha)
        out = []
        for i, k in enumerate(alpha):
            c = k * self.sym[i][i] / norm
            assert c.denominator == 1, f"non-integral coroot for {alpha}"
            out.append(int(c))
        return tuple(out)


def string_p(rs: RootSystem, a: Vec, b: Vec) -> int:
    """Largest p with b - p a a root, by direct membership."""
    p = 0
    while rs.is_root(minus(b, times(p + 1, a))):
        p += 1
    return p


def eager_structure_constants(rs: RootSystem) -> dict[tuple[Vec, Vec], int]:
    """N_{a,b} on every ordered root pair with a + b a root, all up front.

    The height-ordered sweep: each positive root's extraspecial pair gets
    p + 1, every other positive pair is solved from the Jacobi identity
    once all lower heights are known, and the signs are then extended to
    all |Phi|^2 ordered pairs.
    """
    positives = sorted(rs.positive_roots)
    pos_set = set(positives)
    fraction_rs = FractionRootSystem(rs.diagram)
    norm = {r: fraction_rs.bilinear(r, r) for r in positives}
    pos: dict[tuple[Vec, Vec], int] = {}

    def mixed(mu: Vec, negnu: Vec) -> int:
        nu = neg(negnu)
        rho = minus(mu, nu)
        if rho in pos_set:
            value = -Fraction(norm[rho], norm[mu]) * pos[(nu, rho)]
        else:
            value = Fraction(norm[neg(rho)], norm[nu]) * pos[(neg(rho), mu)]
        assert value.denominator == 1
        return int(value)

    def signed_pair(a: Vec, b: Vec) -> int:
        apos, bpos = a in pos_set, b in pos_set
        if apos and bpos:
            return pos[(a, b)]
        if not apos and not bpos:
            return -pos[(neg(a), neg(b))]
        return mixed(a, b) if apos else -mixed(b, a)

    def from_jacobi(xi: Vec, eta: Vec, alpha: Vec) -> int:
        t = 0
        if rs.is_root(minus(eta, alpha)):
            t += mixed(eta, neg(alpha)) * signed_pair(minus(eta, alpha), xi)
        if rs.is_root(minus(xi, alpha)):
            t -= mixed(xi, neg(alpha)) * signed_pair(minus(xi, alpha), eta)
        value = Fraction(-t, mixed(plus(xi, eta), neg(alpha)))
        assert value.denominator == 1 and value != 0
        return int(value)

    for rho in sorted(positives, key=sum):
        pairs = sorted((a, minus(rho, a)) for a in positives
                       if a < minus(rho, a) and minus(rho, a) in pos_set)
        if not pairs:
            continue
        alpha, beta = pairs[0]
        for xi, eta in pairs:
            n = string_p(rs, alpha, beta) + 1 if xi == alpha else from_jacobi(xi, eta, alpha)
            pos[(xi, eta)], pos[(eta, xi)] = n, -n
    roots = positives + [neg(r) for r in positives]
    return {(a, b): signed_pair(a, b) for a in roots for b in roots if rs.is_root(plus(a, b))}


def brute_kernel(psi, sub_tangent, gamma, noncompact, rs, quotient=frozenset()):
    """Kernel weights by raw root-sum arithmetic (no brackets involved)."""
    dead = set()
    allowed = set(psi) | {gamma} | set(quotient)
    for nu in psi:
        if all(w not in noncompact or w in allowed
               for w in (minus(plus(nu, nu2), gamma) for nu2 in sub_tangent)):
            dead.add(nu)
    return frozenset(dead)


def tuple_kernels(ctx) -> tuple[frozenset[Vec], frozenset[Vec]]:
    """The sigma and tau kernel weights from shifts on coefficient tuples.

    Each live weight w (noncompact, outside Psi_gamma, not gamma) removes
    every w - (nu' - gamma) from sigma's kernel, and from tau's when w lies
    outside the Phi image of the sub noncompact roots; no weight is packed.
    """
    shifts = [minus(nu2, ctx.gamma) for nu2 in ctx.sub_tangent]
    hit_sigma: set[Vec] = set()
    hit_tau: set[Vec] = set()
    for w in ctx.noncompact - ctx.psi - {ctx.gamma}:
        hit = {minus(w, s) for s in shifts}
        hit_sigma |= hit
        if w not in ctx.x0_tangent:
            hit_tau |= hit
    return ctx.psi - hit_sigma, ctx.psi - hit_tau


def filtered_noncompact(md: MarkedDiagram) -> frozenset[Vec]:
    """The positive roots of this diagram's own root system with coefficient
    1 at a mark, filtered per marked diagram instead of read per shape."""
    rs = RootSystem(md.diagram)
    marks = [md.diagram.index[m] for m in md.marked]
    return frozenset(r for r in rs.positive_roots if any(r[i] == 1 for i in marks))


def filtered_psi(md: MarkedDiagram) -> frozenset[Vec]:
    """Psi_gamma per marked diagram: the noncompact mu with mu - gamma a root."""
    rs = RootSystem(md.diagram)
    gamma = unit(md.diagram.index[md.single_mark], md.diagram.rank)
    return frozenset(mu for mu in filtered_noncompact(md) if rs.is_root(minus(mu, gamma)))


def inner_gram(pair) -> list[list[int]]:
    """B(Phi a_i, Phi a_j) by one ``inner`` call per entry, in sub node order."""
    ars = pair.ambient_rs()
    images = dict(pair.correspondence.on_simple)
    nodes = pair.sub.diagram.nodes
    return [[ars.inner(images[a], images[b]) for b in nodes] for a in nodes]


BasisKey = tuple[str, "Vec | int"]   # ("e", root) or ("h", simple index)


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
    def root_vector(alpha: Vec, coeff: int = 1) -> "LieElement":
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

    def root_support(self) -> set[Vec]:
        return {k[1] for k, _ in self.terms if k[0] == "e"}


def table_coroot(table: ChevalleyTable, alpha: Vec) -> tuple[int, ...]:
    """The coroot of alpha over the simple coroots, as the table writes the
    bracket [X_alpha, X_-alpha]: basis indices k and k + n (mod 2n) for n
    positive roots, with the simple coroots after the 2n root vectors."""
    roots = table.basis_roots
    m = len(roots)
    k = roots.index(alpha)
    terms = dict(table.basis_bracket(k, (k + m // 2) % m))
    return tuple(terms.get(i, 0) for i in range(m, table.dimension))


@functools.lru_cache(maxsize=None)
def _basis_index(table: ChevalleyTable) -> dict[Vec, int]:
    return {r: k for k, r in enumerate(table.basis_roots)}


def table_constant(table: ChevalleyTable, a: Vec, b: Vec) -> int:
    """N_{a,b}, as the table writes [X_a, X_b] = N_{a,b} X_{a+b}; only defined
    when a, b and a + b are all roots."""
    index = _basis_index(table)
    if plus(a, b) not in index:
        raise ValueError(f"{a} + {b} is not a root")
    if a not in index or b not in index:
        raise ValueError(f"{a} or {b} is not a root")
    (k, n), = table.basis_bracket(index[a], index[b])
    assert table.basis_roots[k] == plus(a, b)
    return n


def bracket(x: LieElement, y: LieElement, table: ChevalleyTable) -> LieElement:
    """Lie bracket of two elements in the Chevalley basis, term by term."""
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
                s = plus(a, b)
                if rs.is_root(s):
                    acc(("e", s), c * table_constant(table, a, b))
                elif not any(s):
                    for i, hc in enumerate(table_coroot(table, a)):
                        acc(("h", i), c * hc)
    return LieElement.from_dict(out)


def bracket_sff_value(nu: Vec, nu2: Vec, ctx, table: ChevalleyTable):
    """Second fundamental form through [E_{nu-gamma}, [E_{nu'-gamma}, E_gamma]].

    Both brackets are evaluated on Lie elements, and the value is then
    reduced modulo the affinized tangent space and the parabolic.  Returns
    (coefficient, weight) for a surviving value, None for zero; the
    coefficient is N_{nu'-gamma,gamma} N_{nu-gamma,nu'}.
    """
    inner = bracket(LieElement.root_vector(minus(nu2, ctx.gamma)),
                    LieElement.root_vector(ctx.gamma), table)
    value = bracket(LieElement.root_vector(minus(nu, ctx.gamma)), inner, table)
    if value.is_zero:
        return None
    weight = minus(plus(nu, nu2), ctx.gamma)
    if value.root_support() != {weight}:
        raise AssertionError(f"unexpected bracket support {value.root_support()}")
    if weight not in ctx.noncompact or weight in ctx.psi or weight == ctx.gamma:
        return None
    return (value.coefficient(("e", weight)), weight)


def rref_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """The nonzero rows of the reduced row echelon form of an integer matrix mod p.

    Their number is the rank mod p.
    """
    mat = [[x % p for x in r] for r in rows]
    nrows = len(mat)
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [inv * x % p for x in mat[r]]
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return mat[:r]


def early_stop_rank(rows: list[list[int]], p: int | None = None, stop: int | None = None) -> int:
    """Rank of an integer matrix over the rationals, or mod p when p is given.

    One general elimination, fraction-free over the rationals and mod p: a
    row below the pivot row becomes pivot * row - entry * top.  Over the
    rationals that row is then divided by the previous pivot
    (Bareiss), so entries stay ints; mod p the pivot is a unit and no
    division is needed.  With ``stop`` the elimination ends at the stop-th
    pivot (stop >= 1) and returns ``stop``: ``early_stop_rank(m, p, 3)`` is
    ``alternating_rank``'s answer on an alternating m.
    """
    mat = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    nrows = len(mat)
    limit = nrows if stop is None else min(stop, nrows)
    r, prev = 0, 1
    for c in range(len(mat[0]) if mat else 0):
        for pivot in range(r, nrows):
            if mat[pivot][c]:
                break
        else:
            continue
        top = mat[pivot]
        mat[pivot] = mat[r]
        mat[r] = top
        piv = top[c]
        r += 1
        if r == limit:
            break
        for i in range(r, nrows):
            row = mat[i]
            f = row[c]
            if p:
                if f:
                    mat[i] = [(piv * x - f * y) % p for x, y in zip(row, top)]
            else:
                mat[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
    return r


def gaussian_binomial_2_of_5(p: int) -> int:
    """Number of 2-subspaces of a 5-space over the field with p elements."""
    return (p**5 - 1) * (p**4 - 1) // ((p**2 - 1) * (p - 1))


def enumerate_grassmannian(p: int):
    """All F_p-points of G(2,5), as (u ^ v mod p, (u, v)).

    Subspaces are enumerated through their unique reduced-echelon bases, so
    the count is the Gaussian binomial coefficient for 2-subspaces of a
    5-space.
    """
    for i, j in itertools.combinations(range(5), 2):
        free_positions = [c for c in range(i + 1, 5) if c != j]
        free2 = list(range(j + 1, 5))
        for fv in itertools.product(range(p), repeat=len(free_positions) + len(free2)):
            u = [0] * 5
            v = [0] * 5
            u[i] = 1
            v[j] = 1
            for c, val in zip(free_positions, fv):
                u[c] = val
            for c, val in zip(free2, fv[len(free_positions):]):
                v[c] = val
            yield _wedge_mod(u, v, p), (tuple(u), tuple(v))


def _wedge_mod(u, v, p: int) -> tuple:
    """The Plücker coordinates of u ^ v as plain ints mod p, in PAIRS order."""
    return tuple((u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]) % p for i, j in PAIRS)


def _on_ell(x: tuple) -> bool:
    """b lies on ell = {[e1 ^ (t e2 + s e3)]} iff only x12 and x13 are nonzero."""
    return not any(x[2:])


def _polarization_rank(x: tuple, p: int) -> int:
    """Rank mod p of the rows ``ell_rows(x)``.

    The survey reads it only on x45 = 0, where the last two rows carry
    the rank.
    """
    x24, x25, x34, x35, x45 = x[5:]
    if x45 or (x25 * x34 - x24 * x35) % p:
        return 2
    return 1 if x24 or x25 or x34 or x35 else 0


def _pencil_parameter(x: tuple, p: int) -> "tuple | None":
    """[t:s] annihilating the signed minors of [u; v; e1; e2] and [u; v; e1; e3].

    Every nonzero row (a, c) of ``ell_rows(x)`` asks a t + c s = 0.  Returns
    None when two of those conditions are independent, and (1, 0) when there
    is none at all.
    """
    rows = [(a, c) for a, c in ell_rows(x) if a or c]
    if not rows:
        return (1, 0)
    a, c = rows[0]
    if any((a * c2 - c * a2) % p for a2, c2 in rows[1:]):
        return None
    return (-c % p, a)


def _common_vector(u, v, t: int, s: int, p: int) -> tuple:
    """A nonzero alpha u + beta v in <e1, t e2 + s e3>, solved from u and v alone.

    The vector w lies in that plane iff w4 = w5 = 0 and (w2, w3) is
    proportional to (t, s); each condition is one linear form in
    (alpha, beta), and the first nonzero one fixes [alpha : beta].
    """
    conds = ((u[3], v[3]), (u[4], v[4]),
             ((u[1] * s - u[2] * t) % p, (v[1] * s - v[2] * t) % p))
    alpha, beta = next(((c2, -c1 % p) for c1, c2 in conds if c1 or c2), (1, 0))
    w = tuple((alpha * a + beta * b) % p for a, b in zip(u, v))
    if not any(w) or w[3] or w[4] or (w[1] * s - w[2] * t) % p:
        raise AssertionError(f"witness parameter [{t}:{s}] without a common vector")
    return w


def pointwise_dee_survey(p: int) -> SurveyReport:
    """``dee_exhaustive_survey`` one point at a time, on full Plücker tuples.

    Every point of every echelon cell is visited and counted on its own, and
    each divisor point gets its 10-tuple of coordinates, its own rank and
    pencil parameter, and its own common vector; nothing is counted by block
    or read from a per-class table.
    """
    total = affine = dee = surveyed = 0
    exact = extra = fullplane = nowitness = 0
    witness_without_extra = 0
    excl_meeting = excl_axis = 0
    for us, vs in _echelon_cells(p):
        for u in itertools.product(*us):
            for v in itertools.product(*vs):
                total += 1
                if (u[3] * v[4] - u[4] * v[3]) % p:
                    affine += 1
                    continue
                dee += 1
                x = _wedge_mod(u, v, p)
                if _on_ell(x):
                    continue
                surveyed += 1
                r = _polarization_rank(x, p)
                if r == 2:
                    exact += 1
                elif r == 1:
                    extra += 1
                else:
                    extra += 1
                    fullplane += 1
                param = _pencil_parameter(x, p)
                if param is None:
                    nowitness += 1
                else:
                    _common_vector(u, v, *param, p)
                    excl_meeting += 1
                    if r == 2:
                        witness_without_extra += 1
                if not any(x[4:]):         # only x1j: the axis vector e1 lies in W_b
                    excl_axis += 1
    return SurveyReport(p, total, affine, dee, surveyed, exact, extra, fullplane,
                        nowitness, witness_without_extra, excl_meeting, excl_axis)


def maximal_minors(rows: list[list], p: int) -> list:
    """The five 4x4 minors of a 4x5 integer matrix mod p, by dropped column."""
    out = []
    for drop in range(5):
        cols = [c for c in range(5) if c != drop]
        out.append(det4([[rows[r][c] for c in cols] for r in range(4)], p))
    return out


def det4(m: list[list], p: int) -> int:
    """Laplace expansion along the first row, mod p."""
    total = 0
    for j in range(4):
        sub = [[m[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        total += (-1) ** j * m[0][j] * det3(sub, p)
    return total % p


def det3(m: list[list], p: int) -> int:
    """Rule of Sarrus, mod p."""
    pos = m[0][0] * m[1][1] * m[2][2] + m[0][1] * m[1][2] * m[2][0] + m[0][2] * m[1][0] * m[2][1]
    neg = m[0][2] * m[1][1] * m[2][0] + m[0][0] * m[1][2] * m[2][1] + m[0][1] * m[1][0] * m[2][2]
    return (pos - neg) % p


def quadric_polarization(x: tuple, y: tuple) -> tuple:
    """B_S(x, y) = Q_S(x + y) - Q_S(x) - Q_S(y), computed directly."""

    def term(u, v, i, j, k, l):
        return u[PAIR_INDEX[(i, j)]] * v[PAIR_INDEX[(k, l)]]

    return tuple(2 * sum(term(u, w, a, b, c, d) - term(u, w, a, c, b, d) + term(u, w, a, d, b, c)
                         for u, w in ((x, y), (y, x)))
                 for a, b, c, d in QUAD_SETS)


# -- plane sections ----------------------------------------------------------

def plucker_quadric_values(x) -> list:
    """The quadrics 2 (x_ab x_cd - x_ac x_bd + x_ad x_bc) over the 4-subsets
    {a < b < c < d} of {1..5}, on coordinates x_ij (i < j) in lexicographic
    order.  The entries only need to multiply: ints, Fractions or sympy terms.
    """
    x = dict(zip(itertools.combinations(range(1, 6), 2), x))
    return [2 * (x[a, b] * x[c, d] - x[a, c] * x[b, d] + x[a, d] * x[b, c])
            for a, b, c, d in itertools.combinations(range(1, 6), 4)]


def finite_plane_section(basis, p: int):
    """(lines, isolated points, full_plane) of the plane over F_p spanned by
    the three integer rows of ``basis``, exhaustively.

    Every point u b0 + v b1 + w b2 of the plane is tested on the Plücker
    quadrics; a line of the coordinate plane is a component when all its
    points lie in the locus, and the isolated points are the locus points on
    no such line.  Lines are canonical covectors and points canonical plane
    coordinates [u:v:w], mod p.
    """
    all_pts = list(projective_points(p, 3))

    def point(c):
        return [sum(a * x for a, x in zip(c, col)) for col in zip(*basis)]

    locus = {c for c in all_pts if not any(q % p for q in plucker_quadric_values(point(c)))}

    def on(point, cov):
        return sum(a * b for a, b in zip(cov, point)) % p == 0

    if len(locus) == len(all_pts):
        return [], [], True
    lines = [cov for cov in all_pts if all(q in locus for q in all_pts if on(q, cov))]
    points = sorted(q for q in locus if not any(on(q, cov) for cov in lines))
    return lines, points, False


def enumerated_span_section(points3: list[tuple], q: int) -> set:
    """The Segre points, canonical mod q, on the plane spanned by three points.

    The combinations c0 P0 + c1 P1 + c2 P2 over the points [c0:c1:c2] of the
    coordinate plane meet every point of the span once; one of them is zero
    exactly when the three points are dependent.  A point is on the Segre
    variety when the three 2x2 minors of [[z0, z1, z2], [z3, z4, z5]] vanish.
    """
    P0, P1, P2 = points3
    section = set()
    for c0, c1, c2 in projective_points(q, 3):
        z = [(c0 * x + c1 * y + c2 * w) % q for x, y, w in zip(P0, P1, P2)]
        if not any(z):
            raise ValueError("span is not a plane")
        if not ((z[0] * z[4] - z[1] * z[3]) % q or (z[0] * z[5] - z[2] * z[3]) % q
                or (z[1] * z[5] - z[2] * z[4]) % q):
            section.add(canonical_mod(z, q))
    return section


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


def _breadth_first(seed: tuple, step) -> set:
    """Every configuration reached from seed; step(c) lists the images of c."""
    orbit, layer = {seed}, {seed}
    while layer:
        layer = {d for c in layer for d in step(c)} - orbit
        orbit |= layer
    return orbit


def configuration_orbits(q: int, gens2: list, gens3: list) -> tuple[tuple, tuple]:
    """((valid, orbit) of (a), (valid, orbit) of (b)) for the Segre fitting check.

    The (a) configurations are the (y, a, b) with b != y: the (1,0)-line
    P^1 x {y} and the point (a, b).  The (b) configurations are the
    (x, L, a, b) with a != x and b off L: the (0,1)-line {x} x L and the point
    (a, b).  Each orbit is that of the least configuration under the moves
    (g2, 1) and (1, g3) for (g2, g2^-1) in gens2 and (g3, g3^-1) in gens3.
    Whole configurations are searched breadth first, each move padded with the
    identity on the factor it fixes, instead of one factor at a time.
    """
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    valid_a = {(y, a, b) for y in p2 for a in p1 for b in p2 if b != y}
    valid_b = {(x, L, a, b) for x in p1 for L in p2 for a in p1 for b in p2
               if a != x and sum(c * v for c, v in zip(L, b)) % q}
    id2 = ((1, 0), (0, 1))
    id3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    moves = [_move_tables(g, id3, id3, p1, p2, q) for g, _ in gens2] + [
        _move_tables(id2, g, g_inv, p1, p2, q) for g, g_inv in gens3]
    orbit_a = _breadth_first(min(valid_a), lambda c: [
        (on2[c[0]], on1[c[1]], on2[c[2]]) for on1, on2, _ in moves])
    orbit_b = _breadth_first(min(valid_b), lambda c: [
        (on1[c[0]], on_lines[c[1]], on1[c[2]], on2[c[3]]) for on1, on2, on_lines in moves])
    return (valid_a, orbit_a), (valid_b, orbit_b)


@functools.lru_cache(maxsize=None)
def looped_sections(q: int) -> tuple:
    """(a count, a failure rows, b count, b failure rows): the section of every
    configuration of (a) and (b), cut by ``SegreLine.section_with`` in two
    loops over every configuration, as the fitting report first walked them.

    (a) fails a configuration whose section misses the joining (0,1)-curve
    or is exactly the line and the point; (b) one whose section is not.
    """
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    on_line = {L: [m for m in p2 if sum(c * v for c, v in zip(L, m)) % q == 0] for L in p2}
    img = {(a, b): segre_point(a, b, q) for a in p1 for b in p2}

    def join(y, b):
        cov = (y[1] * b[2] - y[2] * b[1], y[2] * b[0] - y[0] * b[2], y[0] * b[1] - y[1] * b[0])
        return on_line[canonical_mod(cov, q)]

    a_rows, a_configs = [], 0
    for y in p2:
        line_pts = {img[x, y] for x in p1}
        line = SegreLine(img[p1[0], y], img[p1[1], y], q)
        for a, b in itertools.product(p1, p2):
            if b == y:
                continue
            a_configs += 1
            pt = img[a, b]
            section = line.section_with(pt)
            if not all(img[a, m] in section for m in join(y, b)):
                a_rows.append({"check": "a-witness", "y": y, "point": (a, b)})
            if section == line_pts | {pt}:
                a_rows.append({"check": "a-exact-section", "y": y, "point": (a, b)})
    b_rows, b_configs = [], 0
    for x in p1:
        for L, Lpts in on_line.items():
            line_img = {img[x, m] for m in Lpts}
            line = SegreLine(img[x, Lpts[0]], img[x, Lpts[1]], q)
            for a, b in itertools.product(p1, p2):
                if a == x or b in Lpts:
                    continue
                b_configs += 1
                pt = img[a, b]
                if line.section_with(pt) != line_img | {pt}:
                    b_rows.append({"check": "b-section", "x": x, "L": L, "point": (a, b)})
    return a_configs, tuple(a_rows), b_configs, tuple(b_rows)


def looped_fitting_report(q: int, gens2: list, gens3: list) -> CheckReport:
    """The Segre fitting report from ``looped_sections`` and ``configuration_orbits``:
    every section of (a) and (b) cut, and both orbits searched as whole
    configurations, instead of one section per orbit and one factor at a time.

    It acts on the two factors directly, so it has no rows for generators
    that act wrongly on the ambient space.  Its counts are orbit sizes, as
    the report's are, and it checks that the loops walked each whole set.
    """
    p1 = list(projective_points(q, 2))
    p2 = list(projective_points(q, 3))
    (valid_a, orbit_a), (valid_b, orbit_b) = configuration_orbits(q, gens2, gens3)
    a_configs, a_rows, b_configs, b_rows = looped_sections(q)
    assert (a_configs, b_configs) == (len(valid_a), len(valid_b))
    failures = []
    points = len({segre_point(a, b, q) for a in p1 for b in p2})
    if points != (q + 1) * (q * q + q + 1):
        failures.append({"check": "point-count", "got": points,
                         "expected": (q + 1) * (q * q + q + 1)})
    failures += [dict(row) for row in a_rows]
    if orbit_a != valid_a:
        failures.append({"check": "a-orbit", "orbit_size": len(orbit_a),
                         "configs": len(valid_a)})
    failures += [dict(row) for row in b_rows]
    if orbit_b != valid_b:
        failures.append({"check": "c-orbit", "orbit_size": len(orbit_b),
                         "valid_configs": len(valid_b)})
    witnesses = [{
        "segre_points": points,
        "a_configs": len(orbit_a),
        "b_configs": len(orbit_b),
        "valid_configs": len(valid_b),
        "orbit_size": len(orbit_b),
        "single_orbit": orbit_b == valid_b,
    }]
    return CheckReport("segre.fitting", f"F{q}", "fail" if failures else "pass",
                       witnesses=witnesses + failures)


SYMBOLS = sympy.symbols("u v w")


class NonLinearFactorError(RuntimeError):
    """A restricted form has an irreducible factor of degree 2 or more."""


def _sympy_covector(values) -> tuple[int, ...]:
    return fraction_primitive_covector([Fraction(str(c)) for c in values])


def sympy_linear_factors(poly: sympy.Poly) -> list[tuple[int, int, int]]:
    """Linear factors of a homogeneous polynomial with multiplicity, as
    primitive covectors; an irreducible factor of degree >= 2 raises."""
    out = []
    for p, mult in _factor_list(poly.as_expr()):
        if p.total_degree() == 1:
            out += [_sympy_covector(p.coeff_monomial(s) for s in SYMBOLS)] * mult
        elif p.total_degree() >= 2:
            raise NonLinearFactorError(
                f"irreducible factor of degree {p.total_degree()}: {p.as_expr()}")
    return out


@functools.lru_cache(maxsize=None)
def _factor_list(expr) -> tuple:
    """sympy's irreducible factors of expr as Polys, with multiplicity.

    Memoized by the polynomial: the section oracle meets most restricted
    forms more than once (997 distinct ones in 3 139 calls on its 1 000
    seeded planes).
    """
    return tuple((sympy.Poly(fac, *SYMBOLS), mult)
                 for fac, mult in sympy.factor_list(expr, *SYMBOLS)[1])


def _sympy_linear_locus(covectors):
    """("line", covector), ("point", coords) or ("empty", None), by rank."""
    m = sympy.Matrix(covectors)
    rank = m.rank()
    if rank == 1:
        return "line", _sympy_covector(next(r for r in m.tolist() if any(r)))
    if rank == 2:
        return "point", _sympy_covector(m.nullspace()[0])
    return "empty", None


def sympy_section_locus(basis, quadrics=plucker_quadric_values):
    """(lines, isolated points, full_plane) of a rational plane section.

    ``basis`` holds three rows b0, b1, b2 of Fractions spanning the plane.  The
    point u b0 + v b1 + w b2 of the plane is substituted into the
    quadrics (the Plücker quadrics by default) with sympy.  The gcd g of the
    nonzero restricted forms gives the common lines; when g is linear the
    residues of the forms by g cut out the rest, and when g is constant the
    line components of every form are intersected.
    """
    u, v, w = SYMBOLS
    point = [u * sympy.Rational(a.numerator, a.denominator)
             + v * sympy.Rational(b.numerator, b.denominator)
             + w * sympy.Rational(c.numerator, c.denominator)
             for a, b, c in zip(*basis)]
    polys = [sympy.Poly(q, *SYMBOLS, domain="QQ") for q in quadrics(point)]
    nonzero = [p for p in polys if not p.is_zero]
    lines, points = [], []
    if not nonzero:
        return [], [], True
    g = nonzero[0]
    for p in nonzero[1:]:
        g = sympy.gcd(g, p)
    g = sympy.Poly(g, *SYMBOLS)
    if g.total_degree() == 0:
        all_factors = [sympy_linear_factors(p) for p in nonzero]
        for choice in itertools.product(*all_factors):
            kind, payload = _sympy_linear_locus(list(choice))
            if kind == "line":
                lines.append(payload)
            elif kind == "point" and payload not in points:
                points.append(payload)
    else:
        lines += sympy_linear_factors(g)
        if g.total_degree() == 1:
            residues = [sympy.Poly(sympy.div(p.as_expr(), g.as_expr(), *SYMBOLS)[0],
                                   *SYMBOLS) for p in nonzero]
            covs = [sympy_linear_factors(r)[0] for r in residues]
            kind, payload = _sympy_linear_locus(covs)
            if kind == "line":
                lines.append(payload)
            elif kind == "point":
                points.append(payload)
    lines = sorted(set(lines))
    points = [pt for pt in points
              if not any(sum(a * b for a, b in zip(c, pt)) == 0 for c in lines)]
    return lines, points, False


# -- the rational Plücker lab ---------------------------------------------------

def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    nrows, pivots = len(mat), []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def kernel_basis(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix, one vector per free column."""
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in zip(red, pivots):
            vec[c] = -r[f]
        basis.append(vec)
    return basis


def fraction_primitive_covector(fracs) -> tuple[int, ...]:
    """Clear denominators and common factors from a rational covector."""
    fracs = [Fraction(f) for f in fracs]
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // math.gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fracs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g == 0:
        raise ValueError("zero covector")
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def fraction_plane_spanned_by(x) -> tuple[tuple, tuple]:
    """The reduced row echelon basis of the 2-plane of a decomposable bivector."""
    if not grassmannian_membership(x):
        raise ValueError("bivector is not decomposable")
    red, _ = rref(alternating_matrix(x))
    if len(red) != 2:
        raise ValueError("decomposable bivector of unexpected rank")
    return tuple(red[0]), tuple(red[1])


def fraction_ell_plane(b: tuple) -> list[list]:
    """The reduced row echelon basis (e1^e2, e1^e3, c) of span(b, ell), with
    c = b without its x12 and x13 entries over its first nonzero entry."""
    rest = (0, 0) + tuple(b[2:])
    lead = next((x for x in rest if x), None)
    if lead is None:
        raise ValueError("plane must have projective dimension exactly 2")
    return [list(g) for g in ell_generators()] + [[Fraction(x) / lead for x in rest]]


def fraction_plane_section(b: tuple, primes: tuple[int, ...] = (5, 7)) -> SectionDescription:
    """``plane_section`` on the Fraction basis of ``fraction_ell_plane``: the
    forms L_S of c are row reduced over the rationals, their kernel taken by
    free columns, and each reported line tested at two kernel vectors and
    their sum; the mod-p certification is ``_certify`` on primitive rows."""
    basis = fraction_ell_plane(b)
    c = basis[2]
    forms, _ = rref([(2 * a, 2 * s, q) for (a, s), q
                     in zip(ell_rows(c), plucker_quadrics(c))])
    full_plane = not forms
    lines = set() if full_plane else {(0, 0, 1)}
    points = []
    if len(forms) == 1:
        lines.add(fraction_primitive_covector(forms[0]))
    elif len(forms) == 2:
        points = [pt for pt in kernel_basis(forms, 3) if pt[2]]
    lines = tuple(sorted(lines))
    isolated = tuple(fraction_primitive_covector(_combination(pt, basis)) for pt in points)
    plane_coords = tuple(fraction_primitive_covector(pt) for pt in points)
    for cov in lines:
        k0, k1 = kernel_basis([cov], 3)
        for coeffs in (k0, k1, [a + b for a, b in zip(k0, k1)]):
            if not grassmannian_membership(_combination(coeffs, basis)):
                raise AssertionError(f"reported line {cov} leaves the variety")
    for pt in isolated:
        if not grassmannian_membership(pt):
            raise AssertionError(f"reported point {pt} is off the variety")
        if len(rref([*basis, pt])[0]) != 3:
            raise AssertionError(f"reported point {pt} is off the plane")
    for p in primes:
        require_odd_prime(p)
        _certify([fraction_primitive_covector(row) for row in basis], lines, plane_coords,
                 full_plane, p)
    return SectionDescription(lines, isolated, plane_coords,
                              ("QQ",) + tuple(f"F{p}" for p in primes), full_plane)


def fraction_collinearity_scan(b: tuple) -> "CollinearityWitness | None":
    """``collinearity_scan`` on the Fraction basis u, v of W_b: [t:s] from
    the rows ``ell_rows(u ^ v)``, and the common vector from the first kernel
    vector of the stacked columns u, v, e1, t e2 + s e3; its entries are
    Fractions and ints, not strings."""
    u, v = fraction_plane_spanned_by(b)
    nz = [(a, c) for a, c in ell_rows(wedge(u, v)) if a or c]
    if not nz:
        param, (t, s) = "all", (1, 0)
    else:
        a, c = nz[0]
        if any(a * c2 - c * a2 for a2, c2 in nz[1:]):
            return None
        param = (t, s) = (-c, a)
    cols = [u, v, (1, 0, 0, 0, 0), (0, t, s, 0, 0)]
    ker = kernel_basis([[col[r] for col in cols] for r in range(5)], 4)
    if not ker:
        raise AssertionError("witness parameter without a common vector")
    a0, b0 = ker[0][0], ker[0][1]
    return CollinearityWitness(param, tuple(a0 * x + b0 * y for x, y in zip(u, v)))


_BIVECTOR_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+)?\s*e(?P<i>[1-5])\s*\^\s*e(?P<j>[1-5])"
)


def regex_parse_bivector(text: str) -> tuple:
    """``parse_bivector`` with its terms matched by a regular expression."""
    coords = [0] * 10
    pos = 0
    seen = False
    while pos < len(text):
        m = _BIVECTOR_TERM_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse bivector literal at {text[pos:]!r}")
            break
        if seen and not m.group("sign"):
            raise ValueError(f"bivector literal needs + or - before {text[pos:].strip()!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = int(m.group("coef") or 1) * sign
        i, j = int(m.group("i")), int(m.group("j"))
        if i == j:
            raise ValueError("e_i ^ e_i is zero")
        if i > j:
            i, j = j, i
            coef = -coef
        coords[PAIR_INDEX[(i, j)]] += coef
        seen = True
        pos = m.end()
    if not seen:
        raise ValueError(f"empty bivector literal {text!r}")
    if not any(coords):
        raise ValueError(f"bivector literal {text!r} is zero")
    return tuple(coords)


# -- the property suite's replaced paths ---------------------------------------

class RootKeyedChevalleyTable:
    """Structure constants by the on-demand recursion keyed by root tuples.

    The same extraspecial-pair recursion as ``ChevalleyTable``, but its memos
    are keyed by root pairs, sums and differences are tuple arithmetic, root
    membership is a set lookup, and the basis bracket reads each constant
    through the checked ``constant``.  The positive pair memo is the only
    one; mixed constants are recomputed on every request.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._sorted_positives = sorted(rs.positive_roots)
        self._pos: dict[tuple[Vec, Vec], int] = {}
        self._extra: dict[Vec, tuple[Vec, Vec]] = {}

    def _p(self, a: Vec, b: Vec) -> int:
        p = 0
        while self.rs.is_root(minus(b, times(p + 1, a))):
            p += 1
        return p

    def _extraspecial(self, rho: Vec) -> tuple[Vec, Vec]:
        extra = self._extra.get(rho)
        if extra is None:
            pos = self.rs.positive_roots
            alpha = next((a for a in self._sorted_positives if minus(rho, a) in pos), None)
            if alpha is None:
                raise AssertionError(f"no decomposition of {rho} into positives")
            extra = self._extra[rho] = (alpha, minus(rho, alpha))
        return extra

    def _positive(self, xi: Vec, eta: Vec) -> int:
        key = (xi, eta)
        n = self._pos.get(key)
        if n is None:
            if eta < xi:
                n = -self._positive(eta, xi)
            else:
                extra = self._extraspecial(plus(xi, eta))
                if key == extra:
                    n = self._p(xi, eta) + 1
                else:
                    n = self._special_from_jacobi(xi, eta, extra)
            self._pos[key] = n
        return n

    def _special_from_jacobi(self, xi: Vec, eta: Vec, extra: tuple[Vec, Vec]) -> int:
        alpha, _ = extra
        rho = plus(xi, eta)
        t = 0
        if self.rs.is_root(minus(eta, alpha)):
            t += self._mixed(eta, neg(alpha)) * self._signed_pair(minus(eta, alpha), xi)
        if self.rs.is_root(minus(xi, alpha)):
            t += -self._mixed(xi, neg(alpha)) * self._signed_pair(minus(xi, alpha), eta)
        value, rem = divmod(-t, self._mixed(rho, neg(alpha)))
        if rem or value == 0:
            raise AssertionError(f"Jacobi reduction failed on ({xi}, {eta})")
        return value

    def _signed_pair(self, a: Vec, b: Vec) -> int:
        apos, bpos = a in self.rs.positive_roots, b in self.rs.positive_roots
        if apos and bpos:
            return self._positive(a, b)
        if not apos and not bpos:
            return -self._positive(neg(a), neg(b))
        if apos:
            return self._mixed(a, b)
        return -self._mixed(b, a)

    def _mixed(self, mu: Vec, negnu: Vec) -> int:
        nu = neg(negnu)
        rho = minus(mu, nu)
        def norm(r: Vec) -> int:
            return self.rs.inner(r, r)
        if rho in self.rs.positive_roots:
            value, rem = divmod(-norm(rho) * self._positive(nu, rho), norm(mu))
        else:
            value, rem = divmod(norm(neg(rho)) * self._positive(neg(rho), mu), norm(nu))
        if rem:
            raise AssertionError(f"non-integral mixed constant for ({mu}, {negnu})")
        return value

    def constant(self, a: Vec, b: Vec) -> int:
        is_root = self.rs.is_root
        if not is_root(plus(a, b)):
            raise ValueError(f"{a} + {b} is not a root")
        if not (is_root(a) and is_root(b)):
            raise ValueError(f"{a} or {b} is not a root")
        return self._signed_pair(a, b)

    def coroot_coefficients(self, alpha: Vec) -> tuple[int, ...]:
        norm = self.rs.inner(alpha, alpha)
        form = self.rs.form
        out = []
        for i, k in enumerate(alpha):
            c, rem = divmod(k * form[i][i], norm)
            if rem:
                raise AssertionError(f"non-integral coroot for {alpha}")
            out.append(c)
        return tuple(out)

    @functools.cached_property
    def basis_roots(self) -> tuple[Vec, ...]:
        return tuple(self._sorted_positives) + tuple(map(neg, self._sorted_positives))

    @functools.cached_property
    def _basis_index(self) -> dict[Vec, int]:
        return {r: k for k, r in enumerate(self.basis_roots)}

    def basis_bracket(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        roots = self.basis_roots
        m = len(roots)
        if i >= m:
            c = 0 if j >= m else self.rs.pairing_simple(roots[j], i - m)
            return ((j, c),) if c else ()
        a = roots[i]
        if j >= m:
            c = self.rs.pairing_simple(a, j - m)
            return ((i, -c),) if c else ()
        b = roots[j]
        s = plus(a, b)
        k = self._basis_index.get(s)
        if k is not None:
            return ((k, self.constant(a, b)),)
        if not any(s):
            return tuple((m + t, c) for t, c in enumerate(self.coroot_coefficients(a)) if c)
        return ()


def scaled_simple_reflect(rs: RootSystem, i: int, beta: Vec) -> Vec:
    """s_i(beta) = beta - <beta, alpha_i> alpha_i, through the scaled simple root."""
    return minus(beta, times(rs.pairing_simple(beta, i), unit(i, rs.diagram.rank)))


def three_reflection_fails(rs: RootSystem, r: Vec, i: int) -> bool:
    """The reflection check on (r, i) with three reflections, as first written."""
    return (scaled_simple_reflect(rs, i, scaled_simple_reflect(rs, i, r)) != r
            or not rs.is_root(scaled_simple_reflect(rs, i, r)))


def coord_plucker_quadrics(omega) -> tuple:
    """The five coordinates of omega ^ omega, each x_ij looked up by its pair."""
    def x(i, j):
        return omega[PAIR_INDEX[(i, j)]]
    return tuple(2 * (x(a, b) * x(c, d) - x(a, c) * x(b, d) + x(a, d) * x(b, c))
                 for a, b, c, d in QUAD_SETS)


def unfiltered_jacobi_failures(table: ChevalleyTable, triples) -> int:
    """How many basis index triples have a nonzero Jacobiator, each triple
    evaluated in full: the counter as it was before its weight filter."""
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


def jacobiator_terms(table: ChevalleyTable, x: int, y: int, z: int) -> list:
    """Every (basis index, coefficient) term of the three cyclic double
    brackets of the triple, before any of them are summed."""
    return [(t, ck * ct)
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y))
            for k, ck in table.basis_bracket(a, b)
            for t, ct in table.basis_bracket(k, c)]


def generator_jacobi_triples(seed: int, literal: str, dimension: int) -> list:
    """The property suite's Jacobi triples, drawn in the generator form."""
    indices = range(dimension)
    rng = random.Random((seed, literal).__repr__())
    return list(tuple(rng.choice(indices) for _ in range(3)) for _ in range(1000))


def decomposability_bivectors(seed: int, field_name: str) -> list:
    """The property suite's 500 bivectors for one field name."""
    rng = random.Random((seed, field_name).__repr__())
    return [tuple(rng.randrange(-4, 5) for _ in range(10)) for _ in range(500)]
