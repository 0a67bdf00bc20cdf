"""Deletion-type admissible pairs: catalog, root correspondence, maximality.

A deletion pair is the ambient marked diagram (mark gamma) and a node gamma0.
It derives the marked sub-diagram obtained by deleting the chain from gamma
up to (but excluding) gamma0, and the chain-sum root Gamma (the path nodes,
gamma excluded, gamma0 included).  The root correspondence sends gamma0 to
gamma, fixes simple roots away from gamma0 and adds Gamma to the neighbors
of gamma0; it extends additively to all noncompact positive roots of the
sub-diagram.
"""
from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from itertools import compress

from . import hss
from .frozen import Frozen
from .rootsys import (
    MarkedDiagram,
    RootSystem,
    add,
    delete_chain,
    parse_marked,
    space_name,
)


class CorrespondenceError(ValueError):
    """Raised when a root-correspondence invariant fails, naming the culprit."""


class DeletionPair(Frozen, fields=("ambient", "gamma0")):
    """An admissible pair of deletion type: the ambient and the node gamma0.

    The chain (gamma .. gamma0) and the sub-diagram are derived at
    construction, so a gamma0 that admits no chain deletion raises
    ``ChainError`` here.  Equality and hashing see only (ambient, gamma0),
    which determine the rest.
    """

    def __init__(self, ambient: MarkedDiagram, gamma0: str) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "gamma0", gamma0)
        chain, sub = delete_chain(ambient, gamma0)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "sub", sub)

    @property
    def gamma(self) -> str:
        return self.chain[0]

    @cached_property
    def big_gamma(self) -> tuple[int, ...]:
        """Sum of the chain's simple roots, gamma excluded, gamma0 included.

        In simple-root coordinates this is the indicator vector of chain[1:].
        """
        summed = set(self.chain[1:])
        return tuple(int(label in summed) for label in self.ambient.diagram.nodes)

    @cached_property
    def correspondence(self) -> RootCorrespondence:
        """Phi, built and verified once per pair object."""
        return root_correspondence(self)

    @cached_property
    def pair_id(self) -> str:
        return f"{self.ambient.diagram.literal()}:{self.gamma}/{self.gamma0}"

    @property
    def name(self) -> str:
        return f"({space_name(self.sub)} in {space_name(self.ambient)})"

    def ambient_rs(self) -> RootSystem:
        return self.ambient.root_system()

    def sub_rs(self) -> RootSystem:
        return self.sub.root_system()


def catalog_specs(max_rank: int) -> list[tuple[str, str]]:
    """(marked ambient literal, gamma0) of every catalog pair, in catalog order.

    Families: B_n (gamma=a1, gamma0=a_m, 2 <= m <= n-1), D_n spinor
    (gamma=a_n, gamma0=a_{n-2}), D_n quadric (gamma=a1, gamma0=a_m,
    2 <= m <= n-2), E6 (gamma0 in {a4, a5}) and E7 (gamma0 in {a4, a5, a6}).
    The pair id of a spec is ``f"{ambient}/{gamma0}"``.
    """
    if max_rank < 4:
        raise ValueError("max_rank must be at least 4")
    out: list[tuple[str, str]] = []
    for n in range(3, max_rank + 1):
        for m in range(2, n):
            out.append((f"B{n}:a1", f"a{m}"))
    for n in range(4, max_rank + 1):
        out.append((f"D{n}:a{n}", f"a{n - 2}"))
        for m in range(2, n - 1):
            out.append((f"D{n}:a1", f"a{m}"))
    if max_rank >= 6:
        out.extend(("E6:a6", g0) for g0 in ("a4", "a5"))
    if max_rank >= 7:
        out.extend(("E7:a7", g0) for g0 in ("a4", "a5", "a6"))
    return out


# The one memo of deletion pairs, by (ambient, gamma0): the catalog's pairs are
# the steps that maximality tries, so each derives its chain and Phi once.
_step = lru_cache(maxsize=None)(DeletionPair)


def catalog(max_rank: int) -> list[DeletionPair]:
    """All instantiations of the deletion-type families with rank <= max_rank."""
    specs = catalog_specs(max_rank)
    ambients = {literal: parse_marked(literal) for literal in {lit for lit, _ in specs}}
    return [_step(ambients[literal], gamma0) for literal, gamma0 in specs]


class RootCorrespondence(Frozen, fields=("pair", "on_simple")):
    """The embedding Phi of the sub root data into the ambient system.

    ``on_simple`` pairs each sub node label with its ambient root.
    """

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Phi by sparse columns, one per sub node in the sub diagram's order.

        Column j lists (ambient index, coefficient) for the nonzero entries of
        Phi of the j-th simple root: one entry, or the chain's entries for a
        neighbor of gamma0, which gains Gamma.
        """
        images = dict(self.on_simple)
        return tuple(tuple(compress(enumerate(images[label]), images[label]))
                     for label in self.pair.sub.diagram.nodes)

    @cached_property
    def _placement(self):
        """Phi as one ``itemgetter`` on a sub root extended by 0 and the sums on
        the chain's nodes, which the neighbors of gamma0 reach through Gamma:
        row a of Phi reads one coefficient, the 0, or an appended sum."""
        images, m = dict(self.on_simple), len(self.pair.sub.diagram.nodes)
        slot_of = {(0,) * m: m}
        slots = [row.index(1) if row.count(0) == m - 1 and 1 in row
                 else slot_of.setdefault(row, m + len(slot_of))
                 for row in zip(*map(images.__getitem__, self.pair.sub.diagram.nodes))]
        return operator.itemgetter(*slots), tuple(slot_of)[1:]   # a pair's ambient has rank >= 2

    def apply(self, beta: tuple[int, ...]) -> tuple[int, ...]:
        """Phi on any sub-coordinate root: the sum of c_j Phi(alpha_j)."""
        place, sums = self._placement
        return place(beta + (0,) + tuple(sum(map(operator.mul, row, beta)) for row in sums))

    @cached_property
    def on_noncompact(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Phi of each noncompact positive root of the sub-diagram."""
        return {b: self.apply(b) for b in hss.noncompact_positive_roots(self.pair.sub)}

    @cached_property
    def noncompact_image(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.on_noncompact.values())


def _phi_gram(form: tuple[tuple[int, ...], ...], columns: tuple) -> list[list[int]]:
    """B(Phi a_i, Phi a_j) in O(n^2): row i reads B Phi(a_i) at each unit column's
    entry; the few other columns (the neighbors of gamma0) are summed in their
    own rows and copied into the rest, as B is symmetric.  ``inner`` is the oracle."""
    heads = [column[0][0] for column in columns]
    wide = [j for j, column in enumerate(columns) if column != ((heads[j], 1),)]
    gram = []
    for i, (head, column) in enumerate(zip(heads, columns)):
        if i not in wide:
            gram.append(list(map(form[head].__getitem__, heads)))
            continue
        row = list(map(sum, zip(*[[c * b for b in form[a]] for a, c in column])))   # B Phi(a_i)
        gram.append([sum(c * row[a] for a, c in other) for other in columns])
    for j in wide:
        for entries, value in zip(gram, gram[j]):
            entries[j] = value
    return gram


def root_correspondence(pair: DeletionPair) -> RootCorrespondence:
    """Build Phi and verify the three embedding invariants exactly."""
    ars = pair.ambient_rs()
    sub_diag = pair.sub.diagram
    neighbors0 = set(sub_diag.neighbors(pair.gamma0))
    gamma_root = ars.simple_root(pair.gamma)

    table: dict[str, tuple[int, ...]] = {}
    for label in sub_diag.nodes:
        if label == pair.gamma0:
            table[label] = gamma_root
        elif label in neighbors0:
            table[label] = add(ars.simple_root(label), pair.big_gamma)
        else:
            table[label] = ars.simple_root(label)
    corr = RootCorrespondence(pair, tuple(sorted(table.items())))

    for label, image in table.items():
        if not ars.is_root(image):
            raise CorrespondenceError(f"Phi({label}) = {image} is not an ambient root")
    # <Phi a_i, Phi a_j> = C_ji, read as 2 B(Phi a_i, Phi a_j) = C_ji B(Phi a_j, Phi a_j):
    # the same claim, as Phi a_j is a root and so B(Phi a_j, Phi a_j) > 0
    gram = _phi_gram(ars.form, corr._columns)
    norms, nodes = [row[j] for j, row in enumerate(gram)], sub_diag.nodes
    for la, row, column in zip(nodes, gram, zip(*sub_diag.cartan_matrix)):
        wants = list(map(operator.mul, column, norms))     # column[j] = <alpha_i, alpha_j>
        if list(map((2).__mul__, row)) != wants:
            j = next(j for j, (b, want) in enumerate(zip(row, wants)) if 2 * b != want)
            raise CorrespondenceError(
                f"pairing mismatch at ({la}, {nodes[j]}): 2B(Phi {la}, Phi {nodes[j]}) = "
                f"{2 * row[j]}, expected {column[j]} B(Phi {nodes[j]}, Phi {nodes[j]}) = {wants[j]}"
            )
    nc0 = hss.noncompact_positive_roots(pair.sub)
    nc = hss.noncompact_positive_roots(pair.ambient)
    if len(corr.noncompact_image) != len(nc0):
        raise CorrespondenceError("Phi is not injective on noncompact roots")
    stray = sorted(corr.noncompact_image - nc)
    if stray:
        raise CorrespondenceError(f"Phi image leaves the noncompact cone: {stray[:3]}")
    return corr


class MaximalityVerdict(Frozen, fields=("maximal", "witnesses")):
    """Whether a pair is maximal, and the first steps (X1 in X) of its
    decompositions, a tuple of deletion pairs."""

    def witness_ids(self) -> tuple[str, ...]:
        return tuple(w.pair_id for w in self.witnesses)


def is_maximal(pair: DeletionPair) -> MaximalityVerdict:
    """The first steps X1 in X of every decomposition X0 in X1 in X.

    X1 = delete(X, g1) is such a step exactly when g1 lies strictly inside
    the chain and X1 is connected.  Off the chain, the tree path from g1 to
    gamma0 runs through a deleted node (the branch point, or gamma0 itself),
    so gamma0 is gone or lies in another component than g1; g1 = gamma0
    gives X1 = X0.  On the chain, deleting from g1 on removes the rest of the
    chain, so the two steps together remove the chain minus gamma0.  The
    exhaustive search over every node stays as a test oracle.
    """
    steps = (_step(pair.ambient, g1) for g1 in pair.chain[1:-1])
    witnesses = sorted((step for step in steps if len(step.sub.diagram.components) == 1),
                       key=lambda p: p.gamma0)     # pair-id order: one ambient and gamma
    return MaximalityVerdict(not witnesses, tuple(witnesses))
