"""Weight-level decomposition of the normal module of a deletion pair.

The normal weights are the ambient noncompact positive roots outside the
Phi-image of the sub noncompact roots.  Two weights are joined when they
differ by the Phi-image of a compact simple root of the sub-diagram; the
connected components of that graph proxy the decomposition into irreducible
homogeneous summands.  Connectivity is a necessary condition for
irreducibility and, for these multiplicity-free modules, the decisive
computable proxy; reports state this limitation.

The graph search runs on roots packed by ``rootsys.packing``, which packs
each root tuple directly: a weight moves by a step as one int addition, and
packed weights order as their roots do.
"""
from __future__ import annotations

from . import hss
from .frozen import Frozen
from .pairs import DeletionPair
from .report import FAIL, INDETERMINATE, PASS, CheckReport
from .rootsys import packed_roots, packing

PROXY_NOTE = ("irreducibility certified only at the level of Levi-root "
              "connectivity of the weight set")


def normal_weights(pair: DeletionPair) -> frozenset[tuple[int, ...]]:
    """Ambient noncompact roots minus the Phi-image of the sub ones."""
    return hss.noncompact_positive_roots(pair.ambient) - pair.correspondence.noncompact_image


class NormalDecomposition(Frozen, fields=("components", "highest_weights")):
    """The Levi components of the normal weights as frozensets of weights, and
    the highest weight of each component, in the order of ``components``."""


def levi_components(pair: DeletionPair) -> NormalDecomposition:
    """Partition the normal weights into Levi-action graph components.

    The search runs on packed roots, each key mapping back to its weight.
    The weights are ambient roots, and the steps are Phi images, which
    ``root_correspondence`` checked to be ambient roots, so w +- s is the
    packing of that sum or difference.
    """
    corr = pair.correspondence
    known = packed_roots(hss.noncompact_positive_roots(pair.ambient))   # once per shape
    pk = packing(pair.ambient.diagram.rank)
    root_of = {known.get(w) or pk.pack(w): w for w in normal_weights(pair)}    # no packing is 0
    moves = [pk.step(image) for label, image in corr.on_simple if label != pair.gamma0]
    # the edges v -- v + s between weights, found by one comprehension
    edges = [(v, w) for w in root_of for s in moves if (v := w - s) in root_of]
    neighbours: dict[int, list[int]] = {}
    for v, w in edges:
        neighbours.setdefault(v, []).append(w)
        neighbours.setdefault(w, []).append(v)
    blocks, seen = [], set()
    for seed in sorted(root_of):    # each block starts at its least weight
        if seed not in seen:
            block = [seed]
            seen.add(seed)
            for w in block:         # the loop reads what it appends
                fresh = [v for v in neighbours.get(w, ()) if v not in seen]
                seen.update(fresh)
                block += fresh
            blocks.append(block)
    blocks.sort(key=len)            # stable, so equal sizes stay in least-weight order
    # w is maximal in its block when no w + s is a weight: w + s would be in it
    lower = {v for v, _ in edges}
    highest = [max((root_of[w] for w in block if w not in lower), key=lambda r: (sum(r), r))
               for block in blocks]
    components = tuple(frozenset(map(root_of.__getitem__, block)) for block in blocks)
    return NormalDecomposition(components, tuple(highest))


def summands_distinct(pair: DeletionPair) -> CheckReport:
    """Compare the two summands' highest weights and sizes.

    The geometric identification of the singleton factor with the degree-one
    line bundle is an annotation, not something re-proved here.
    """
    check_id = "normalbundle.summands_distinct"
    subject = pair.pair_id
    dec = levi_components(pair)
    sizes = [len(c) for c in dec.components]
    if len(dec.components) != 2:
        return CheckReport(
            check_id, subject, INDETERMINATE,
            witnesses=[{"component_sizes": sizes}],
            notes=f"expected 2 components, found {len(dec.components)}; {PROXY_NOTE}",
        )
    hw = [list(w) for w in dec.highest_weights]
    distinct = dec.highest_weights[0] != dec.highest_weights[1] and sizes[0] != sizes[1]
    status = PASS if distinct else FAIL
    return CheckReport(
        check_id, subject, status,
        witnesses=[{"component_sizes": sizes, "highest_weights": hw}],
        notes=PROXY_NOTE,
    )
