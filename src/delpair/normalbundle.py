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
from .rootsys import packing

PROXY_NOTE = ("irreducibility certified only at the level of Levi-root "
              "connectivity of the weight set")


def normal_weights(pair: DeletionPair) -> frozenset[tuple[int, ...]]:
    """Ambient noncompact roots minus the Phi-image of the sub ones."""
    return hss.noncompact_positive_roots(pair.ambient) - pair.correspondence.noncompact_image


class NormalDecomposition(Frozen, fields=("normal_weights", "components",
                                          "singleton_component", "highest_weights")):
    """The normal weights, their Levi components as frozensets of weights,
    the weight of the one singleton component (or None), and the highest
    weight of each component, in the order of ``components``."""


def levi_components(pair: DeletionPair) -> NormalDecomposition:
    """Partition the normal weights into Levi-action graph components.

    The search runs on packed roots, each key mapping back to its weight.
    The weights are ambient roots, and the steps are Phi images, which
    ``root_correspondence`` checked to be ambient roots, so w +- s is the
    packing of that sum or difference.
    """
    corr = pair.correspondence
    weights = normal_weights(pair)
    pk = packing(pair.ambient.diagram.rank)
    root_of = {pk.pack(w): w for w in weights}
    moves = [pk.step(image) for label, image in corr.on_simple if label != pair.gamma0]
    remaining = set(root_of)
    blocks: list[set[int]] = []
    while remaining:
        seed = min(remaining)
        block = {seed}
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            for s in moves:
                for cand in (w + s, w - s):
                    if cand in remaining and cand not in block:
                        block.add(cand)
                        frontier.append(cand)
        remaining -= block
        blocks.append(block)
    blocks.sort(key=lambda c: (len(c), min(c)))
    highest = []
    for block in blocks:
        maximal = [root_of[w] for w in block if all(w + s not in block for s in moves)]
        highest.append(max(maximal, key=lambda r: (sum(r), r)))
    components = tuple(frozenset(map(root_of.__getitem__, block)) for block in blocks)
    singletons = [next(iter(c)) for c in components if len(c) == 1]
    singleton = singletons[0] if len(singletons) == 1 else None
    return NormalDecomposition(weights, components, singleton, tuple(highest))


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
