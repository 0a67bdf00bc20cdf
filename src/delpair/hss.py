"""Weight combinatorics of compact Hermitian symmetric spaces.

For a cominuscule marked diagram the noncompact positive roots are those with
coefficient 1 at the component's mark; their count is the dimension of the
space.  The affinized tangent space of the minimal-rational-tangent variety
at the highest root vector consists of the radial direction together with the
noncompact roots mu for which mu - gamma is again a root.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootsys import (
    DynkinDiagram,
    MarkedDiagram,
    MarkError,
    Root,
    RootSystem,
    build_root_system,
)


@dataclass(frozen=True)
class WeightSet:
    """A set of roots of a fixed root system."""

    rs: RootSystem
    weights: frozenset[Root]

    def __post_init__(self) -> None:
        for w in self.weights:
            if not self.rs.is_root(w):
                raise ValueError(f"{w} is not a root of {self.rs}")

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(sorted(self.weights))

    def __contains__(self, w: Root) -> bool:
        return w in self.weights


@dataclass(frozen=True)
class TangentWeights:
    """A weight set together with the radial flag of an affinized cone."""

    weights: WeightSet
    radial: "Root | None"

    @property
    def affine_size(self) -> int:
        return len(self.weights) + (1 if self.radial is not None else 0)


@lru_cache(maxsize=None)
def noncompact_positive_roots(md: MarkedDiagram) -> WeightSet:
    """Positive roots with coefficient 1 at the mark of their component.

    Cached per marked diagram: the result reads only the diagram and the
    marks, and marked-diagram equality compares both.
    """
    rs = md.root_system()
    marks = {}
    for comp in md.diagram.components:
        here = md.marked & set(comp.labels)
        if here:
            marks[comp] = md.diagram.index[next(iter(here))]
    out = set()
    for r in rs.positive_roots:
        for comp, mi in marks.items():
            if r.coeffs[mi] == 1 and all(
                r.coeffs[j] == 0
                for j in range(md.diagram.rank)
                if md.diagram.nodes[j] not in comp.labels
            ):
                out.add(r)
    return WeightSet(rs, frozenset(out))


def dimension(md: MarkedDiagram) -> int:
    """Dimension of the Hermitian symmetric space of a marked diagram."""
    if md.is_empty:
        return 0
    return len(noncompact_positive_roots(md))


def psi_gamma(md: MarkedDiagram) -> TangentWeights:
    """Affinized VMRT tangent weights at the mark: noncompact mu with mu - gamma
    a root, plus the radial direction gamma itself."""
    gamma_label = md.single_mark
    rs = md.root_system()
    gamma = rs.simple_root(gamma_label)
    nc = noncompact_positive_roots(md)
    weights = frozenset(m for m in nc.weights if rs.is_root(m - gamma))
    return TangentWeights(WeightSet(rs, weights), gamma)


def vmrt_diagram(md: MarkedDiagram) -> MarkedDiagram:
    """Marked diagram of the VMRT: remove the mark, mark its former neighbors.

    Removing the last node returns the empty marked diagram (the VMRT of a
    projective line is a point).
    """
    gamma = md.single_mark
    neighbors = md.diagram.neighbors(gamma)
    keep = set(md.diagram.nodes) - {gamma}
    sub = md.diagram.induced(keep)
    if sub.is_empty:
        return MarkedDiagram(DynkinDiagram((), frozenset()), frozenset())
    if not neighbors:
        raise MarkError(f"removing {gamma} strands an unmarked diagram")
    return MarkedDiagram(sub, frozenset(neighbors))


def vmrt_chain(md: MarkedDiagram) -> list[MarkedDiagram]:
    """Iterate the VMRT operator while a single mark remains.

    The returned list starts with the input; it ends at the first product
    (multi-mark) diagram or at the empty diagram.
    """
    chain = [md]
    while not chain[-1].is_empty and len(chain[-1].marked) == 1:
        chain.append(vmrt_diagram(chain[-1]))
    return chain
