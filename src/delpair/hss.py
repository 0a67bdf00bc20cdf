"""Weight combinatorics of compact Hermitian symmetric spaces.

For a cominuscule marked diagram the noncompact positive roots are those with
coefficient 1 at the component's mark; their count is the dimension of the
space.  The affinized tangent space of the minimal-rational-tangent variety
at the highest root vector consists of the radial direction together with the
noncompact roots mu for which mu - gamma is again a root.
"""
from __future__ import annotations

from functools import lru_cache

from .rootsys import DynkinDiagram, MarkedDiagram, MarkError, _embedded_roots


def _key(md: MarkedDiagram) -> tuple[int, tuple, tuple[int, ...]]:
    """The rank, the shape and the mark positions, which key every root set here."""
    marks = tuple(sorted(map(md.diagram.index.__getitem__, md.marked)))
    return md.diagram.rank, md.diagram.shape, marks


def noncompact_positive_roots(md: MarkedDiagram) -> frozenset[tuple[int, ...]]:
    """Positive roots with coefficient 1 at the mark of their component.

    A positive root's support lies in one component, so a coefficient 1 at
    a mark places the root in that mark's component.  Memoized by ``_key``:
    the 1 597 marked diagrams of ``pairs.catalog(40)`` have 155 keys.
    """
    return _noncompact(*_key(md))


@lru_cache(maxsize=None)
def _noncompact(n: int, shape: tuple, marks: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    return frozenset(r for r in _embedded_roots(n, shape) if 1 in map(r.__getitem__, marks))


def psi_gamma(md: MarkedDiagram) -> frozenset[tuple[int, ...]]:
    """VMRT tangent weights at the mark gamma: the noncompact mu with mu - gamma
    a root.  The radial direction gamma itself is not among them.  Memoized
    by ``_key``, as ``noncompact_positive_roots`` is."""
    md.single_mark        # one mark, or MarkError
    return _psi(*_key(md))


@lru_cache(maxsize=None)
def _psi(n: int, shape: tuple, marks: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    (i,), positives = marks, _embedded_roots(n, shape)
    return frozenset(m for m in _noncompact(n, shape, marks)
                     if m[:i] + (m[i] - 1,) + m[i + 1:] in positives)


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
        return MarkedDiagram(DynkinDiagram((), ()), frozenset())
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
