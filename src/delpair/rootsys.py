"""Dynkin diagrams, exact root systems, Weyl reflections, chain deletion.

A root is a plain tuple of ints: its coefficients over the simple-root basis
of a fixed diagram, in the diagram's node order.  Tuples compare, sort and
hash as Python's own, and ``add`` and ``sub`` do the lattice arithmetic,
since ``+`` on tuples concatenates.  All root arithmetic uses the
integer Gram matrix B_ij = r_i C_ij, with r_i the relative squared length of
simple root i (shortest 1 in its component), so inner products and squared
norms are plain ints, each component's scaled by its own factor; only a
non-integral pairing returns a Fraction.  Every ratio read from B (a
pairing, a length ratio, a coroot) stays inside one component.  Node
labels follow Bourbaki numbering ("a1", "a2", ...), global across the
components of a product diagram.

A connected component has type X_n exactly when it is isomorphic, bond
multiplicities and short ends included, to the diagram the literal parser
draws for "X_n", so each type's diagram is written once, in ``_term_edges``
(Bourbaki, Lie Groups ch. VI, plates).  The hand-written shape rules, one
per letter, that this matching replaces are an oracle in the tests.

Everything that depends only on a component's Bourbaki type is read per
type, not per diagram.  Positive roots are generated once per (letter,
rank) by root strings on the type's own Cartan matrix, walked on packed
ints, and embedded through ``Component.labels``.  The form comes from a
table of relative simple-root lengths, and a mark is cominuscule when the
Bourbaki table of highest-root coefficients gives it coefficient 1, so
checking marks builds no root system.  The per-diagram paths these replace
(root strings over the whole diagram's Cartan matrix, the breadth-first
symmetrizer and the highest-root scan), and root strings walked on
coefficient tuples, are independent oracles in the tests.  ``packing`` is
the one packed-root format, shared with the Chevalley table and the Levi
search; ``_generate`` refuses a coefficient past ``PACK_BOUND``, so no sum
or difference of two roots carries or borrows.

The Cartan pairing convention is <b, g> = 2(b, g)/(g, g), i.e. the second
slot carries the normalization; the scale of B cancels in that ratio.
"""
from __future__ import annotations

import operator
from functools import cached_property, lru_cache

from .frozen import Frozen


class DiagramError(ValueError):
    """Raised for malformed or unclassifiable Dynkin diagram data."""


class MarkError(ValueError):
    """Raised when a marked node is not cominuscule in its component."""


class ChainError(ValueError):
    """Raised when two nodes are not connected by a type-A chain."""


class Component(Frozen, fields=("letter", "labels")):
    """A classified connected component with its Bourbaki relabeling.

    ``labels[k]`` is the node playing the role of alpha_{k+1} in the
    Bourbaki numbering of the component's type.
    """

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    def bourbaki_index(self, label: str) -> int:
        """1-based Bourbaki index of a node within this component."""
        return self.labels.index(label) + 1


Edge = tuple[str, str, int, "str | None"]


class DynkinDiagram(Frozen, fields=("nodes", "edges")):
    """A (possibly disconnected) Dynkin diagram.

    Edges are ``(u, v, multiplicity, arrow)`` with u before v in node order;
    ``arrow`` names the short-root endpoint for multiplicity >= 2 and is
    None for simple bonds.
    """

    def __init__(self, nodes: tuple[str, ...], edges: frozenset[Edge]) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if len(set(nodes)) != len(nodes):
            raise DiagramError("duplicate node labels")
        pos = {a: i for i, a in enumerate(nodes)}
        seen = set()
        for u, v, mult, arrow in edges:
            if u not in pos or v not in pos or u == v:
                raise DiagramError(f"bad edge endpoints ({u}, {v})")
            if pos[u] > pos[v]:
                raise DiagramError(f"edge ({u}, {v}) not in node order")
            if frozenset((u, v)) in seen:
                raise DiagramError(f"parallel edges between {u} and {v}")
            seen.add(frozenset((u, v)))
            if mult not in (1, 2, 3):
                raise DiagramError(f"bond multiplicity {mult} out of range")
            if mult == 1 and arrow is not None:
                raise DiagramError("multiplicity-1 edges carry no arrow")
            if mult >= 2 and arrow not in (u, v):
                raise DiagramError("multiple bond needs an arrow endpoint")
        self.components  # classify eagerly so invalid diagrams fail here

    @property
    def rank(self) -> int:
        return len(self.nodes)

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    @cached_property
    def index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.nodes)}

    @cached_property
    def adjacency(self) -> dict[str, dict[str, tuple[int, "str | None"]]]:
        return _adjacency(self.nodes, self.edges)

    @cached_property
    def components(self) -> tuple[Component, ...]:
        remaining = set(self.nodes)
        comps = []
        for start in self.nodes:
            if start not in remaining:
                continue
            block = _connected_block(start, self.adjacency)
            remaining -= block.keys()
            comps.append(_classify(sorted(block, key=self.index.__getitem__), self.adjacency))
        return tuple(comps)

    def component_of(self, label: str) -> Component:
        for comp in self.components:
            if label in comp.labels:
                return comp
        raise DiagramError(f"no node {label!r}")

    def neighbors(self, label: str) -> tuple[str, ...]:
        return tuple(sorted(self.adjacency[label], key=self.index.__getitem__))

    def induced(self, keep: "set[str] | frozenset[str]") -> "DynkinDiagram":
        nodes = tuple(a for a in self.nodes if a in keep)
        edges = frozenset(e for e in self.edges if e[0] in keep and e[1] in keep)
        return DynkinDiagram(nodes, edges)

    @cached_property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """C[i][j] = <alpha_j, alpha_i> = 2(alpha_i, alpha_j)/(alpha_i, alpha_i)."""
        n = self.rank
        C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for u, v, mult, arrow in self.edges:
            i, j = self.index[u], self.index[v]
            if mult == 1:
                C[i][j] = C[j][i] = -1
            else:
                s = self.index[arrow]        # short root gets the -mult entry
                l = j if s == i else i
                C[s][l] = -mult
                C[l][s] = -1
        return tuple(tuple(row) for row in C)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], ...]:
        """The integer Gram matrix B_ij = r_i C_ij.

        r_i is the relative squared length of simple root i within its
        component (shortest 1), so B is symmetric; on a component it is t
        times the symmetrized form, t the component's largest r (1 for
        A/D/E, 2 for B, C and F4, 3 for G2).
        """
        r = {}
        for comp in self.components:
            r.update(zip(comp.labels, _relative_lengths(comp.letter, comp.rank)))
        return tuple(tuple(r[a] * c for c in row)
                     for a, row in zip(self.nodes, self.cartan_matrix))

    def literal(self) -> str:
        return "+".join(comp.name for comp in self.components)


def _connected_block(start: str, adj: dict[str, dict]) -> dict[str, "str | None"]:
    """Each node reachable from ``start``, in breadth-first order, to its parent."""
    parent, order = {start: None}, [start]
    for a in order:             # the loop reads what it appends
        for b in adj[a]:
            if b not in parent:
                parent[b] = a
                order.append(b)
    return parent


def _adjacency(nodes, edges) -> dict[str, dict[str, tuple[int, "str | None"]]]:
    adj: dict[str, dict[str, tuple[int, str | None]]] = {a: {} for a in nodes}
    for u, v, mult, arrow in edges:
        adj[u][v] = adj[v][u] = (mult, arrow)
    return adj


def _invariant(nodes, adj: dict[str, dict]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted degrees and sorted bond multiplicities, kept by every isomorphism."""
    return (tuple(sorted(len(adj[a]) for a in nodes)),
            tuple(sorted(m for a in nodes for m, _ in adj[a].values())))


@lru_cache(maxsize=None)
def _template(letter: str, n: int):
    """The Bourbaki diagram ``_term_edges`` draws for a type, ready for matching.

    Returns its invariant, its nodes in breadth-first order from Bourbaki
    node 1 as steps (parent step, (multiplicity, step of the short end),
    degree), and the step of each Bourbaki node.
    """
    lab, edges = _term_edges(letter, n, 0)
    adj = _adjacency(lab, edges)
    parents = _connected_block(lab[0], adj)
    step = {a: i for i, a in enumerate(parents)}
    steps = [(None, (None, None), len(adj[lab[0]]))]
    for a, parent in list(parents.items())[1:]:
        mult, short = adj[a][parent]
        steps.append((step[parent], (mult, step.get(short)), len(adj[a])))
    return _invariant(lab, adj), tuple(steps), tuple(step[a] for a in lab)


def _embeddings(image: tuple[str, ...], steps, adj: dict[str, dict]) -> list[tuple[str, ...]]:
    """Every isomorphism from a template onto a tree that extends ``image``.

    Depth first on an explicit stack, so a diagram of any rank stays within
    the interpreter's recursion limit.
    """
    found, stack = [], [image]
    while stack:
        image = stack.pop()
        if len(image) == len(steps):
            found.append(image)
            continue
        parent, (mult, short), degree = steps[len(image)]
        for b, bond in adj[image[parent]].items():
            full = image + (b,)
            if (len(adj[b]) == degree and b not in image
                    and bond == (mult, None if short is None else full[short])):
                stack.append(full)
    return found


# Per component shape, the letter and the positions (in the component's node
# order) of its Bourbaki nodes; filled by ``_classify`` on a successful search.
_SHAPES: dict[tuple, tuple[str, tuple[int, ...]]] = {}


def _classify(labels: list[str], adj: dict[str, dict]) -> Component:
    """``_search``, memoized by the component's shape.

    The shape is the node count and each edge as (position, position,
    multiplicity, position of the short end), positions in ``labels`` order.
    ``_search`` keeps the isomorphism whose Bourbaki labels come first in
    that order, so its answer, read as positions, is the same for every
    component of one shape.  A search that raises stores nothing.
    """
    position = {a: i for i, a in enumerate(labels)}
    shape = (len(labels), tuple(sorted(
        (position[a], position[b], mult, None if short is None else position[short])
        for a in labels for b, (mult, short) in adj[a].items() if position[a] < position[b])))
    hit = _SHAPES.get(shape)
    if hit is None:
        comp = _search(labels, adj)
        _SHAPES[shape] = (comp.letter, tuple(position[a] for a in comp.labels))
        return comp
    letter, order = hit
    return Component(letter, tuple(labels[i] for i in order))


def _search(labels: list[str], adj: dict[str, dict]) -> Component:
    """Name a connected component by the Bourbaki diagram it is isomorphic to.

    Letters are tried in ``_RANK_BOUNDS`` order, so B2 = C2 reads as B2 and
    D3 as A3.  An isomorphism keeps each bond's multiplicity and short end;
    among several (the symmetries of A_n, D_n, D4 and E6) the one whose
    Bourbaki labels come first in node order wins.
    """
    n = len(labels)
    if sum(len(adj[a]) for a in labels) != 2 * (n - 1):
        raise DiagramError(f"component {labels} contains a cycle")
    invariant = _invariant(labels, adj)
    position = {a: i for i, a in enumerate(labels)}
    for letter, (lo, hi) in _RANK_BOUNDS.items():
        if not lo <= n <= (hi or n):
            continue
        shape, steps, order = _template(letter, n)
        if shape != invariant:
            continue
        images = [image for a in labels if len(adj[a]) == steps[0][2]
                  for image in _embeddings((a,), steps, adj)]
        if images:
            best = min(images, key=lambda im: [position[im[j]] for j in order])
            return Component(letter, tuple(best[j] for j in order))
    raise DiagramError(f"component {labels} matches no Bourbaki diagram")


# ---------------------------------------------------------------------------
# Diagram literals
# ---------------------------------------------------------------------------

_RANK_BOUNDS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _term_edges(letter: str, n: int, offset: int) -> tuple[list[str], list[Edge]]:
    lab = [f"a{offset + i}" for i in range(1, n + 1)]
    edges: list[Edge] = []

    def bond(i: int, j: int, mult: int = 1, short: int | None = None) -> None:
        edges.append((lab[i - 1], lab[j - 1], mult, None if short is None else lab[short - 1]))

    if letter == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif letter in ("B", "C"):
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, 2, n if letter == "B" else n - 1)
    elif letter == "D":
        for i in range(1, n - 2):
            bond(i, i + 1)
        if n >= 4:
            bond(n - 2, n - 1)
            bond(n - 2, n)
        else:   # D3 degenerates to the A3 shape
            bond(1, 2)
            bond(1, 3)
    elif letter == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(2, 4)
    elif letter == "F":
        bond(1, 2)
        bond(2, 3, 2, 3)
        bond(3, 4)
    elif letter == "G":
        bond(1, 2, 3, 1)
    return lab, edges


def parse_diagram(text: str) -> DynkinDiagram:
    """Parse a diagram literal such as "E7", "B4" or "A1+A2"."""
    nodes: list[str] = []
    edges: list[Edge] = []
    offset = 0
    for term in text.strip().split("+"):
        stripped = term.strip()
        letter, digits = stripped[:1], stripped[1:]
        if not (letter in _RANK_BOUNDS and digits.isascii() and digits.isdigit()):
            raise DiagramError(f"cannot parse diagram literal {term!r}")
        n = int(digits)
        lo, hi = _RANK_BOUNDS[letter]
        if n < lo or (hi is not None and n > hi):
            raise DiagramError(f"rank {n} out of range for type {letter}")
        lab, e = _term_edges(letter, n, offset)
        nodes += lab
        edges += e
        offset += n
    return DynkinDiagram(tuple(nodes), frozenset(edges))


def parse_marked(text: str) -> "MarkedDiagram":
    """Parse a marked literal such as "E7:a7" or "A1+A2:a1,a3"."""
    if ":" not in text:
        raise DiagramError(f"marked literal {text!r} needs ':' and mark labels")
    diag_text, _, marks = text.partition(":")
    diagram = parse_diagram(diag_text)
    labels = frozenset(m.strip() for m in marks.split(",") if m.strip())
    return MarkedDiagram(diagram, labels)


# ---------------------------------------------------------------------------
# Per-type Bourbaki data, indexed by Bourbaki node number - 1
# ---------------------------------------------------------------------------

def _relative_lengths(letter: str, n: int) -> tuple[int, ...]:
    """Squared lengths of the simple roots up to a common factor."""
    if letter == "B":
        return (2,) * (n - 1) + (1,)
    if letter == "C":
        return (1,) * (n - 1) + (2,)
    if letter == "F":
        return (2, 2, 1, 1)
    if letter == "G":
        return (1, 3)
    return (1,) * n


def _highest_root_coefficients(letter: str, n: int) -> tuple[int, ...]:
    """Coefficients of the highest root (Bourbaki, Lie Groups ch. VI, plates)."""
    if letter == "A":
        return (1,) * n
    if letter == "B":
        return (1,) + (2,) * (n - 1)
    if letter == "C":
        return (2,) * (n - 1) + (1,)
    if letter == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return {"E6": (1, 2, 2, 3, 2, 1), "E7": (2, 2, 3, 4, 3, 2, 1),
            "E8": (2, 3, 4, 6, 5, 4, 3, 2), "F4": (2, 3, 4, 2),
            "G2": (3, 2)}[f"{letter}{n}"]


PACK_BOUND = 7      # the largest root coefficient a packing takes; E8's is 6


class Packing(Frozen, fields=("places", "zero")):
    """Coefficient tuples of rank n packed into ints: pack(c) = zero + sum c_t 32^(n-1-t).

    Each base-32 digit, most significant first, is c_t + 16, so packed
    tuples order as the tuples do, and pack(a) + step(b) is pack(a + b) with
    no carry or borrow while every coefficient of a + b stays in -14..14.
    ``places`` holds the digit weights 32^(n-1-t), ``zero`` packs the zero tuple.
    """

    def __init__(self, n: int) -> None:
        places = tuple(32 ** t for t in reversed(range(n)))
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "zero", 16 * sum(places))

    def pack(self, coeffs: tuple[int, ...]) -> int:
        return self.zero + self.step(coeffs)

    def step(self, coeffs: tuple[int, ...]) -> int:
        """pack(a + coeffs) - pack(a), for any a."""
        return sum(map(operator.mul, coeffs, self.places))


@lru_cache(maxsize=None)
def packing(n: int) -> Packing:
    """The packing of rank-n coefficient tuples, built once per rank."""
    return Packing(n)


def _generate(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Positive roots by root strings through the simple roots, as int tuples.

    The walk runs on packed ints and carries each root's pairings
    <beta, alpha_k> along: raising beta by alpha_i adds column i of the
    Cartan matrix.  A coefficient past ``PACK_BOUND``, which only a matrix
    of no finite type reaches, raises AssertionError.
    """
    n = len(cartan)
    pk = packing(n)
    unit, zero = pk.places, pk.zero
    column = [tuple(row[i] for row in cartan) for i in range(n)]
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    layer = [(zero + step, coeffs, col) for step, coeffs, col in zip(unit, simple, column)]
    roots = {key: coeffs for key, coeffs, _ in layer}     # insertion-ordered
    while layer:
        nxt = []
        for key, coeffs, pairings in layer:
            for i, step in enumerate(unit):
                down = key - step
                while down in roots:
                    down -= step
                # the string through beta reaches (key - down) / step - 1 steps down
                if (key - down) // step - 1 > pairings[i]:
                    up = key + step
                    if up not in roots:
                        if coeffs[i] == PACK_BOUND:
                            raise AssertionError(f"a root coefficient exceeds {PACK_BOUND}, "
                                                 "so a packed sum of roots could carry")
                        roots[up] = raised = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1:]
                        nxt.append((up, raised, tuple(map(operator.add, pairings, column[i]))))
        layer = nxt
    return list(roots.values())


@lru_cache(maxsize=None)
def _type_roots(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots of one Bourbaki type in Bourbaki coordinates, generated once."""
    return tuple(_generate(parse_diagram(f"{letter}{n}").cartan_matrix))


@lru_cache(maxsize=None)
def _embedded_roots(n: int, shape: tuple[tuple[str, int, tuple[int, ...]], ...]
                    ) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, ...]]]:
    """The positive roots, and all roots of both signs, of a rank-n diagram
    of the given shape.

    ``shape`` lists (letter, rank, node positions) per component; each
    component's per-type roots are placed at its positions.  Diagrams that
    differ only in node labels share one shape and so one pair of sets.
    """
    placed = []
    for letter, rank, where in shape:
        for coeffs in _type_roots(letter, rank):
            full = [0] * n
            for i, c in zip(where, coeffs):
                full[i] = c
            placed.append(tuple(full))
    negatives = [tuple(map(operator.neg, coeffs)) for coeffs in placed]
    return frozenset(placed), frozenset(placed + negatives)


# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------

def add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The root-lattice sum a + b; on tuples ``+`` would concatenate."""
    return tuple(map(operator.add, a, b))


def sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The root-lattice difference a - b."""
    return tuple(map(operator.sub, a, b))


def cartan_ratio(b_ij: int, b_jj: int) -> "int | Fraction":
    """The Cartan ratio 2 b_ij / b_jj of two form values, an int when exact."""
    q, rem = divmod(2 * b_ij, b_jj)
    if not rem:
        return q
    from fractions import Fraction      # here, not at the top: only this branch needs it
    return Fraction(2 * b_ij, b_jj)


class RootSystem:
    """The full positive system over a diagram, with exact integer pairings."""

    def __init__(self, diagram: DynkinDiagram):
        self.diagram = diagram
        self.cartan = diagram.cartan_matrix
        shape = tuple((c.letter, c.rank, tuple(map(diagram.index.__getitem__, c.labels)))
                      for c in diagram.components)
        self.positive_roots, self.all_roots = _embedded_roots(diagram.rank, shape)
        self._columns: dict[tuple[int, ...], tuple[int, ...]] = {}

    @property
    def form(self) -> tuple[tuple[int, ...], ...]:
        """The diagram's integer form, built on first use."""
        return self.diagram.integer_form

    # -- pairings ----------------------------------------------------------

    def pairing_simple(self, beta: tuple[int, ...], i: int) -> int:
        """<beta, alpha_i>, always an integer."""
        return sum(map(operator.mul, beta, self.cartan[i]))

    def _form_column(self, gamma: tuple[int, ...]) -> tuple[int, ...]:
        """B gamma, so that B(beta, gamma) is a dot product with beta; memoized."""
        column = self._columns.get(gamma)
        if column is None:
            column = self._columns[gamma] = tuple(
                sum(map(operator.mul, row, gamma)) for row in self.form)
        return column

    def scaled_norm(self, r: tuple[int, ...]) -> int:
        """B(r, r) = t (r, r), an integer, t the scale of r's component."""
        return sum(map(operator.mul, r, self._form_column(r)))

    def pairing(self, beta: tuple[int, ...], gamma: tuple[int, ...]) -> "int | Fraction":
        """Cartan pairing <beta, gamma> = 2(beta, gamma)/(gamma, gamma)."""
        if not any(gamma):
            raise ValueError("pairing against the zero vector")
        column = self._form_column(gamma)
        return cartan_ratio(sum(map(operator.mul, beta, column)),
                            sum(map(operator.mul, gamma, column)))

    # -- membership and reflections -----------------------------------------

    def is_root(self, r: tuple[int, ...]) -> bool:
        return r in self.all_roots

    def simple_root(self, label: str) -> tuple[int, ...]:
        i, n = self.diagram.index[label], self.diagram.rank
        return (0,) * i + (1,) + (0,) * (n - 1 - i)

    def reflect(self, node: "int | str", beta: tuple[int, ...]) -> tuple[int, ...]:
        """Simple reflection s_{alpha_i}(beta) = beta - <beta, alpha_i> alpha_i."""
        i = self.diagram.index[node] if isinstance(node, str) else node
        return beta[:i] + (beta[i] - self.pairing_simple(beta, i),) + beta[i + 1:]

    def __repr__(self) -> str:
        return f"RootSystem({self.diagram.literal()}, {len(self.positive_roots)} positive roots)"


@lru_cache(maxsize=None)
def build_root_system(diagram: DynkinDiagram) -> RootSystem:
    """Construct (and cache) the positive root system of a diagram."""
    return RootSystem(diagram)


# ---------------------------------------------------------------------------
# Marked diagrams
# ---------------------------------------------------------------------------

class MarkedDiagram(Frozen, fields=("diagram", "marked")):
    """A Dynkin diagram with a distinguished cominuscule node set."""

    def __init__(self, diagram: DynkinDiagram, marked: frozenset[str]) -> None:
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "marked", marked)
        if diagram.is_empty:
            if marked:
                raise MarkError("empty diagram cannot carry marks")
            return
        if not marked:
            raise MarkError("marked node set must be nonempty")
        unknown = marked - set(diagram.nodes)
        if unknown:
            raise MarkError(f"unknown marked nodes {sorted(unknown)}")
        for comp in diagram.components:
            marks_here = marked & set(comp.labels)
            if len(marks_here) > 1:
                raise MarkError(f"component {comp.name} carries several marks")
            for mark in marks_here:
                top = _highest_root_coefficients(comp.letter, comp.rank)
                k = top[comp.bourbaki_index(mark) - 1]
                if k != 1:
                    raise MarkError(f"{mark} is not cominuscule in {comp.name}: "
                                    f"highest root coefficient is {k}")

    @property
    def is_empty(self) -> bool:
        return self.diagram.is_empty

    @property
    def single_mark(self) -> str:
        if len(self.marked) != 1:
            raise MarkError(f"expected a single mark, found {sorted(self.marked)}")
        return next(iter(self.marked))

    def root_system(self) -> RootSystem:
        return build_root_system(self.diagram)

    def literal(self) -> str:
        marks = ",".join(sorted(self.marked, key=self.diagram.index.__getitem__))
        return f"{self.diagram.literal()}:{marks}"


def tree_path(diagram: DynkinDiagram, a: str, b: str) -> list[str]:
    """The unique path between two nodes of the same component."""
    if a not in diagram.index or b not in diagram.index:
        raise DiagramError(f"unknown node in path query ({a}, {b})")
    parents = _connected_block(b, diagram.adjacency)
    if a not in parents:
        raise ChainError(f"{a} and {b} lie in different components")
    path = [a]
    while path[-1] != b:
        path.append(parents[path[-1]])
    return path


@lru_cache(maxsize=None)
def delete_chain(ambient: MarkedDiagram,
                 gamma0: str) -> tuple[tuple[str, ...], MarkedDiagram]:
    """Delete the type-A chain running from the mark to (but excluding) gamma0.

    Returns the chain (the path from the mark to gamma0, both included) and
    the surviving sub-diagram marked at gamma0.  Memoized by marked-diagram
    equality, so the deletion steps that maximality tries read the result
    a catalog pair already derived.
    """
    gamma = ambient.single_mark
    if gamma0 == gamma:
        raise ChainError("gamma0 coincides with the marked node")
    path = tree_path(ambient.diagram, gamma, gamma0)
    adj = ambient.diagram.adjacency
    for u, v in zip(path, path[1:]):
        mult, _ = adj[u][v]
        if mult != 1:
            raise ChainError(
                f"{gamma} and {gamma0} are not connected by a type-A chain: "
                f"bond ({u}, {v}) has multiplicity {mult}"
            )
    removed = set(path[:-1])
    sub = ambient.diagram.induced(set(ambient.diagram.nodes) - removed)
    return tuple(path), MarkedDiagram(sub, frozenset({gamma0}))


# ---------------------------------------------------------------------------
# Naming helpers
# ---------------------------------------------------------------------------

def canonical_mark_position(comp: Component, mark: str) -> int:
    """Bourbaki index of a mark, folded along the component's symmetry."""
    n = comp.rank
    m = comp.bourbaki_index(mark)
    if comp.letter == "A":
        return min(m, n + 1 - m)
    if comp.letter == "D" and m in (n - 1, n) and n >= 4:
        return n
    return m


def component_space_name(comp: Component, mark: str) -> str:
    n = comp.rank
    m = canonical_mark_position(comp, mark)
    if comp.letter == "A":
        return f"P^{n}" if m == 1 else f"G({m},{n + 1 - m})"
    if comp.letter == "B" and m == 1:
        return f"Q^{2 * n - 1}"
    if comp.letter == "D":
        if m == 1:
            return f"Q^{2 * n - 2}"
        if m == n:
            return f"G^II({n},{n})"
    if comp.letter == "C" and m == n:
        return f"G^III({n},{n})"
    return f"{comp.name}/P{m}"


def is_hyperquadric(md: MarkedDiagram) -> bool:
    """True when the marked diagram names a smooth quadric hypersurface.

    Covers the usual rows (B_n, a1) and (D_n, a1) together with the triality
    images: every cominuscule mark of D4 gives the six-dimensional quadric,
    and (A1, a1) is the conic.
    """
    if md.is_empty or len(md.marked) != 1:
        return False
    mark = md.single_mark
    comp = md.diagram.component_of(mark)
    if len(md.diagram.components) != 1:
        return False
    m = canonical_mark_position(comp, mark)
    if comp.letter == "B" and m == 1:
        return True
    if comp.letter == "D" and (m == 1 or comp.rank == 4):
        return True
    if comp.letter == "A" and comp.rank == 1:
        return True
    if comp.letter == "A" and comp.rank == 3 and m == 2:
        return True       # G(2,2) is the four-dimensional quadric
    return False


def space_name(md: MarkedDiagram) -> str:
    """Pretty name of the Hermitian symmetric space of a marked diagram."""
    if md.is_empty:
        return "pt"
    parts = []
    for comp in md.diagram.components:
        marks = md.marked & set(comp.labels)
        if marks:
            parts.append(component_space_name(comp, next(iter(marks))))
    return " x ".join(parts)


def descriptor(md: MarkedDiagram) -> tuple[tuple[str, int, int], ...]:
    """Canonical (letter, rank, mark position) triple per marked component."""
    out = []
    for comp in md.diagram.components:
        marks = md.marked & set(comp.labels)
        if marks:
            out.append((comp.letter, comp.rank,
                        canonical_mark_position(comp, next(iter(marks)))))
    return tuple(sorted(out))
