"""Dynkin diagrams, exact root systems, Weyl reflections, chain deletion.

A root is a plain tuple of ints: its coefficients over the simple-root basis
of a fixed diagram, in the diagram's node order.  Tuples compare, sort and
hash as Python's own, and ``add`` and ``sub`` do the lattice arithmetic,
since ``+`` on tuples concatenates.  All root arithmetic uses the
integer Gram matrix B_ij = r_i C_ij, with r_i the relative squared length of
simple root i (shortest 1 in its component), so inner products and squared
norms are plain ints, each component's scaled by its own factor.  Every
ratio read from B (a length ratio, a coroot) stays inside one component.
Node labels follow Bourbaki numbering ("a1", "a2", ...), global across the
components of a product diagram.

Every diagram is a literal's Bourbaki diagram or an induced sub-diagram of
one, so a diagram stores each connected component as its type and the node
playing each Bourbaki node, and reads its bonds from the type's diagram,
written once in ``_term_edges`` (Bourbaki, Lie Groups ch. VI, plates).
``induced`` types each block of the kept nodes in one pass, by the arm
lengths at its branch node or the place of its multiple bond (``_typed``).
The hand-written shape rules, one per letter, are an oracle in the tests.

Everything that depends only on a component's Bourbaki type is read per
type, not per diagram.  Positive roots are built once per (letter, rank),
in closed form for A-D and by root strings on packed ints for E-G, and
placed once per shape by one ``itemgetter`` per component.  The form comes
from a table of relative simple-root lengths, and a mark is cominuscule
when the Bourbaki table of highest-root coefficients gives it coefficient
1, so checking marks builds no root system.  The per-diagram paths these
replace (root strings over the whole diagram's Cartan matrix, the
symmetrizer and the highest-root scan), root strings on coefficient tuples
and the reflection closure are independent oracles in the tests.
``packing`` is the one packed-root format, shared with the Chevalley table,
the kernels and the Levi search; ``_generate`` refuses a coefficient past
``PACK_BOUND`` and the closed forms stop at 2, so no root sum carries.

The Cartan pairing convention is <b, g> = 2(b, g)/(g, g), i.e. the second
slot carries the normalization.  No pairing is divided out: <b, alpha_i> is
a Cartan-row sum, ``pairing_simple``, and a claim <b, g> = k is read as the
integer identity 2 B(b, g) = k B(g, g), in which the scale of B cancels.
"""
from __future__ import annotations

import operator
from functools import cached_property, lru_cache

from .frozen import Frozen


class DiagramError(ValueError):
    """Raised for a malformed diagram literal or pair id, or an unknown node."""


class MarkError(ValueError):
    """Raised when a marked node is not cominuscule in its component."""


class ChainError(ValueError):
    """Raised when two nodes are not connected by a type-A chain."""


class Component(Frozen, fields=("letter", "labels")):
    """A typed connected component with its Bourbaki relabeling.

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


class DynkinDiagram(Frozen, fields=("nodes", "components")):
    """A (possibly disconnected) Dynkin diagram: its nodes and typed components.

    Each component names its type and the node playing each Bourbaki node,
    as ``parse_diagram`` and ``induced`` type them; its bonds are the type's.
    """

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
    def edges(self) -> tuple[Edge, ...]:
        """The bonds ``(u, v, multiplicity, short end)``, u before v in node
        order, component by component; the short end is None for a simple bond."""
        edges = []
        for comp in self.components:
            for u, v, mult, short in _term_edges(comp.letter, comp.labels):
                edges.append((u, v, mult, short) if self.index[u] < self.index[v]
                             else (v, u, mult, short))
        return tuple(edges)

    @cached_property
    def adjacency(self) -> dict[str, dict[str, tuple[int, "str | None"]]]:
        adj: dict[str, dict[str, tuple[int, str | None]]] = {a: {} for a in self.nodes}
        for u, v, mult, short in self.edges:
            adj[u][v] = adj[v][u] = (mult, short)
        return adj

    def neighbors(self, label: str) -> tuple[str, ...]:
        return tuple(sorted(self.adjacency[label], key=self.index.__getitem__))

    def induced(self, keep: "set[str] | frozenset[str]") -> "DynkinDiagram":
        """The sub-diagram on the kept nodes, each component typed by ``_typed``."""
        nodes = tuple(a for a in self.nodes if a in keep)
        adj = {a: {b: bond for b, bond in self.adjacency[a].items() if b in keep}
               for a in nodes}
        components, seen = [], set()
        for start in nodes:
            if start not in seen:
                block = _connected_block(start, adj)
                seen.update(block)
                components.append(_typed(block, adj, self.index))
        return DynkinDiagram(nodes, tuple(components))

    @cached_property
    def shape(self) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
        """(letter, rank, node positions) per component, the key of its roots."""
        return tuple((c.letter, c.rank, tuple(map(self.index.__getitem__, c.labels)))
                     for c in self.components)

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


def _arm(prev: "str | None", a: str, adj: dict[str, dict]) -> list[str]:
    """The nodes from ``a`` to the end of the path leading away from ``prev``."""
    arm = [a]
    while nxt := [b for b in adj[a] if b != prev]:
        prev, a = a, nxt[0]
        arm.append(a)
    return arm


def _typed(block: dict[str, "str | None"], adj: dict[str, dict],
           position: dict[str, int]) -> Component:
    """The type and Bourbaki labels of the connected block of ``adj`` whose
    nodes ``block`` holds, in a sub-diagram of a Bourbaki diagram.

    A node of degree 3 has arms (1, 1, k), D_(k+3), or (1, 2, 2), (1, 2, 3)
    and (1, 2, 4), E6, E7 and E8; any other block is a path with at most one
    multiple bond, A, B, C, F4 or G2, so C2 reads as B2 and D3 as A3.
    Among the type's symmetries (A_n reversed, D_n's last two nodes, D4's
    three tips, E6's flip) the labelling whose Bourbaki nodes come first by
    ``position`` is taken.
    """
    branch = next((a for a in block if len(adj[a]) == 3), None)
    if branch is not None:
        arms = [_arm(branch, b, adj) for b in adj[branch]]
        tail, *tips = sorted(arms, key=lambda arm: (-len(arm), position[arm[-1]]))
        if len(tips[0]) == 1:
            return Component("D", (*reversed(tail), branch, tips[0][0], tips[1][0]))
        short, mid, long = sorted(arms, key=lambda arm: (len(arm), position[arm[-1]]))
        return Component("E", (mid[1], short[0], mid[0], branch, *long))
    path = _arm(None, min((a for a in block if len(adj[a]) < 2), key=position.__getitem__), adj)
    bonds = [adj[u][v] for u, v in zip(path, path[1:])]
    k = next((i for i, (mult, _) in enumerate(bonds) if mult > 1), None)
    if k is None:
        return Component("A", tuple(path))
    mult, short = bonds[k]
    if len(path) == 4 and k == 1:       # F4, its short end at node 3
        return Component("F", tuple(path if short == path[2] else reversed(path)))
    if k < len(path) - 2 or short == path[0]:
        path.reverse()                  # the bond last; on two nodes its short end last
    if mult == 3:
        return Component("G", (path[1], path[0]))
    return Component("B" if short == path[-1] else "C", tuple(path))


# ---------------------------------------------------------------------------
# Diagram literals
# ---------------------------------------------------------------------------

_RANK_BOUNDS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _term_edges(letter: str, lab: tuple[str, ...]) -> list[Edge]:
    """The bonds of a type's Bourbaki diagram, ``lab[k]`` playing node k + 1."""
    n = len(lab)
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
    return edges


def diagram_terms(text: str) -> list[tuple[str, int]]:
    """The (letter, rank) of each term of a diagram literal, each rank in its
    type's range; no diagram is built."""
    terms = []
    for term in text.strip().split("+"):
        stripped = term.strip()
        letter, digits = stripped[:1], stripped[1:]
        if not (letter in _RANK_BOUNDS and digits.isascii() and digits.isdigit()):
            raise DiagramError(f"cannot parse diagram literal {term!r}")
        n = int(digits)
        lo, hi = _RANK_BOUNDS[letter]
        if n < lo or (hi is not None and n > hi):
            raise DiagramError(f"rank {n} out of range for type {letter}")
        terms.append((letter, n))
    return terms


def parse_diagram(text: str) -> DynkinDiagram:
    """Parse a diagram literal such as "E7", "B4" or "A1+A2".

    Each term is drawn as its literal's type and typed like an induced
    sub-diagram, so D3 reads as A3 and C2 as B2.
    """
    nodes: list[str] = []
    components = []
    for letter, n in diagram_terms(text):
        labels = tuple(f"a{len(nodes) + i}" for i in range(1, n + 1))
        components.append(Component(letter, labels))
        nodes += labels
    return DynkinDiagram(tuple(nodes), tuple(components)).induced(set(nodes))


def parse_marked(text: str) -> "MarkedDiagram":
    """Parse a marked literal such as "E7:a7" or "A1+A2:a1,a3".

    Each comma-separated label names one node once: an empty label, as in
    "E7:a7,", or a repeated one, as in "E7:a7,a7", is refused.
    """
    if ":" not in text:
        raise DiagramError(f"marked literal {text!r} needs ':' and mark labels")
    diag_text, _, marks = text.partition(":")
    diagram = parse_diagram(diag_text)
    labels = [m.strip() for m in marks.split(",")] if marks.strip() else []
    if "" in labels:
        raise MarkError(f"marked literal {text!r} has an empty mark label")
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise MarkError(f"mark label {label!r} is repeated")
        seen.add(label)
    return MarkedDiagram(diagram, frozenset(seen))


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


@lru_cache(maxsize=None)
def packed_roots(roots: frozenset[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """Each root of a set to its packing; the sets given are memoized per shape."""
    return {r: packing(len(r)).pack(r) for r in roots}


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


def _run(i: int, j: int) -> tuple[int, ...]:
    """alpha_i + ... + alpha_(j-1) on the first j nodes, 0-based: e_i - e_j."""
    return (0,) * i + (1,) * (j - i)


@lru_cache(maxsize=None)
def _type_roots(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots of one Bourbaki type in Bourbaki coordinates, built once.

    A-D are read off Bourbaki's plates I-IV, each root a ``_run`` and a tail
    (C_n and D_n start from A_(n-1)'s e_i - e_j, B_n from A_n's runs); E, F
    and G are walked by ``_generate``, the oracle of the closed forms.
    """
    if letter == "A":
        return tuple(_run(i, j) + (0,) * (n - j) for i in range(n) for j in range(i + 1, n + 1))
    if letter == "B":           # e_i - e_j and e_i, then e_i + e_j
        return _type_roots("A", n) + tuple(
            _run(i, j) + (2,) * (n - j) for i in range(n) for j in range(i + 1, n))
    if letter in ("C", "D"):
        differences = tuple(r + (0,) for r in _type_roots("A", n - 1))
        if letter == "C":       # then e_i + e_j, and 2 e_i at j = i
            return differences + tuple(
                _run(i, j) + (2,) * (n - 1 - j) + (1,) for i in range(n) for j in range(i, n))
        return differences + tuple(_run(i, n - 2) + (0, 1) for i in range(n - 1)) + tuple(
            _run(i, j) + (2,) * (n - 2 - j) + (1, 1)      # e_i + e_n, then e_i + e_j, j < n
            for i in range(n - 2) for j in range(i + 1, n - 1))
    return tuple(_generate(parse_diagram(f"{letter}{n}").cartan_matrix))


@lru_cache(maxsize=None)
def _embedded_roots(n: int, shape: tuple[tuple[str, int, tuple[int, ...]], ...]
                    ) -> frozenset[tuple[int, ...]]:
    """The positive roots of a rank-n diagram of the given shape.

    ``shape`` is a ``DynkinDiagram.shape``; one ``itemgetter`` per component
    (n >= 2 there, so it returns a tuple) reads each node's coefficient, or a
    0 appended at index ``rank`` off it.
    """
    placed: list[tuple[int, ...]] = []
    for letter, rank, where in shape:
        if where == tuple(range(n)):    # the whole diagram, in Bourbaki order
            placed += _type_roots(letter, rank)
            continue
        place = operator.itemgetter(*(where.index(i) if i in where else rank for i in range(n)))
        placed += [place(coeffs + (0,)) for coeffs in _type_roots(letter, rank)]
    return frozenset(placed)


# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------

def add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The root-lattice sum a + b; on tuples ``+`` would concatenate."""
    return tuple(map(operator.add, a, b))


def sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The root-lattice difference a - b."""
    return tuple(map(operator.sub, a, b))


class RootSystem:
    """The positive roots of a diagram, memoized by the diagram's ``shape``, and its form."""

    def __init__(self, diagram: DynkinDiagram):
        self.diagram = diagram
        self.cartan = diagram.cartan_matrix
        self.positive_roots = _embedded_roots(diagram.rank, diagram.shape)
        self._columns: dict[tuple[int, ...], tuple[int, ...]] = {}

    @cached_property
    def all_roots(self) -> frozenset[tuple[int, ...]]:
        """The roots of both signs, built on first use."""
        return self.positive_roots | {tuple(map(operator.neg, r)) for r in self.positive_roots}

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

    def inner(self, beta: tuple[int, ...], gamma: tuple[int, ...]) -> int:
        """B(beta, gamma), an integer; B(r, r) = t (r, r) for a root r, t the
        scale of r's component."""
        return sum(map(operator.mul, beta, self._form_column(gamma)))

    # -- membership and reflections -----------------------------------------

    def is_root(self, r: tuple[int, ...]) -> bool:
        return r in self.positive_roots or tuple(map(operator.neg, r)) in self.positive_roots

    def simple_root(self, label: str) -> tuple[int, ...]:
        i, n = self.diagram.index[label], self.diagram.rank
        return (0,) * i + (1,) + (0,) * (n - 1 - i)

    def reflect(self, node: "int | str", beta: tuple[int, ...]) -> tuple[int, ...]:
        """Simple reflection s_{alpha_i}(beta) = beta - <beta, alpha_i> alpha_i."""
        i = self.diagram.index[node] if isinstance(node, str) else node
        return beta[:i] + (beta[i] - self.pairing_simple(beta, i),) + beta[i + 1:]


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
        unknown = marked - set(diagram.nodes)
        if unknown:
            raise MarkError(f"unknown marked nodes {sorted(unknown)}")
        if not marked and not diagram.is_empty:
            raise MarkError("marked node set must be nonempty")
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


def delete_chain(ambient: MarkedDiagram,
                 gamma0: str) -> tuple[tuple[str, ...], MarkedDiagram]:
    """Delete the type-A chain running from the mark to (but excluding) gamma0.

    Returns the chain (the path from the mark to gamma0, both included) and
    the surviving sub-diagram marked at gamma0.
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
    and (A1, a1) is the conic.  ``md`` is irreducible: one component, one mark.
    """
    comp, = md.diagram.components
    m = canonical_mark_position(comp, md.single_mark)
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
