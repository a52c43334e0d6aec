"""Simple undirected graphs and their basic connectivity invariants.

Vertices are dense integer ids 0..n-1, adjacency is a symmetric family of
neighbor sets, and every value here is immutable. All functions are pure,
so graphs can be shared freely between threads.
"""

from __future__ import annotations

from collections import deque
from functools import total_ordering
from typing import Iterable


@total_ordering
class ExtendedNat:
    """A non-negative integer extended with a single infinite value.

    Used for invariants that may not exist, such as the isolation-free
    connectivity of a star. ``ExtendedNat(3)`` is finite, ``ExtendedNat()``
    (or the module constant ``INFINITY``) is the infinite element. Finite
    values compare like their integers and every finite value is smaller
    than infinity; comparisons with plain ints work on either side.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None = None):
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"finite value must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"finite value must be non-negative, got {value}")
        self._value = value

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> int:
        """The finite value; raises ValueError on the infinite element."""
        if self._value is None:
            raise ValueError("infinite ExtendedNat has no finite value")
        return self._value

    @staticmethod
    def _coerce(other):
        """The finite value of an int or ExtendedNat, None for infinity."""
        return other._value if isinstance(other, ExtendedNat) else other

    def __eq__(self, other) -> bool:
        if isinstance(other, bool) or not isinstance(other, (int, ExtendedNat)):
            return NotImplemented
        return self._value == self._coerce(other)

    def __lt__(self, other) -> bool:
        if isinstance(other, bool) or not isinstance(other, (int, ExtendedNat)):
            return NotImplemented
        o = self._coerce(other)
        if self._value is None:
            return False
        if o is None:
            return True
        return self._value < o

    def __hash__(self):
        return hash(self._value) if self._value is not None else hash("infinity")

    def __repr__(self):
        return f"ExtendedNat({self._value if self._value is not None else 'infinity'})"

    def __str__(self):
        return str(self._value) if self._value is not None else "infinity"

    def to_json(self) -> int | str:
        """JSON encoding: the integer itself, or the string "infinity"."""
        return self._value if self._value is not None else "infinity"

    @classmethod
    def from_json(cls, obj) -> "ExtendedNat":
        if obj == "infinity":
            return INFINITY
        if isinstance(obj, int) and not isinstance(obj, bool):
            return cls(obj)
        raise ValueError(f"not an ExtendedNat encoding: {obj!r}")


INFINITY = ExtendedNat()


class Graph:
    """An immutable simple undirected graph on vertices 0..n-1.

    ``adj`` is a tuple of frozensets (neighbor ids per vertex) and
    ``adj_bits`` the same adjacency as integer bitmasks, which the
    enumeration code uses for fast subset work. Self loops are rejected
    and edges are symmetrized on construction.
    """

    __slots__ = ("n", "adj", "adj_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            neighbors[u].add(v)
            neighbors[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in neighbors)
        bits = []
        for s in self.adj:
            mask = 0
            for v in s:
                mask |= 1 << v
            bits.append(mask)
        self.adj_bits = tuple(bits)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"<Graph n={self.n} m={self.num_edges}>"


def vertex_set(vertices: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Normalize a collection of vertex ids to the canonical sorted,
    duplicate-free tuple, optionally validating ids against a vertex count."""
    out = tuple(sorted(set(vertices)))
    if out and (not isinstance(out[0], int) or isinstance(out[0], bool)):
        raise TypeError("vertex ids must be ints")
    if n is not None:
        for v in out:
            if not 0 <= v < n:
                raise ValueError(f"vertex id {v} out of range for {n} vertices")
    return out


def isolated_vertices(g: Graph) -> tuple[int, ...]:
    """All degree-0 vertices, sorted."""
    return tuple(v for v in range(g.n) if not g.adj[v])


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(len(s) for s in g.adj)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    if g.n == 0:
        raise ValueError("the empty graph has no components")
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def is_complete(g: Graph) -> bool:
    if g.n == 0:
        raise ValueError("completeness of the empty graph is undefined")
    return all(len(s) == g.n - 1 for s in g.adj)


def _min_vertex_cut_between(g: Graph, s: int, t: int, cap: int) -> int:
    """Maximum number of internally disjoint s-t paths, capped at ``cap``.

    Standard vertex-splitting reduction: every vertex v becomes an arc
    in(v) -> out(v) of capacity 1 (capacity n for the terminals), every
    edge xy becomes arcs out(x) -> in(y) and out(y) -> in(x) of capacity n.
    Max flow from out(s) to in(t) then equals the minimum s-t vertex cut
    for non-adjacent s, t. Augmenting paths are found by BFS; each one
    carries exactly one unit because it crosses an internal split arc.
    """
    n = g.n
    size = 2 * n
    # edge list with paired reverse arcs at idx ^ 1
    to: list[int] = []
    capacity: list[int] = []
    out_arcs: list[list[int]] = [[] for _ in range(size)]

    def add_arc(u: int, v: int, c: int) -> None:
        out_arcs[u].append(len(to))
        to.append(v)
        capacity.append(c)
        out_arcs[v].append(len(to))
        to.append(u)
        capacity.append(0)

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, n if v in (s, t) else 1)
    for u in range(n):
        for w in g.adj[u]:
            if u < w:
                add_arc(2 * u + 1, 2 * w, n)
                add_arc(2 * w + 1, 2 * u, n)

    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        parent_arc = [-1] * size
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            u = queue.popleft()
            for idx in out_arcs[u]:
                if capacity[idx] > 0 and parent_arc[to[idx]] == -1:
                    parent_arc[to[idx]] = idx
                    queue.append(to[idx])
        if parent_arc[sink] == -1:
            break
        # bottleneck along the augmenting path
        bottleneck = cap - flow
        v = sink
        while v != source:
            idx = parent_arc[v]
            bottleneck = min(bottleneck, capacity[idx])
            v = to[idx ^ 1]
        v = sink
        while v != source:
            idx = parent_arc[v]
            capacity[idx] -= bottleneck
            capacity[idx ^ 1] += bottleneck
            v = to[idx ^ 1]
        flow += bottleneck
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity via max flow over vertex-split networks.

    Conventions: 0 for disconnected graphs and the one-vertex graph,
    n - 1 for complete graphs (their only cuts shrink the graph to a
    single vertex). Otherwise the minimum over s-t computations with a
    pair strategy that fixes a minimum-degree vertex v and takes the
    minimum cut between v and each of its non-neighbors, and between
    each neighbor of v and that neighbor's non-neighbors. Any minimum
    cut misses v or misses some neighbor of v, so one of these pairs
    straddles it.
    """
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if g.n == 1:
        return 0
    if not is_connected(g):
        return 0
    if is_complete(g):
        return g.n - 1
    v = min(range(g.n), key=lambda u: (len(g.adj[u]), u))
    best = g.n - 1
    for u in range(g.n):
        if u != v and u not in g.adj[v]:
            best = min(best, _min_vertex_cut_between(g, v, u, best))
    for w in sorted(g.adj[v]):
        for u in range(g.n):
            if u != w and u not in g.adj[w]:
                best = min(best, _min_vertex_cut_between(g, w, u, best))
    return best
