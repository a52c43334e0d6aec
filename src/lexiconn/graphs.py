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


def _disjoint_paths(to: list[int], out_arcs: list[list[int]], s: int, t: int, cap: int) -> int:
    """Maximum number of internally disjoint paths between non-adjacent
    s and t, capped at ``cap``: a max flow from out(s) to in(t) in the
    split network of ``vertex_connectivity``, from a fresh zero flow.

    Every arc has capacity one, which is exact. k internally disjoint
    paths use distinct arcs, so they are a flow of value k; a flow splits
    into paths that share no inner split arc, so into internally disjoint
    paths. The split arcs of s and t lie on no simple path from out(s) to
    in(t), so their capacity does not matter either. Residual capacities
    stay 0 or 1, so each BFS augmenting path carries exactly one unit.
    """
    residual = [1, 0] * (len(to) // 2)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        parent_arc = [-1] * len(out_arcs)
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            u = queue.popleft()
            for idx in out_arcs[u]:
                if residual[idx] and parent_arc[to[idx]] == -1:
                    parent_arc[to[idx]] = idx
                    queue.append(to[idx])
        if parent_arc[sink] == -1:
            break
        v = sink
        while v != source:
            idx = parent_arc[v]
            residual[idx] = 0
            residual[idx ^ 1] = 1
            v = to[idx ^ 1]
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity via unit-capacity max flow over one
    vertex-split network, built once per call and shared by every pair.

    Conventions: 0 for disconnected graphs and the one-vertex graph,
    n - 1 for complete graphs (their only cuts shrink the graph to a
    single vertex). Otherwise the minimum over s-t computations with a
    pair strategy that fixes a minimum-degree vertex v and takes the
    minimum cut between v and each of its non-neighbors, and between
    each neighbor of v and that neighbor's non-neighbors. Any minimum
    cut misses v or misses some neighbor of v, so one of these pairs
    straddles it. Each pair's flow stops at the best cut found so far.
    """
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if g.n == 1:
        return 0
    if not is_connected(g):
        return 0
    if is_complete(g):
        return g.n - 1
    # arcs in(v) -> out(v) (nodes 2v, 2v + 1) and out(x) -> in(y) for every
    # edge xy in both directions; arc idx runs to to[idx], its reverse is idx ^ 1
    to: list[int] = []
    out_arcs: list[list[int]] = [[] for _ in range(2 * g.n)]
    arcs = [(2 * v, 2 * v + 1) for v in range(g.n)]
    arcs += [(2 * x + 1, 2 * y) for x in range(g.n) for y in g.adj[x]]
    for x, y in arcs:
        out_arcs[x].append(len(to))
        to.append(y)
        out_arcs[y].append(len(to))
        to.append(x)
    v = min(range(g.n), key=lambda u: (len(g.adj[u]), u))
    best = g.n - 1
    for u in range(g.n):
        if u != v and u not in g.adj[v]:
            best = min(best, _disjoint_paths(to, out_arcs, v, u, best))
    for w in sorted(g.adj[v]):
        for u in range(g.n):
            if u != w and u not in g.adj[w]:
                best = min(best, _disjoint_paths(to, out_arcs, w, u, best))
    return best
