"""Simple undirected graphs and their basic connectivity invariants.

Vertices are dense integer ids 0..n-1, adjacency is one integer bitmask
per vertex, and every value here is immutable. All functions are pure,
so graphs can be shared freely between threads.
"""

from __future__ import annotations

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
        return self._value is not None and (o is None or self._value < o)

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

    ``adj_bits`` is the whole adjacency: one integer bitmask per vertex,
    bit w of ``adj_bits[v]`` set when v and w are adjacent. Self loops are
    rejected and edges are symmetrized on construction.
    """

    __slots__ = ("n", "adj_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self.adj_bits = tuple(bits)

    @classmethod
    def _from_adj_bits(cls, adj_bits: tuple[int, ...]) -> "Graph":
        """The graph with symmetric, loop-free ``adj_bits``, unchecked."""
        g = object.__new__(cls)
        g.n = len(adj_bits)
        g.adj_bits = adj_bits
        return g

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def neighbors(self, v: int) -> frozenset[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} out of range for {self.n} vertices")
        return frozenset(_bits_to_tuple(self.adj_bits[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in _bits_to_tuple(self.adj_bits[u]) if u < v]

    @property
    def num_edges(self) -> int:
        return sum(b.bit_count() for b in self.adj_bits) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj_bits[u] >> v & 1)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj_bits == other.adj_bits

    def __hash__(self):
        return hash((self.n, self.adj_bits))

    def __repr__(self):
        return f"<Graph n={self.n} m={self.num_edges}>"


def _bits_to_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def vertex_set(vertices: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Normalize a collection of vertex ids to the canonical sorted,
    duplicate-free tuple, optionally validating ids against a vertex count."""
    ids = tuple(vertices)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in ids):
        raise TypeError("vertex ids must be ints")
    out = tuple(sorted(set(ids)))
    if n is not None:
        for v in out:
            if not 0 <= v < n:
                raise ValueError(f"vertex id {v} out of range for {n} vertices")
    return out


def isolated_vertices(g: Graph) -> tuple[int, ...]:
    """All degree-0 vertices, sorted."""
    return tuple(v for v, b in enumerate(g.adj_bits) if not b)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(b.bit_count() for b in g.adj_bits)


def _flood(bits, start: int) -> int:
    """The mask of every vertex reachable from the vertices in ``start``."""
    comp = frontier = start
    while frontier:
        reach = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            reach |= bits[b.bit_length() - 1]
        frontier = reach & ~comp
        comp |= frontier
    return comp


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    if g.n == 0:
        raise ValueError("the empty graph has no components")
    comps = []
    left = (1 << g.n) - 1
    while left:
        comp = _flood(g.adj_bits, left & -left)  # from the least vertex not yet placed
        comps.append(_bits_to_tuple(comp))
        left ^= comp
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise ValueError("the empty graph has no components")
    return _flood(g.adj_bits, 1) == (1 << g.n) - 1


def is_complete(g: Graph) -> bool:
    if g.n == 0:
        raise ValueError("completeness of the empty graph is undefined")
    return all(b.bit_count() == g.n - 1 for b in g.adj_bits)


def _disjoint_paths(net: list[int], s: int, t: int, cap: int) -> int:
    """Maximum number of internally disjoint paths between non-adjacent
    s and t, capped at ``cap``: a max flow from out(s) to in(t) in the
    split network ``net`` of ``vertex_connectivity``.

    Every arc has capacity one, which is exact. k internally disjoint
    paths use distinct arcs, so they are a flow of value k; a flow splits
    into paths that share no inner split arc, so into internally disjoint
    paths. The split arcs of s and t lie on no simple path from out(s) to
    in(t), so their capacity does not matter either. No two arcs are
    antiparallel, so the residual network is one bitmask of arc heads per
    node. The flow starts with the path s, c, t through each common
    neighbour c, and each depth-first augmenting path adds one unit.
    """
    n = len(net) // 2
    source, sink = n + s, t
    common = net[source] & net[n + t]
    flow = common.bit_count()
    if flow >= cap:
        return cap
    residual = list(net)
    residual[source] ^= common
    residual[sink] |= common << n
    for c in _bits_to_tuple(common):
        residual[c] = 1 << source
        residual[n + c] ^= 1 << sink | 1 << c
    while flow < cap:
        parent = [-1] * len(net)
        seen, stack = 1 << source, [source]
        while stack and not seen >> sink & 1:
            u = stack.pop()
            new = residual[u] & ~seen
            seen |= new
            while new:
                w = (new & -new).bit_length() - 1
                new ^= 1 << w
                parent[w] = u
                stack.append(w)
        if not seen >> sink & 1:
            return flow
        v = sink
        while v != source:
            u = parent[v]
            residual[u] ^= 1 << v
            residual[v] |= 1 << u
            v = u
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity via unit-capacity max flow over one
    vertex-split network of bitmasks, built once per call and shared by
    every pair; the augmenting-path searches run on those bitmasks.

    The minimum over s-t flows with a pair strategy that fixes a
    minimum-degree vertex v and takes the minimum cut between v and each
    of its non-neighbors, and between each neighbor of v and that
    neighbor's non-neighbors. Any minimum cut misses v or misses some
    neighbor of v, so one of these pairs straddles it. The best cut
    starts at the minimum degree delta, as kappa <= delta, and each
    pair's flow stops at the best cut so far. So a disconnected graph
    and K1 give 0, and K_n, with no pair, gives n - 1.
    """
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    # node v is in(v) and n + v is out(v); net[x] masks the heads of x's
    # arcs, in(v) -> out(v) per vertex and out(x) -> in(y) per edge direction
    bits = g.adj_bits
    net = [1 << v for v in range(g.n, 2 * g.n)] + list(bits)
    v = min(range(g.n), key=lambda u: bits[u].bit_count())
    best = bits[v].bit_count()
    for s in (v, *_bits_to_tuple(bits[v])):
        for t in range(g.n):
            if t != s and not bits[s] >> t & 1:
                best = _disjoint_paths(net, s, t, best)
    return best
