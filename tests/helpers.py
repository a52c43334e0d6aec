"""Independent brute-force oracles used only by the tests.

Everything here is written against plain dict-of-sets adjacency with its
own reachability code, so test expectations do not lean on the library
machinery they are checking.
"""

from itertools import combinations, permutations

from lexiconn import Graph


def adjacency(g: Graph) -> dict[int, set[int]]:
    return {v: {w for w in range(g.n) if g.adj_bits[v] >> w & 1} for v in range(g.n)}


def components_without(adj: dict[int, set[int]], banned: set[int]) -> list[set[int]]:
    left = set(adj) - banned
    comps = []
    while left:
        start = min(left)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in left and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(seen)
        left -= seen
    return comps


def brute_is_cut(g: Graph, cut) -> bool:
    banned = set(cut)
    comps = components_without(adjacency(g), banned)
    return len(comps) >= 2 or (len(comps) == 1 and len(comps[0]) == 1)


def brute_kappa(g: Graph) -> int:
    for size in range(g.n):
        for combo in combinations(range(g.n), size):
            if brute_is_cut(g, combo):
                return size
    raise AssertionError("every non-empty graph has a cut by size n - 1")


def brute_k1(g: Graph) -> int | None:
    """Smallest isolation-free cut size, None when there is none."""
    adj = adjacency(g)
    for size in range(max(g.n - 3, 0)):
        for combo in combinations(range(g.n), size):
            banned = set(combo)
            comps = components_without(adj, banned)
            if len(comps) < 2:
                continue
            if all(len(c) >= 2 for c in comps):
                return size
    return None


def brute_twin_classes(g: Graph) -> list[frozenset[int]]:
    """The twin classes of ``g``, ordered by their least vertex: u and v
    are twins when N(u) - v = N(v) - u."""
    adj = adjacency(g)
    classes = {frozenset(u for u in adj if adj[u] - {v} == adj[v] - {u}) for v in adj}
    return sorted(classes, key=min)


def brute_is_super(g: Graph) -> bool:
    adj = adjacency(g)
    comps = components_without(adj, set())
    if len(comps) != 1:
        return False
    if all(len(adj[v]) == g.n - 1 for v in adj):
        return True
    kappa = brute_kappa(g)
    for combo in combinations(range(g.n), kappa):
        banned = set(combo)
        parts = components_without(adj, banned)
        if len(parts) >= 2 and all(len(c) >= 2 for c in parts):
            return False
    return True


def brute_optimal_min_cut(g: Graph) -> tuple[tuple[int, ...], int]:
    """Over the minimum vertex cuts, the first in lex order leaving the
    fewest isolated vertices, and that count."""
    adj = adjacency(g)
    best = None
    for combo in combinations(range(g.n), brute_kappa(g)):
        if not brute_is_cut(g, combo):
            continue
        count = sum(1 for c in components_without(adj, set(combo)) if len(c) == 1)
        if best is None or count < best[1]:
            best = (combo, count)
    return best


def brute_least_isolating(g: Graph) -> tuple[tuple[int, ...], int]:
    """Over vertex cuts of every size, the first by size then lex order
    leaving the fewest isolated vertices, and that count."""
    adj = adjacency(g)
    best = None
    for size in range(g.n):
        for combo in combinations(range(g.n), size):
            if not brute_is_cut(g, combo):
                continue
            comps = components_without(adj, set(combo))
            count = sum(1 for c in comps if len(c) == 1)
            if best is None or count < best[1]:
                best = (combo, count)
    return best


def brute_product_adjacent(g1: Graph, g2: Graph, a: tuple[int, int], b: tuple[int, int]) -> bool:
    (i, j), (p, q) = a, b
    if i != p:
        return bool(g1.adj_bits[i] >> p & 1)
    return bool(g2.adj_bits[j] >> q & 1)


def graph_from_mask(n: int, mask: int) -> Graph:
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, [slots[k] for k in range(len(slots)) if mask >> k & 1])


def brute_class_key(g: Graph) -> tuple[int, int]:
    """(n, the least edge mask over all n! relabelings of g), with bit k
    of a mask the k-th pair (i, j), i < j, in lexicographic order."""
    adj = adjacency(g)
    slots = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    masks = (
        sum(1 << k for k, (i, j) in enumerate(slots) if p[j] in adj[p[i]])
        for p in permutations(range(g.n))
    )
    return g.n, min(masks)
