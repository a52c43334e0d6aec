#!/usr/bin/env python3
# Lexicographic products and their closed-form connectivity rules,
# checked live against brute force.
#
#   python demos/02_products_and_closed_forms.py

from lexiconn import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    lex_connectivity,
    lex_k1_connectivity,
    lex_product,
    path_graph,
    scan_cuts,
    star_graph,
    vertex_connectivity_oracle,
)

# The product places a copy of the right factor inside every vertex of
# the left factor and joins copies completely along left edges. Flat ids
# are row-major: copy j inside left vertex i is i * m + j.
c4, k2 = cycle_graph(4), complete_graph(2)
product = lex_product(c4, k2)
print(f"C4 o K2: {product.n} vertices, {product.num_edges} edges "
      f"(= 4*1 + 4*2^2 = {4 * 1 + 4 * 4})")
print("vertex (2,1) is flat id", 2 * k2.n + 1, "and id 5 splits back to", divmod(5, k2.n))

# Connectivity multiplies: kappa(G1 o G2) = kappa(G1) * |V(G2)| whenever
# the left factor is connected and not complete.
print("closed form kappa(C4 o K2) =", lex_connectivity(c4, k2),
      "| brute force =", vertex_connectivity_oracle(product))

# Complete left factors follow a different rule:
# kappa(K_n o G2) = (n-1) * |V(G2)| + kappa(G2).
k3, p3 = complete_graph(3), path_graph(3)
print("closed form kappa(K3 o P3) =", lex_connectivity(k3, p3),
      "| brute force =", vertex_connectivity_oracle(lex_product(k3, p3)))

print()

# The k1 story is richer. Every answer carries a branch label saying
# which rule fired, and a witness cut verified on the actual product.
pair_plus_isolated = disjoint_union(complete_graph(2), empty_graph(1))

examples = [
    ("P6 o P3 (left k1 equals kappa)", path_graph(6), p3),
    ("K1,3 o K2 (no isolation-free cut on the left, right has none isolated)", star_graph(3), k2),
    ("K1,3 o (K2+K1) (isolated right vertex inflates the answer)", star_graph(3), pair_plus_isolated),
]
for label, g1, g2 in examples:
    result = lex_k1_connectivity(g1, g2)
    oracle = scan_cuts(lex_product(g1, g2)).k1
    print(f"{label}:")
    print(f"   value {result.value} via branch {result.branch}, witness {result.witness}")
    print(f"   brute force agrees: {oracle == result.value}")

print()

# When the closed form cannot be trusted, the library refuses to guess.
# With an edgeless right factor no isolation-free cut of the product can
# exist unless the left factor already had one, so the witness check
# fails and the answer falls back to enumeration.
result = lex_k1_connectivity(star_graph(3), empty_graph(2))
print("K1,3 o 2K1:", result.value, "via branch", result.branch)
