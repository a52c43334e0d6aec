#!/usr/bin/env python3
# Why "super connected" does not simply transfer to products.
#
# If the right factor is disconnected and has an isolated vertex, a
# SUPER-connected left factor forces the product to be super connected.
# This demo shows the hypothesis on the left factor is not optional:
# the bowtie (two triangles sharing a hub) is NOT super connected, and
# its product inherits a minimum cut that strands nobody. The exact rule
# answers that case from the factors alone, with branch left_not_super.
#
#   python demos/03_bowtie_counterexample.py

from lexiconn import (
    bowtie_graph,
    complete_graph,
    cut_certificate,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_min_vertex_cuts,
    is_super_connected,
    lex_product,
    lex_super_connected,
    lift_min_cut,
    vertex_connectivity,
)

bowtie = bowtie_graph()
print("bowtie edges:", bowtie.edges())
print("kappa =", vertex_connectivity(bowtie))
for cert in enumerate_min_vertex_cuts(bowtie):
    print("minimum cut", cert.cut, "isolates", list(cert.isolated_after) or "nothing")
print("super connected:", is_super_connected(bowtie))
print()

# Right factor: one edge plus an isolated vertex (disconnected, with an
# isolated vertex). For a super-connected left factor like C4 the rule
# answers True with branch part3, and the brute force agrees.
right = disjoint_union(complete_graph(2), empty_graph(1))
verdict, branch = lex_super_connected(cycle_graph(4), right)
print("C4 o (K2+K1):", verdict, "via", branch)
print("   brute force:", is_super_connected(lex_product(cycle_graph(4), right)))
print()

# Swap in the bowtie. Lifting its hub cut {1} gives the three copies of
# the hub, which is still a minimum cut of the 15-vertex product, and it
# isolates nothing: both sides of the cut keep their edges.
product = lex_product(bowtie, right)
lifted = lift_min_cut((1,), right.n)
cert = cut_certificate(product, lifted)
print("bowtie o (K2+K1): lifted hub cut", lifted)
print("   size", len(lifted), "== kappa(product) ==", vertex_connectivity(product))
print("   is a minimum cut:", cert.is_minimum)
print("   isolates:", list(cert.isolated_after) or "nothing")
verdict, branch = lex_super_connected(bowtie, right)
print("   super connected:", verdict, "via", branch)
