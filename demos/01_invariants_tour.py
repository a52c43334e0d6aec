#!/usr/bin/env python3
# A tour of the basic invariants: connectivity, isolation-free (k1)
# connectivity, and super connectivity, on a handful of small graphs.
#
# Run from the repository root after `pip install -e .`:
#   python demos/01_invariants_tour.py

from lexiconn import (
    bowtie_graph,
    cut_certificate,
    cycle_graph,
    enumerate_min_vertex_cuts,
    is_super_connected,
    k1_connectivity,
    min_degree,
    path_graph,
    scan_cuts,
    star_graph,
    vertex_connectivity,
    vertex_connectivity_oracle,
)

# Connectivity is the least number of vertices whose removal disconnects
# the graph (or shrinks it to a single vertex). The library computes it
# two unrelated ways: max flow on a vertex-split network, and literal
# subset enumeration. They must always agree.
for name, g in [
    ("path P6", path_graph(6)),
    ("cycle C6", cycle_graph(6)),
    ("star K1,3", star_graph(3)),
    ("bowtie", bowtie_graph()),
]:
    print(f"{name}: kappa={vertex_connectivity(g)} (oracle {vertex_connectivity_oracle(g)}), "
          f"delta={min_degree(g)}")

print()

# k1 connectivity forbids the cut from stranding isolated vertices.
# A star has no such cut at all: removing the center isolates every leaf,
# and nothing else disconnects it. That is the infinite case.
print("k1(P6) =", k1_connectivity(path_graph(6)), "via cut", scan_cuts(path_graph(6)).k1_cut)
print("k1(C6) =", k1_connectivity(cycle_graph(6)), "via cut", scan_cuts(cycle_graph(6)).k1_cut)
print("k1(K1,3) =", k1_connectivity(star_graph(3)))
print("k1(C5) =", k1_connectivity(cycle_graph(5)), "(a 5-cycle is too small to split into 2+2)")

print()

# Super connectivity asks whether every minimum cut isolates a vertex.
# C4 passes: both of its minimum cuts {0,2} and {1,3} leave two isolated
# vertices. C6 fails: cutting two opposite vertices leaves two paths.
for name, g in [("C4", cycle_graph(4)), ("C6", cycle_graph(6)), ("bowtie", bowtie_graph())]:
    print(f"{name}: super connected = {is_super_connected(g)}")
    for cert in enumerate_min_vertex_cuts(g):
        print(f"   minimum cut {cert.cut}: isolates {list(cert.isolated_after) or 'nothing'}")

print()

# One scan_cuts call records every cut fact above, plus the first minimum
# cut stranding the fewest vertices and that count. The count drives the
# product k1 formulas in demo 02.
for name, g in [("bowtie", bowtie_graph()), ("K1,3", star_graph(3)), ("C5", cycle_graph(5))]:
    scan = scan_cuts(g)
    print(f"{name}: best minimum cut {scan.optimal_cut} strands {scan.optimal_isolated} vertices")

print()
print("certificate JSON for the bowtie hub cut:")
print(cut_certificate(bowtie_graph(), (1,)).to_json())
