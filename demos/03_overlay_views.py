"""
Divergent routing views and how superpeers emerge
=================================================

Peers sort each other by XOR distance over 256-bit ids, but no peer sees
the whole swarm. Every view mixes a handful of well-known bootstrap
peers with a seeded random sample, so views disagree, and the bootstrap
peers end up inside far more views than anyone else. Upload traffic
follows views, so those peers collect outsized replica counts.
"""

import numpy as np

from swarmsim import (
    SimConfig,
    build_views,
    make_peer_ids,
    responsible_peers,
    spawn_network,
    xor_distance,
)

peers = make_peer_ids(200, seed=0)
print("first peer id:", peers[0].hex()[:16], "...")

# XOR distance orders the swarm differently around every target
a, b = peers[0], peers[1]
print("distance peer0 to peer1:", xor_distance(a, b).bit_length(), "bits")
ring = sorted(peers, key=lambda p: xor_distance(a, p))[:5]
print("five closest to peer0:", [p.hex()[:8] for p in ring])

# one row of peer indices per peer: row i is peer i's view, nearest first
table = build_views(peers, view_size=16, seed=0)
print("view table:", table.shape[0], "rows of", table.shape[1], "peer indices")

# membership counts: how many views contain each peer
counts = np.sort(np.bincount(table.ravel(), minlength=len(peers)))
median = counts[len(counts) // 2]
print("view in-degree median:", median, "max:", counts[-1])
print("a well-connected peer sits in", counts[-1], "views, a typical one in", median)

# distinct views: two peers rarely agree on who is close to a target
distinct = np.unique(np.sort(table, axis=1), axis=0)
print("distinct views among 200 peers:", len(distinct))

target = peers[50]
hoods = {
    responsible_peers(target, peers[i], [peers[j] for j in table[i]], 4)
    for i in range(20)
}
print("neighborhoods for one address, judged by 20 peers:",
      len(hoods), "different answers")

# a network routes over the same table: every network of a config shares
# one, and network.views maps each peer id to its RoutingView, built from
# the table on first access
network = spawn_network(SimConfig(num_peers=200, seed=0, view_size=16))
same = all(network.views[pid].known == {peers[j] for j in row}
           for pid, row in zip(peers, table.tolist()))
print("spawned network's views equal build_views' rows:", same)
path = network.route_path(peers[0], target)
print("greedy route from peer0 toward peer50:", len(path) - 1, "hops, ending",
      "at peer50" if path[-1] == target else "at a local minimum short of it")
