"""
Evening out replica counts with a deletion plan
===============================================

Uploads leave a lopsided replica distribution behind: well-known peers
accumulate copies. A deletion plan brings every chunk down to exactly
the target count without dropping any peer's last chunk of a file it
held, then a rules check verifies the result independently.
"""

from collections import Counter

from swarmsim import (
    CodingParams,
    SimConfig,
    bakedeletion,
    census,
    check_rules,
    combinestorage,
    deletechunks,
    listchunks,
    placement_from_network,
    spawn_network,
)
from swarmsim.netsim import SYNC_NONE
from swarmsim.seeds import seeded_bytes

network = spawn_network(SimConfig(num_peers=60, seed=11, view_size=12, ns=4))

manifests = [
    network.upload(seeded_bytes(150_000, "demo-norm", i), coding=CodingParams(k=3, n=4))
    for i in range(2)
]

before = census(network)
print("replicas per chunk after upload:", before.replicas_per_chunk)

files = {m.root.hex(): tuple(listchunks(m)) for m in manifests}
placement = placement_from_network(network, files)

# plan each file separately, then merge and re-verify jointly
target_r = 2
plans = [bakedeletion(placement.restrict(fid), target_r) for fid in sorted(files)]
deletions = combinestorage(plans, placement)
print("planned deletions:", len(deletions))

# deletions only make sense once the pull round stops resurrecting chunks
network.sync_mode = SYNC_NONE
report = deletechunks(network, deletions)
print("applied:", report.applied, "missing:", report.missing)

after = census(network)
print("replicas per chunk now:", after.replicas_per_chunk)

# verify rules A-D against the placement recomputed from the stores
holders_after = {
    addr: {pid for pid in network.peer_ids if addr in network.stores[pid]}
    for addr in placement.chunk_to_peers
}
rules = check_rules(placement, holders_after, target_r)
print("rules hold:", rules.ok)

per_peer = Counter(after.chunks_per_peer.values())
print("chunks per peer spread:", dict(sorted(per_peer.items())))
