"""
Erasure coding the whole tree, not just the leaves
==================================================

Every non-root tree level is cut left to right into groups of k chunks
and each group gets n - k parity chunks. Any k of the n survive a group.
Coding only the leaves looks cheaper but a lost internal chunk then
takes its whole subtree with it.
"""

import itertools
from dataclasses import replace

from swarmsim import (
    ChunkParams,
    CodingParams,
    MissingChunkError,
    UnrecoverableGroupError,
    build_tree,
    encode_tree,
    repair_retrieve,
    rs_decode,
    rs_encode,
    split_file,
)
from swarmsim.seeds import seeded_bytes

# one group: 4 data chunks, 2 parity chunks, decode from any 4 of 6
params = CodingParams(k=4, n=6)
group = [seeded_bytes(4096, "demo-rs", i) for i in range(4)]
parity = rs_encode(group, params)
codeword = group + parity

survived_all = True
for gone in itertools.combinations(range(6), 2):
    present = [(i, codeword[i]) for i in range(6) if i not in gone]
    decoded = rs_decode(present, params, [len(p) for p in group])
    survived_all = survived_all and decoded == group
print("all", len(list(itertools.combinations(range(6), 2))),
      "double erasures decoded:", survived_all)

# now a 9-leaf tree coded at k=3, n=4 across every non-root level
chunk_params = ChunkParams(chunk_size=4096, branching=3)
data = seeded_bytes(36_864, "demo-tree-coding")
manifest, chunks = build_tree(split_file(data, chunk_params), chunk_params)
encoded, parity_chunks = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
print("coding groups:", [(g.level, len(g.data_addresses)) for g in encoded.groups])

store = dict(chunks)
store.update(parity_chunks)

# drop one internal chunk: the address list for leaves 0..2
del store[manifest.levels[1][0]]

# a leaf-only code has no parity covering that level
leaf_only = replace(encoded, groups=[g for g in encoded.groups if g.level == 0])
try:
    repair_retrieve(manifest.root, store.get, leaf_only)
    print("leaf-only coding: recovered (unexpected)")
except (MissingChunkError, UnrecoverableGroupError) as exc:
    print("leaf-only coding fails:", exc)

repaired = []
restored = repair_retrieve(
    manifest.root, store.get, encoded, on_group_repaired=repaired.append
)
print("full-tree coding recovers the file:", restored == data)
print("groups repaired on the way:", [(g.level,) for g in repaired])
