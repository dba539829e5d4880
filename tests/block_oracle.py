"""The per-block route of ``nagaoka.spectral.ground_cluster``: the tests'
second route for the stacked small-block solves and the array bookkeeping
that combines them.

Every connected block is its own list entry, solved on its own by
``_lowest_levels`` from its slice of the block-ordered matrix, and the
ground cluster is assembled one zero-padded column block per block.  The
arithmetic of each solve is the production one, so tests can require equal
arrays.
"""

import numpy as np

from nagaoka.spectral import CLUSTER_TOL, _lowest_levels, sign_structure


def block_levels(mat):
    """One ``[index, block, values, vectors]`` entry per block and the global
    ground energy; every block holds its levels up to the first one above
    the global ground cluster."""
    blocks, re_max, _ = sign_structure(mat)
    pf = (re_max < 0) & (not np.iscomplexobj(mat.data))
    if len(blocks) == 1:
        parts = [[blocks[0], mat, *_lowest_levels(mat, pf[0])]]
    else:
        order = np.concatenate(blocks)
        permuted = mat[order][:, order]
        parts = []
        for idx, end, flag in zip(blocks, np.cumsum([idx.size for idx in blocks]), pf):
            block = permuted[end - idx.size:end, end - idx.size:end]
            parts.append([idx, block, *_lowest_levels(block, flag)])
    e0 = min(vals[0] for _, _, vals, _ in parts)
    tol = CLUSTER_TOL * (1.0 + abs(e0))
    for part, flag in zip(parts, pf):
        idx, block, vals, _ = part
        if not np.any(vals - e0 > tol) and vals.size < idx.size:
            part[2:] = _lowest_levels(block, flag, ref=e0)
    return parts, e0


def ground_cluster(mat):
    """``spectral.ground_cluster`` from ``block_levels``: the cluster columns
    block by block, e0, the degeneracy, the gap and the ground vector of the
    first block with the least lowest value."""
    parts, e0 = block_levels(mat)
    tol = CLUSTER_TOL * (1.0 + abs(e0))
    columns = []
    for idx, _, vals, vecs in parts:
        column = np.zeros((mat.shape[0], np.count_nonzero(vals - e0 <= tol)), vecs.dtype)
        column[idx] = vecs[:, :column.shape[1]]
        columns.append(column)
    cluster = np.hstack(columns)
    levels = np.sort(np.concatenate([part[2] for part in parts]))
    above = levels[levels - e0 > tol]
    gap = float(above[0] - e0) if above.size else 0.0
    idx, _, _, vecs = min(parts, key=lambda part: part[2][0])
    v0 = np.zeros(mat.shape[0], dtype=vecs.dtype)
    v0[idx] = vecs[:, 0]
    return cluster, e0, cluster.shape[1], gap, v0
