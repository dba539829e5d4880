"""The per-block route of ``nagaoka.spectral.ground_cluster``: the tests'
second route for the stacked small-block solves and the array bookkeeping
that combines them.

Every connected block is its own list entry, solved on its own by one
``_lowest_levels`` call on its slice of the block-ordered matrix, and the
ground cluster is assembled one zero-padded column block per block.  The
arithmetic of each solve is the production one, so tests can require equal
arrays.
"""

import numpy as np

from nagaoka.spectral import CLUSTER_TOL, _lowest_levels, sign_structure


def block_levels(mat):
    """One ``(index, values, vectors)`` entry per block and the global
    ground energy.  Asserts that every block holds its levels up to the
    first one above the global ground cluster, or all of them."""
    order, sizes, re_max, _ = sign_structure(mat)
    pf = (re_max < 0) & (not np.iscomplexobj(mat.data))
    permuted = mat[order][:, order]
    parts = []
    for end, size, flag in zip(np.cumsum(sizes), sizes, pf):
        span = slice(end - size, end)
        parts.append((order[span], *_lowest_levels(permuted[span, span], flag)))
    e0 = min(vals[0] for _, vals, _ in parts)
    tol = CLUSTER_TOL * (1.0 + abs(e0))
    for idx, vals, _ in parts:
        assert vals.size == idx.size or np.any(vals - e0 > tol), \
            "a block's levels end inside the global ground cluster"
    return parts, e0


def ground_cluster(mat):
    """``spectral.ground_cluster`` from ``block_levels``: the cluster columns
    block by block, e0, the degeneracy, the gap and the ground vector of the
    first block with the least lowest value."""
    parts, e0 = block_levels(mat)
    tol = CLUSTER_TOL * (1.0 + abs(e0))
    columns = []
    for idx, vals, vecs in parts:
        column = np.zeros((mat.shape[0], np.count_nonzero(vals - e0 <= tol)), vecs.dtype)
        column[idx] = vecs[:, :column.shape[1]]
        columns.append(column)
    cluster = np.hstack(columns)
    levels = np.sort(np.concatenate([vals for _, vals, _ in parts]))
    above = levels[levels - e0 > tol]
    gap = float(above[0] - e0) if above.size else 0.0
    idx, _, vecs = min(parts, key=lambda part: part[1][0])
    v0 = np.zeros(mat.shape[0], dtype=vecs.dtype)
    v0[idx] = vecs[:, 0]
    return cluster, e0, cluster.shape[1], gap, v0
