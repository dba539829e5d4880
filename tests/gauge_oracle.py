"""Balance gauge search: the tests' oracle for the +-1 gauges the sector
forms state.

A real symmetric matrix has a gauge s (s_i = +-1) with s_i s_j H_ij <= 0
for every off-diagonal entry iff its signed graph is balanced (Harary,
Michigan Math. J. 2, 143 (1953)), and one breadth-first two-colouring per
connected component decides it: a positive entry asks s_j = -s_i, a
negative one s_j = s_i, and a stored zero asks nothing.  Production code
only verifies a stated gauge, which costs one pass over the entries; this
search is the second route.
"""

from collections import deque
from itertools import product

import numpy as np
import scipy.sparse as sp


def balance_gauge(mat):
    """(gauge, None) with gauge an int8 array of +-1, the first vertex of
    each component at +1, where every off-diagonal s_i s_j H_ij <= 0; or
    (None, (i, j)), the first entry found that no gauge satisfies, which a
    complex entry with a nonzero imaginary part always is."""
    csr = sp.csr_matrix(mat)
    n = csr.shape[0]
    gauge = np.zeros(n, dtype=np.int8)
    for root in range(n):
        if gauge[root]:
            continue
        gauge[root] = 1
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for k in range(csr.indptr[i], csr.indptr[i + 1]):
                j, value = int(csr.indices[k]), csr.data[k]
                if j == i or value == 0:
                    continue
                if np.iscomplexobj(value) and value.imag != 0:
                    return None, (i, j)
                wanted = -gauge[i] if value.real > 0 else gauge[i]
                if not gauge[j]:
                    gauge[j] = wanted
                    queue.append(j)
                elif gauge[j] != wanted:
                    return None, (i, j)
    return gauge, None


def brute_force_gauges(dense: np.ndarray) -> list[np.ndarray]:
    """Every +-1 gauge of the real matrix ``dense`` with all off-diagonal
    s_i s_j H_ij <= 0, by trying all 2^n."""
    off = dense - np.diag(np.diag(dense))
    return [s for s in map(np.array, product((1, -1), repeat=dense.shape[0]))
            if np.all(s[:, None] * off * s[None, :] <= 0)]
