"""Power-iteration operator norm: the tests' independent oracle for the
exact dense norms taken by ``nagaoka.spectral``."""

import numpy as np

from nagaoka.errors import ConvergenceError
from nagaoka.spectral import as_matrix

_SEED = 20240915


def operator_norm(a, tol: float = 1e-8, max_iter: int = 100_000) -> float:
    """Largest singular value by power iteration on A*A."""
    mat = as_matrix(a) if not isinstance(a, np.ndarray) else a
    if mat.shape[1] == 0 or mat.shape[0] == 0:
        return 0.0
    rng = np.random.default_rng(_SEED)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    adj = mat.conjugate().T if isinstance(mat, np.ndarray) else mat.conjugate().T.tocsr()
    sigma_prev, change_prev = 0.0, np.inf
    for _ in range(max_iter):
        w = adj @ (mat @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        sigma = float(np.sqrt(np.real(np.vdot(v, w))))
        v = w / norm_w
        change = abs(sigma - sigma_prev)
        # the iterates converge geometrically; extrapolate the remaining error
        # from the contraction ratio instead of trusting the last step alone,
        # with a safety margin since the ratio estimate itself is noisy
        rate = change / change_prev if change_prev > 0 else 0.0
        remaining = change * rate / (1.0 - rate) if rate < 1.0 else np.inf
        allowed = 0.05 * tol * max(sigma, 1e-300)
        if change <= allowed and remaining <= allowed:
            return sigma
        sigma_prev, change_prev = sigma, change
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {sigma_prev!r})")
