"""Minimum-norm least squares via singular value decomposition."""

import numpy as np


def lstsq_svd(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimum-Frobenius-norm W minimizing ||design @ W - targets||_F.

    Rank deficiency is handled by zeroing singular values below
    max(p, M) * machine eps * s_max.
    """
    Phi = np.asarray(design, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    if Phi.ndim != 2:
        raise ValueError("design must be 2-d")
    squeeze = T.ndim == 1
    if squeeze:
        T = T[:, None]
    if T.shape[0] != Phi.shape[0]:
        raise ValueError("row count mismatch between design and targets")

    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    cutoff = max(Phi.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    W = Vt.T @ (inv[:, None] * (U.T @ T))
    return W[:, 0] if squeeze else W
