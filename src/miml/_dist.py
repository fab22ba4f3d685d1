"""The pairwise squared-Hausdorff kernel.

Bags are passed as one stacked instance matrix plus an offsets vector
(offsets[i] .. offsets[i+1] are the rows of bag i).
"""

import numpy as np


def _cross_sqdist(xa, xb):
    # (na, nb) matrix of squared Euclidean distances, clipped at 0
    sq = (
        np.sum(xa * xa, axis=1)[:, None]
        + np.sum(xb * xb, axis=1)[None, :]
        - 2.0 * (xa @ xb.T)
    )
    return np.maximum(sq, 0.0)


def pairwise_sq_hausdorff(xa, offa, xb, offb):
    """Squared Hausdorff distances between two bag collections.

    xa: (na_total, d) stacked instances of the first collection
    offa: (ma+1,) int64 offsets delimiting each bag's rows
    Returns an (ma, mb) float64 matrix.
    """
    xa = np.ascontiguousarray(xa, dtype=np.float64)
    xb = np.ascontiguousarray(xb, dtype=np.float64)
    offa = np.asarray(offa, dtype=np.int64)
    offb = np.asarray(offb, dtype=np.int64)
    ma, mb = offa.size - 1, offb.size - 1

    sq = _cross_sqdist(xa, xb)
    # min over the columns of each B-bag, then max over the rows of each A-bag
    col_min = np.minimum.reduceat(sq, offb[:-1], axis=1)      # (na_total, mb)
    row_min = np.minimum.reduceat(sq, offa[:-1], axis=0)      # (ma, nb_total)
    a_to_b = np.maximum.reduceat(col_min, offa[:-1], axis=0)  # (ma, mb)
    b_to_a = np.maximum.reduceat(row_min, offb[:-1], axis=1)  # (ma, mb)
    return np.maximum(a_to_b, b_to_a)
