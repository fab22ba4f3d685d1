"""The pairwise squared-Hausdorff kernel.

Bags are passed as one stacked instance matrix plus an offsets vector
(offsets[i] .. offsets[i+1] are the rows of bag i).

- **Exact at the realizing pair.** Per block, one gemm on instances
  augmented with their squared norms writes the expansion |a|² + |b|² − 2a·b
  into a reused buffer.  The expansion is used only to *choose*, for every
  (bag, bag) entry and each direction, the instance pair that realizes the
  max-min; that pair's squared distance is then recomputed from exact
  differences.  Identical point sets give exactly 0, swapping the two
  collections gives the same values, and a result differs from the defining
  formula only by the rounding of one difference-sum, or by the gap between
  two pairs the expansion cannot tell apart.
- **Memory bounded by the block budget.** Each collection's bags are ordered
  by size and cut into ranges whose padded size (bags × largest bag, a
  shorter bag repeating its last instance) is at most ``BLOCK`` instances,
  so every temporary holds O(BLOCK²) numbers whatever the total instance
  count.  A bag larger than ``BLOCK`` gets a range of its own.  Padding at
  most doubles a range, and it lets every block be a regular
  (position, bag, position, bag) array whose reductions are plain
  min/max along an axis.
- **Upper triangle only.** The one-argument form visits only the blocks on
  or above the diagonal and mirrors them; diagonal blocks are made exactly
  symmetric with a zero diagonal.
"""

import itertools
from typing import NamedTuple

import numpy as np

# padded instances per block side (bags in the range × its largest bag)
BLOCK = 512
# numbers per piece of the exact recomputation (fits in L2)
_PIECE = 1 << 15


class _Range(NamedTuple):
    bags: np.ndarray    # original indices of the range's bags
    n: int              # rows per bag: the range's largest bag
    X: np.ndarray       # (n·bags, d) instances, position-major: row k·bags + i
                        # is instance k of bag i; a shorter bag repeats its last
    left: np.ndarray    # rows [X, 1, |x|²] and [-2X, |x|², 1]: left_a @ right_b.T
    right: np.ndarray   # is the squared-distance expansion of a block


def _ranges(x, off):
    """Cut the bags, ordered by size, into ranges of at most BLOCK padded
    instances (a bag larger than BLOCK alone) whose padding at most doubles
    their instances."""
    x = np.asarray(x, dtype=np.float64)
    off = np.asarray(off, dtype=np.int64)
    sizes = np.diff(off)
    if sizes.size == 0 or sizes.min() < 1:
        raise ValueError("every bag needs at least one instance")
    order = np.argsort(sizes, kind="stable")

    # greedy over the size classes: a range takes the next bag unless its
    # padded size would pass BLOCK or twice its actual size; within a class
    # the second test only gets easier
    cuts, count, total, k = [0], 0, 0, 0
    for n, group in itertools.groupby(sizes[order].tolist()):
        c = sum(1 for _ in group)
        while c:
            if count and ((count + 1) * n > BLOCK or (count + 1) * n > 2 * (total + n)):
                cuts.append(k)
                count, total = 0, 0
            t = min(c, max(1, BLOCK // n - count))
            count, total, k, c = count + t, total + t * n, k + t, c - t
    cuts.append(k)

    # per instance [x, 1, |x|², -2x, |x|², 1]: a block's squared-distance
    # expansion is (left half of its rows) @ (right half of its columns).T
    d = x.shape[1]
    sq = np.einsum("ij,ij->i", x, x)[:, None]
    one = np.ones_like(sq)
    aug = np.concatenate([x, one, sq, -2.0 * x, sq, one], axis=1)

    ranges = []
    for b0, b1 in zip(cuts[:-1], cuts[1:]):
        bags = order[b0:b1]
        n = int(sizes[bags[-1]])
        pos = np.minimum(np.arange(n)[:, None], sizes[bags] - 1)
        rows = aug[(off[bags] + pos).ravel()]
        ranges.append(_Range(bags, n, rows[:, :d], rows[:, :d + 2], rows[:, d + 2:]))
    return ranges


def _exact_sq(xa, p, xb, q):
    """Squared distances between rows xa[p] and xb[q] from exact
    differences, in cache-sized pieces."""
    out = np.empty(p.shape)
    p, q, flat = p.ravel(), q.ravel(), out.reshape(-1)
    step = max(1, _PIECE // max(1, xa.shape[1]))
    for s in range(0, p.size, step):
        diff = np.take(xa, p[s:s + step], axis=0)
        diff -= np.take(xb, q[s:s + step], axis=0)
        flat[s:s + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _first(S, axis, best):
    """First index along ``axis`` at which S equals ``best``: an argmin or
    argmax, given the min or max, made of operations that are fast along
    any axis."""
    n = S.shape[axis]
    pos = np.arange(n).reshape([-1 if k == axis else 1 for k in range(S.ndim)])
    return np.where(S == best, pos, n).min(axis=axis)


def _block(ra: _Range, rb: _Range, work: np.ndarray) -> np.ndarray:
    """(bags of ra, bags of rb) squared Hausdorff distances; the expansion
    is written into ``work``, reused across blocks to spare page faults."""
    mI, nA, mJ, nB = ra.bags.size, ra.n, rb.bags.size, rb.n
    G = work[:nA * mI * nB * mJ].reshape(nA * mI, nB * mJ)
    np.matmul(ra.left, rb.right.T, out=G)
    G4 = G.reshape(nA, mI, nB, mJ)      # [a, i, b, j]: instance a of A-bag i
    flat = G.reshape(-1)                # against instance b of B-bag j
    i = np.arange(mI)[:, None]
    j = np.arange(mJ)[None, :]

    # a -> b: every A-row's min over each B-bag, the A-bag's farthest row,
    # then that row's nearest instance of the B-bag
    near = G4.min(axis=2)               # [a, i, j]
    d_ab = near.max(axis=0)
    p_ab = _first(near, 0, d_ab) * mI + i
    at = p_ab * (nB * mJ) + j
    b_step = np.arange(nB)[:, None, None] * mJ
    q_ab = _first(np.take(flat, at + b_step), 0, d_ab) * mJ + j

    # b -> a: every B-column's min over each A-bag, the B-bag's farthest
    # column, then that column's nearest instance of the A-bag
    far = G4.min(axis=0)                # [i, b, j]
    d_ba = far.max(axis=1)
    q_ba = _first(far, 1, d_ba[:, None]) * mJ + j
    at = i * (nB * mJ) + q_ba
    a_step = np.arange(nA)[:, None, None] * (mI * nB * mJ)
    p_ba = _first(np.take(flat, at + a_step), 0, d_ba) * mI + i

    d = _exact_sq(ra.X, np.stack([p_ab, p_ba]), rb.X, np.stack([q_ab, q_ba]))
    return d.max(axis=0)


def pairwise_sq_hausdorff(xa, offa, xb=None, offb=None):
    """Squared Hausdorff distances between two bag collections.

    xa: (na_total, d) stacked instances of the first collection
    offa: (ma+1,) int64 offsets delimiting each bag's rows
    Without xb/offb, returns the symmetric (ma, ma) matrix of the first
    collection with itself; otherwise an (ma, mb) float64 matrix.
    """
    A = _ranges(xa, offa)
    symmetric = xb is None
    B = A if symmetric else _ranges(xb, offb)
    out = np.empty((sum(r.bags.size for r in A), sum(r.bags.size for r in B)))
    work = np.empty(max(r.X.shape[0] for r in A) * max(r.X.shape[0] for r in B))
    for i, ra in enumerate(A):
        for rb in B[i:] if symmetric else B:
            # the reductions run along the column range's bags: put the
            # range with more bags there
            R = (_block(ra, rb, work) if ra.bags.size <= rb.bags.size
                 else _block(rb, ra, work).T)
            if symmetric and rb is ra:
                R = np.triu(R, 1)
                R += R.T
            elif symmetric:
                out[np.ix_(rb.bags, ra.bags)] = R.T
            out[np.ix_(ra.bags, rb.bags)] = R
    return out
