"""Instance kernels, the averaged set kernel on bags, and the joint Gram
matrix over all training bags and instances.

Objects are ordered bags first, then instances bag by bag; an instance is a
singleton bag, so one kernel covers every object pair.  The set kernel is
the mean of pairwise base-kernel values, which keeps bag self-similarity
scale-free in bag size.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Bags, MimlDataset


@dataclass(frozen=True)
class KernelSpec:
    """Base kernel on instances: rbf(gamma) or linear.

    gamma=None means the dimension-scaled default 1/d, resolved where the
    input dimension is known.
    """

    kind: str = "rbf"
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be > 0")

    def resolve_gamma(self, d: int) -> float:
        return self.gamma if self.gamma is not None else 1.0 / d

    def to_payload(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma}

    @staticmethod
    def from_payload(p: dict) -> "KernelSpec":
        return KernelSpec(kind=p["kind"], gamma=p["gamma"])


def instance_gram(spec: KernelSpec, Z: np.ndarray, Z2: np.ndarray = None) -> np.ndarray:
    """Base-kernel matrix between instance rows (vectorized)."""
    Z = np.asarray(Z, dtype=np.float64)
    W = Z if Z2 is None else np.asarray(Z2, dtype=np.float64)
    if Z.shape[1] != W.shape[1]:
        raise ValueError("dimension mismatch")
    if spec.kind == "linear":
        B = Z @ W.T
    else:
        gamma = spec.resolve_gamma(Z.shape[1])
        sq = (
            np.sum(Z * Z, axis=1)[:, None]
            + np.sum(W * W, axis=1)[None, :]
            - 2.0 * (Z @ W.T)
        )
        B = np.exp(-gamma * np.maximum(sq, 0.0))
    if Z2 is None:
        B = (B + B.T) / 2.0  # exact symmetry
    return B


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Joint (m+n) x (m+n) kernel matrix over ordered bags and instances.

    Index function: bag i -> i, instance j of bag i -> m + offsets[i] + j
    (0-based; offsets delimit each bag's rows in the stacked instance
    matrix).
    """

    values: np.ndarray
    m: int
    offsets: np.ndarray  # (m+1,)

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    @property
    def size(self) -> int:
        return self.m + self.n


def build_gram(spec: KernelSpec, ds: MimlDataset) -> GramMatrix:
    """Assemble the joint Gram over bags and instances from one instance-level
    base-kernel matrix plus per-bag block means."""
    bags = ds.bags()
    m, Z, sizes = len(bags), bags.X, bags.sizes
    B = instance_gram(spec, Z)

    n = Z.shape[0]
    S = np.zeros((m, n))
    S[np.repeat(np.arange(m), sizes), np.arange(n)] = np.repeat(1.0 / sizes, sizes)
    G_bi = S @ B
    G_bb = G_bi @ S.T
    G_bb = (G_bb + G_bb.T) / 2.0

    K = np.empty((m + n, m + n))
    K[:m, :m] = G_bb
    K[:m, m:] = G_bi
    K[m:, :m] = G_bi.T
    K[m:, m:] = B
    return GramMatrix(values=K, m=m, offsets=bags.offsets)


def kernel_against_objects(spec: KernelSpec, bags: Bags, queries: Bags) -> np.ndarray:
    """Set-kernel values between q query bags and all m+n training objects
    (bags first, then every instance as a singleton bag), as an (m+n, q)
    matrix from one instance-level kernel call."""
    C = instance_gram(spec, bags.X, queries.X)    # (n, query instances)
    q_offsets, offsets = queries.offsets, bags.offsets
    inst_vals = np.add.reduceat(C, q_offsets[:-1], axis=1) / np.diff(q_offsets)
    bag_vals = np.add.reduceat(inst_vals, offsets[:-1], axis=0) / np.diff(offsets)[:, None]
    return np.vstack([bag_vals, inst_vals])
