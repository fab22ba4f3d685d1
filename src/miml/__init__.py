"""MIML: a self-contained multi-instance multi-label learning toolkit.

Five learners (MimlBoost, MimlSvm, D-MimlSvm, InsDif, SubCod), seven
ranking-based evaluation criteria, bag-level Hausdorff clustering, set
kernels, and the in-house numerical solvers they run on.
"""

__version__ = "0.1.0"

from .core import Bag, Bags, MimlDataset, psi

__all__ = ["Bag", "Bags", "MimlDataset", "psi", "__version__"]
