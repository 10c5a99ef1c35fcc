"""Exact symbolic verification of quantum superconformal geometry.

Layers: exact scalars over Q(i)[q, q^-1]; a parity-graded rewriting
core on one pure-Python kernel; the quantum matrix superalgebra,
Grassmannian and chiral Minkowski superspace; the classical (q = 1)
geometry and real forms; and a verification CLI that runs its checks
serially.
"""

from .kernel import backend_name
from .scalars import Scalar, ScalarFraction

__version__ = "0.1.0"

__all__ = ["Scalar", "ScalarFraction", "backend_name", "__version__"]
