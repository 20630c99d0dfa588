"""chamberforms: exact intersection matrices of bounded arrangement chambers.

Builds the integer matrix S and its q-deformation S_q for the bounded
chambers of a generic affine hyperplane arrangement (or affine oriented
matroid), computes exact determinants over Z and Z[q], and checks them
against the closed matroid-theoretic product formulas.
"""

__version__ = "0.1.0"

from .polyring import IntPoly, int_det, poly_det, poly_eval, q_integer
from .matroid import Matroid, Flat

__all__ = [
    "__version__",
    "IntPoly", "int_det", "poly_det", "poly_eval", "q_integer",
    "Matroid", "Flat",
]
