"""Exact multiplicities of points on Schubert varieties in Grassmannians.

Index vectors live in I(d, n), the strictly increasing d-tuples from
1..n. For a variety index i and a cell index j with j <= i componentwise,
the multiplicity is a positive integer computed here along five
independent routes (signed binomial determinant, poset recurrence,
alternating Vandermonde sum, separated product, and a partition
determinant for the base cell) so each can check the others. All
arithmetic is exact integer arithmetic.
"""

from .arith import *
from .difference import *
from .indices import *
from .matrices import *
from .multiplicity import *

__version__ = "0.1.0"

# Each module's __all__ is the one statement of what it makes public.
__all__ = (
    arith.__all__
    + difference.__all__
    + indices.__all__
    + matrices.__all__
    + multiplicity.__all__
)
