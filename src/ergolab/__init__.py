"""ergolab: a numerical laboratory for quantitative ergodic averaging.

Finite-dimensional complex sequence spaces with a p-norm, iteration
operators with power-bound certificates, ergodic averages, fluctuation
counting and p-variation, metastability rates, dyadic martingale
decompositions, explicit fluctuation bounds, and the counterexample
family that shows those bounds are not vacuous.

Each module's `__all__` is its public API; the package re-exports all of them.
"""

__version__ = "0.1.0"
__all__: list[str] = []

from .averages import *
__all__ += averages.__all__
from .bounds import *
__all__ += bounds.__all__
from .counterexamples import *
__all__ += counterexamples.__all__
from .dyadic import *
__all__ += dyadic.__all__
from .errors import *
__all__ += errors.__all__
from .operators import *
__all__ += operators.__all__
from .spaces import *
__all__ += spaces.__all__
from .variation import *
__all__ += variation.__all__
