"""Open neighbourhood locating-dominating sets on small graphs.

Exact OLD numbers, forced-vertex analysis, half-graph construction and
recognition, and an exhaustive harness for the extremal
characterisation gamma_OL(G) = n iff G is a half-graph.
"""

from .domination import *
from .enumeration import *
from .graph6 import *
from .graphs import *
from .halfgraphs import *
from .harness import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += domination.__all__
__all__ += enumeration.__all__
__all__ += graph6.__all__
__all__ += graphs.__all__
__all__ += halfgraphs.__all__
__all__ += harness.__all__
