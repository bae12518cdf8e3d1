"""Exact tools for pattern avoidance in set partitions: containment tests
with witnesses, avoider counting and streaming, growth-rate diagnostics,
constructive bounds, and the equivalent directed-graph view.

The package exports every name that its five library modules list in
their own ``__all__``."""

from . import containment, core, dacp, enumeration, formulas
from .containment import *  # noqa: F403
from .core import *  # noqa: F403
from .dacp import *  # noqa: F403
from .enumeration import *  # noqa: F403
from .formulas import *  # noqa: F403

__all__ = sorted(
    {*containment.__all__, *core.__all__, *dacp.__all__, *enumeration.__all__, *formulas.__all__}
)

__version__ = "0.1.0"
