"""Invariant distances on disk-like complex domains, contraction certificates
for nested domains, and a certified holomorphic fixed-point solver.

The pieces fit together like this: :mod:`~cmetric.metric_core` provides the
Poincare distance on the unit disk; :mod:`~cmetric.domains` extends it to
exact Caratheodory distances on scaled/affine disks, polydisks and their
affine images; :mod:`~cmetric.contraction` certifies that a domain nested
strictly inside another contracts the ambient metric by k = tanh(diameter);
and :mod:`~cmetric.fixed_point` turns that constant into geometric-rate
iteration with certified error bounds.  :mod:`~cmetric.holomaps` supplies the
structurally holomorphic maps everything is checked against, and
:mod:`~cmetric.cli` exposes the lot as the ``cmetric`` command.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import errors, metric_core, domains, holomaps, contraction, fixed_point
from .errors import *
from .metric_core import *
from .domains import *
from .holomaps import *
from .contraction import *
from .fixed_point import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, metric_core, domains, holomaps, contraction, fixed_point)
    for name in module.__all__
]
