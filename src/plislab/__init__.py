"""Desk-scale laboratory for attribute-level privacy-loss analysis.

Train small models with differentiable-clipping DP-SGD, compute
per-subject privacy loss and its input susceptibility matrix (plus the
Fisher information view), and probe the link between susceptibility and
gradient-inversion reconstruction risk.  Import the modules themselves,
e.g. `from plislab import plis`; the package imports none of them.
"""

__version__ = "0.1.0"
