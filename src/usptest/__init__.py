"""Independence testing for contingency tables.

The centerpiece is the USP test: an exact permutation test built on an
unbiased estimator of the dependence measure sum((p_ij - q_i r_j)^2).
Classic Pearson chi-squared and G (likelihood-ratio) tests are included,
in both their asymptotic and permutation forms, together with simulation
utilities for power studies, estimator diagnostics, and the asymptotic
size instability of the classic tests under sparsity.
"""

from . import asymptotics, datasets, errors, numerics, permutation, simulate, stats, table
from .asymptotics import *  # noqa: F403
from .datasets import *  # noqa: F403
from .errors import *  # noqa: F403
from .numerics import *  # noqa: F403
from .permutation import *  # noqa: F403
from .simulate import *  # noqa: F403
from .stats import *  # noqa: F403
from .table import *  # noqa: F403

__version__ = "0.1.0"

# the package exports each module's public names, and the lazy CLI entry point
__all__ = [
    *(
        name
        for module in (asymptotics, datasets, errors, numerics, permutation, simulate, stats, table)
        for name in module.__all__
    ),
    "main",
    "__version__",
]


def main(argv=None):
    """Entry point for the ``usptest`` command line tool."""
    from .cli import main as _cli_main

    return _cli_main(argv)
