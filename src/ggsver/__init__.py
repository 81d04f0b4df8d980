"""Multi-GGS groups on p-regular rooted trees, verified on finite quotients.

The top level holds what a verification run needs; everything else is
imported from ggsver.portraits, ggsver.permgroups, ggsver.ggs and
ggsver.checks.
"""

__version__ = "0.1.0"

from .portraits import Perm
from .permgroups import PermGroup
from .ggs import GGSSpec, GroupSession, SpecError, build, validate
from .checks import CHECKS, Report, Verdict, run_all

__all__ = [
    "__version__",
    "validate",
    "build",
    "run_all",
    "SpecError",
    "GGSSpec",
    "GroupSession",
    "Report",
    "Verdict",
    "CHECKS",
    "PermGroup",
    "Perm",
]
