"""wftas: a randomized wait-free two-process test-and-set built from
four-valued single-writer single-reader atomic registers, with an
exhaustive correctness checker, exact expected-cost solver,
linearizability checkers, a simulation harness, and the (broken)
n-process tournament extension.
"""

from . import automata, checker, core, expectation, goldens, harness, linearize, protocol, tournament
from .core import Access, Event, OpRecord, RegValue, Trace
from .protocol import ProcState

__version__ = "0.1.0"

__all__ = [
    "automata",
    "checker",
    "core",
    "expectation",
    "goldens",
    "harness",
    "linearize",
    "protocol",
    "tournament",
    "Access",
    "Event",
    "OpRecord",
    "RegValue",
    "Trace",
    "ProcState",
    "__version__",
]
