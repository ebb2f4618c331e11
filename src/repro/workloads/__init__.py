"""The 24 benchmark programs of the paper's evaluation (section 6.2).

16 PolyBench, 6 Rodinia, 1 StreamIt, 1 PARSEC -- all ported to MiniC
with scaled-down problem sizes (timing is modelled, so size changes
wall-clock, not shape).  Access them by name via :func:`get_workload`
or iterate :data:`ALL_WORKLOADS`.
"""

from ..errors import UnknownWorkloadError
from .data import PaperRow, Workload
from .polybench import POLYBENCH
from .rodinia import RODINIA
from .streamit_parsec import PARSEC, STREAMIT

ALL_WORKLOADS = tuple(POLYBENCH + RODINIA + STREAMIT + PARSEC)

_BY_NAME = {w.name: w for w in ALL_WORKLOADS}


def get_workload(name: str) -> Workload:
    """Look up one of the 24 benchmarks by its paper name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; known: {known}") from None


def workload_names() -> tuple:
    return tuple(w.name for w in ALL_WORKLOADS)


__all__ = ["PaperRow", "Workload", "ALL_WORKLOADS", "POLYBENCH", "RODINIA",
           "STREAMIT", "PARSEC", "get_workload", "workload_names"]
