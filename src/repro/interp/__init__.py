"""IR interpreter, external functions, and execution traces.

Two engines execute IR on the same :class:`Machine` model: the
tree-walker (reference semantics) and the source compiler in
:mod:`repro.interp.srcgen` (``engine="source"``, the default fast
path).
"""

from .externals import (ExitProgram, GPU_SAFE, call_cost, default_externals,
                        external_signatures)
from .machine import ENGINES, Frame, Machine, MAX_CALL_DEPTH
from .srcgen import check_definitions, compile_function_source
from .trace import count_direction_switches, render_schedule, summarize_events

__all__ = [
    "check_definitions", "compile_function_source", "ExitProgram",
    "GPU_SAFE", "call_cost", "default_externals", "external_signatures",
    "ENGINES", "Frame", "Machine", "MAX_CALL_DEPTH",
    "count_direction_switches", "render_schedule", "summarize_events",
]
