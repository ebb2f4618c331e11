"""Exception hierarchy shared by every repro subsystem.

All errors raised by the compiler, runtime, and simulators derive from
:class:`ReproError` so callers can catch the whole family at once.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class IRError(ReproError):
    """Malformed IR detected while building or verifying a module."""


class IRParseError(IRError):
    """The textual IR parser rejected its input."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class FrontendError(ReproError):
    """A MiniC source program failed to lex, parse, or type-check.

    Renders as ``name:line:column: message``; ``name`` is the source's
    name (attached by :func:`repro.frontend.compile_minic`), and each
    location part is left out when unknown.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.name = ""

    def __str__(self) -> str:
        location = [self.name] if self.name else []
        if self.line:
            location += [str(self.line), str(self.column)]
        prefix = ":".join(location)
        return f"{prefix}: {self.message}" if prefix else self.message


class MemoryFault(ReproError):
    """An out-of-bounds or cross-address-space memory access.

    Raised by the simulated flat memories when a load, store, or copy
    touches bytes outside any live allocation, and in particular when a
    GPU pointer is dereferenced by CPU code or vice versa -- the exact
    bug class CGCM exists to prevent.
    """

    def __init__(self, message: str, address: int = 0):
        super().__init__(message)
        self.address = address


class InterpError(ReproError):
    """The IR interpreter hit an unrecoverable condition (bad opcode,
    call to an unknown function, division by zero, ...)."""


class CgcmRuntimeError(ReproError):
    """The CGCM run-time library was used incorrectly at execution time
    (unmapping a never-mapped pointer, releasing below a zero reference
    count, mapping an untracked allocation unit, ...)."""


class CgcmUnsupportedError(ReproError):
    """The program violates a documented CGCM restriction: pointers with
    three or more degrees of indirection, or kernels that store pointers
    into memory (paper section 2.3)."""


class GpuError(ReproError):
    """The simulated GPU driver rejected an operation (double free,
    unknown module global, out-of-range copy, ...)."""


class GpuOomError(GpuError):
    """``cuMemAlloc`` failed: the device heap is exhausted (or the
    fault injector decided it is).  ``transient`` distinguishes an
    injected hiccup (retry may succeed unchanged) from genuine
    capacity pressure (only freeing device memory can help)."""

    def __init__(self, message: str, size: int = 0,
                 transient: bool = False):
        super().__init__(message)
        self.size = size
        self.transient = transient


class GpuTransferError(GpuError):
    """A ``cuMemcpy`` in either direction failed transiently (bus
    fault injected by the resilience layer); the copy had no data
    effect and may be retried."""

    def __init__(self, message: str, address: int = 0, size: int = 0):
        super().__init__(message)
        self.address = address
        self.size = size


class GpuLaunchError(GpuError):
    """A kernel launch was rejected by the driver (injected fault);
    no thread of the grid ran."""

    def __init__(self, message: str, kernel: str = "", grid: int = 0):
        super().__init__(message)
        self.kernel = kernel
        self.grid = grid


class ConfigError(ReproError, ValueError):
    """A :class:`repro.core.config.CgcmConfig` combines flags that
    cannot work together; the message says which and what to change.

    Also a ``ValueError`` so pre-existing callers that caught the
    engine validation keep working.
    """


class UnknownWorkloadError(ReproError, KeyError):
    """A workload name is not one of the 24 paper benchmarks.

    Also a ``KeyError`` so name lookups keep their mapping semantics.
    """

    def __str__(self) -> str:
        # KeyError quotes its message; report it plainly.
        return str(self.args[0]) if self.args else ""


class TransformError(ReproError):
    """A compiler pass could not be applied to the given IR."""


class TransformValidationError(TransformError):
    """Translation validation rejected a pipeline pass: a before/after
    IR pair violates the pass's declared legality contract
    (``transforms/contract``).  Raised at the end of the pipeline when
    compiling with ``CgcmConfig(validate=True)``; carries the full
    :class:`~repro.core.compiler.CompileReport` (``report``) and the
    error-severity findings (``findings``) for reporting."""

    def __init__(self, report: "object", findings: "list"):
        stages = []
        for finding in findings:
            if finding.unit and finding.unit not in stages:
                stages.append(finding.unit)
        where = ", ".join(stages) if stages else "pipeline"
        super().__init__(
            f"translation validation failed after {where}: "
            f"{len(findings)} contract violation"
            f"{'s' if len(findings) != 1 else ''} "
            f"(first: {findings[0].render() if findings else '?'})")
        self.report = report
        self.findings = findings
