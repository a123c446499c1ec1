"""Structured diagnostics for pipeline failures.

Every failure escaping a :class:`~repro.resilience.pipeline.PassPipeline`
stage is a :class:`StageError` carrying a :class:`StageContext`: which
stage failed, for which function, at which register count, under which
allocator, and — when the input came from the fuzzer — the generator seed
that reproduces it.  The harness uses the context to decide *where* in the
fallback chain to retry, and the triage tool serializes it into repro
bundles, so the same structure serves containment and forensics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class StageContext:
    """Everything needed to reproduce one stage execution.

    All fields are optional: the front-end stages know no allocator, the
    benchmark harness knows no seed.  ``extra`` absorbs ad-hoc facts
    (probe point fired, region name, ...) without schema churn.
    """

    stage: str
    program: Optional[str] = None
    function: Optional[str] = None
    allocator: Optional[str] = None
    k: Optional[int] = None
    seed: Optional[int] = None
    filename: Optional[str] = None
    granularity: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"stage={self.stage}"]
        for label, value in (
            ("program", self.program),
            ("function", self.function),
            ("allocator", self.allocator),
            ("k", self.k),
            ("seed", self.seed),
            ("file", self.filename),
            ("granularity", self.granularity),
        ):
            if value is not None:
                parts.append(f"{label}={value}")
        for key, value in sorted(self.extra.items()):
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"stage": self.stage}
        for key in (
            "program",
            "function",
            "allocator",
            "k",
            "seed",
            "filename",
            "granularity",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


class StageError(Exception):
    """A pipeline stage failed; carries the stage context and root cause."""

    def __init__(
        self,
        message: str,
        context: StageContext,
        cause: Optional[BaseException] = None,
    ):
        super().__init__(message)
        self.message = message
        self.context = context
        self.cause = cause

    @property
    def stage(self) -> str:
        return self.context.stage

    def render(self) -> str:
        """Multi-line human-readable diagnostic (used by the CLI)."""
        lines = [f"error: {self.message}", f"  where: {self.context.describe()}"]
        if self.cause is not None and str(self.cause) != self.message:
            lines.append(
                f"  cause: {type(self.cause).__name__}: {self.cause}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"[{self.context.stage}] {self.message}"

    def freeze(self) -> Dict[str, Any]:
        """Pickle-safe snapshot for transport across process boundaries.

        The parallel sweep's workers return failures as plain data
        rather than raised exceptions, so an unpicklable ``cause``
        (exceptions pickle by ``args``, which this hierarchy does not
        round-trip) can never poison the pool.  The cause survives as
        its rendered ``Type: message`` text.
        """
        payload: Dict[str, Any] = {
            "kind": _kind_of(self),
            "message": self.message,
            "context": self.context.as_dict(),
            "cause": None
            if self.cause is None
            else f"{type(self.cause).__name__}: {self.cause}",
        }
        if isinstance(self, MiscompileError):
            payload["divergence_index"] = self.divergence_index
            payload["expected"] = list(self.expected)
            payload["actual"] = list(self.actual)
        return payload

    @staticmethod
    def thaw(payload: Dict[str, Any]) -> "StageError":
        """Rebuild a (sub)class instance from :meth:`freeze` output."""
        context = StageContext(**payload["context"])
        cause = (
            None if payload["cause"] is None else RuntimeError(payload["cause"])
        )
        if payload["kind"] == "miscompile":
            error: StageError = MiscompileError(
                payload["message"],
                context,
                payload["divergence_index"],
                payload["expected"],
                payload["actual"],
            )
            error.cause = cause
            return error
        cls = _VALIDATION_KINDS.get(payload["kind"], StageError)
        return cls(payload["message"], context, cause)


class MiscompileError(StageError):
    """Allocated code produced observably different output than the
    reference execution — the one error class that means *wrong code*, not
    a crash.  Carries the first divergence index and both streams so the
    triage tool can bundle them without re-running anything."""

    def __init__(
        self,
        message: str,
        context: StageContext,
        divergence_index: int,
        expected: Sequence[Any],
        actual: Sequence[Any],
    ):
        super().__init__(message, context)
        self.divergence_index = divergence_index
        self.expected = list(expected)
        self.actual = list(actual)

    def render(self) -> str:
        lines = [super().render(), f"  first divergence at output index {self.divergence_index}"]
        lines.append(f"  expected: {_clip(self.expected, self.divergence_index)}")
        lines.append(f"  actual:   {_clip(self.actual, self.divergence_index)}")
        return "\n".join(lines)


class MotionValidationError(StageError):
    """The spill-code motion phase emitted an unsound hoist: a hoisted
    load/store is not anticipated on all the paths it now covers, the
    carried register does not mirror its slot throughout the loop, or a
    required trailing store is missing.  Raised by the independent motion
    validator (:mod:`repro.resilience.validators`), which recomputes
    availability from scratch rather than trusting the phase's own
    analysis; ``context.extra`` pins the loop region and slot."""


class ScheduleValidationError(StageError):
    """The list scheduler emitted an order that is not a topological order
    of the block's dependence DAG (or dropped/duplicated instructions, or
    regressed the schedule length).  Raised by the independent scheduler
    validator, which re-derives the must-precede pairs from the *original*
    order and checks the scheduled order against them; ``context.extra``
    pins the block and the violated pair."""


class PeepholeValidationError(StageError):
    """A Figure-6 peephole rewrite changed the observable semantics of a
    basic block: the symbolic before/after execution disagrees on the
    final register file, the symbolic memory, or the observable event
    trace.  Raised by the independent peephole validator; ``context.extra``
    pins the block window and the first disagreement."""


class SSAValidationError(StageError):
    """SSA construction is structurally or semantically wrong: a value
    with zero or multiple definitions, a phi whose arity disagrees with
    its block's predecessors, a definition that fails to dominate a use,
    or — the semantic recheck — a use renamed to an SSA value whose
    feeding original definitions do not all reach that use (a stale-def
    renaming bug).  Raised by the independent SSA-construction validator,
    which recomputes reaching definitions of every original register (one
    solve) on the aligned pre-rename snapshot."""


class DestructValidationError(StageError):
    """Out-of-SSA destruction emitted a wrong copy sequence for some CFG
    edge: after symbolically replaying the inserted window at the
    location (color) level, a phi destination does not hold the value its
    incoming argument held on entry (lost copy / swapped cycle), or a
    live-through value was clobbered.  Raised by the independent
    destruction validator; ``context.extra`` pins the edge."""


class ChordalValidationError(StageError):
    """The chordal-coloring claim failed its independent recheck: the
    elimination order is not perfect (some value's earlier neighbors do
    not form a clique), a value saw ``k`` or more earlier neighbors
    (a coloring-time spill would have been needed), two interfering
    values share a color, or spill slots appeared after the spill phase
    ended.  Raised by the chordal validator, which rebuilds SSA liveness
    and interference from the allocator's certificate."""


#: freeze()/thaw() dispatch for the validator error classes.  Miscompiles
#: carry extra payload and keep their special-cased branch above.
_VALIDATION_KINDS: Dict[str, type] = {
    "motion-validation": MotionValidationError,
    "schedule-validation": ScheduleValidationError,
    "peephole-validation": PeepholeValidationError,
    "ssa-validation": SSAValidationError,
    "destruct-validation": DestructValidationError,
    "chordal-validation": ChordalValidationError,
}


def _kind_of(error: "StageError") -> str:
    if isinstance(error, MiscompileError):
        return "miscompile"
    for kind, cls in _VALIDATION_KINDS.items():
        if isinstance(error, cls):
            return kind
    return "stage"


def _clip(stream: List[Any], index: int, width: int = 3) -> str:
    """A window of the output stream around the divergence index."""
    lo = max(0, index - width)
    hi = index + width + 1
    window = stream[lo:hi]
    prefix = "... " if lo > 0 else ""
    suffix = " ..." if hi < len(stream) else ""
    body = ", ".join(repr(v) for v in window)
    if not window:
        body = f"<stream ended at {len(stream)} values>"
    return f"{prefix}[{body}]{suffix} (len={len(stream)})"
