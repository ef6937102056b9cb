"""Call stack-based trigger (§3.2).

Injects when the current call stack matches a user-defined set of frames.
Frames can be identified by module (object file) name, offset within the
binary, file/line pairs, function names, or combinations thereof — the same
identification options the paper lists, DWARF-style file/line included.

This is the trigger the call-site analyzer emits: each generated scenario
carries one frame spec naming the target module and the call-site offset, so
the injection happens exactly at the suspicious site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.frames import StackFrame
from repro.core.injection.context import CallContext
from repro.core.triggers.base import ScalarStateTrigger, TriggerError, declare_trigger


@dataclass(frozen=True)
class FrameSpec:
    """A partial description of one stack frame; unset fields match anything."""

    module: Optional[str] = None
    function: Optional[str] = None
    offset: Optional[int] = None
    file: Optional[str] = None
    line: Optional[int] = None

    def matches(self, frame: StackFrame) -> bool:
        if self.module is not None and self.module != frame.module:
            return False
        if self.function is not None and self.function != frame.function:
            return False
        if self.offset is not None and self.offset != frame.offset:
            return False
        if self.file is not None and self.file != frame.file:
            return False
        if self.line is not None and self.line != frame.line:
            return False
        return True

    @classmethod
    def from_params(cls, raw: Dict[str, Any]) -> "FrameSpec":
        def _maybe_int(value: Any) -> Optional[int]:
            if value is None or value == "":
                return None
            if isinstance(value, int):
                return value
            return int(str(value), 0)

        return cls(
            module=raw.get("module") or None,
            function=raw.get("function") or None,
            offset=_maybe_int(raw.get("offset")),
            file=raw.get("file") or None,
            line=_maybe_int(raw.get("line")),
        )


@declare_trigger("CallStackTrigger")
class CallStackTrigger(ScalarStateTrigger):
    """Match the caller's stack against a set of frame specifications.

    ``mode`` selects how specs are applied:

    * ``"contains"`` (default) — every spec must match *some* frame anywhere
      in the stack ("part of the stack matches the user-defined frames");
    * ``"top"`` — the innermost frame must match the first spec, the next
      frame the second spec, and so on (an exact prefix match).
    """

    def __init__(self, frames: Optional[Sequence[FrameSpec]] = None, mode: str = "contains") -> None:
        self.frames: Tuple[FrameSpec, ...] = tuple(frames or ())
        self.mode = mode
        self.evaluations = 0
        self.matches = 0

    def init(self, params: Optional[Dict[str, Any]] = None) -> None:
        params = params or {}
        raw_frames = params.get("frame", params.get("frames", []))
        if isinstance(raw_frames, dict):
            raw_frames = [raw_frames]
        parsed: List[FrameSpec] = []
        for raw in raw_frames:
            if isinstance(raw, FrameSpec):
                parsed.append(raw)
            elif isinstance(raw, dict):
                parsed.append(FrameSpec.from_params(raw))
            else:
                raise TriggerError(f"cannot interpret frame spec {raw!r}")
        if parsed:
            self.frames = tuple(parsed)
        self.mode = str(params.get("mode", self.mode))
        if self.mode not in ("contains", "top"):
            raise TriggerError(f"unknown call-stack match mode {self.mode!r}")
        if not self.frames:
            raise TriggerError("CallStackTrigger requires at least one frame spec")

    # ------------------------------------------------------------------
    def eval(self, ctx: CallContext) -> bool:
        self.evaluations += 1
        stack = ctx.stack
        if not stack:
            return False
        if self.mode == "top":
            if len(stack) < len(self.frames):
                return False
            matched = all(spec.matches(frame) for spec, frame in zip(self.frames, stack))
        else:
            matched = all(self._spec_in_stack(spec, stack) for spec in self.frames)
        if matched:
            self.matches += 1
        return matched

    @staticmethod
    def _spec_in_stack(spec: FrameSpec, stack: Iterable[StackFrame]) -> bool:
        return any(spec.matches(frame) for frame in stack)

    def reset(self) -> None:
        self.evaluations = 0
        self.matches = 0


__all__ = ["CallStackTrigger", "FrameSpec"]
