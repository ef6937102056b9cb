"""Small shared datatypes used by both the substrates and the LFI core."""

from repro.common.frames import StackFrame, format_stack
from repro.common.frozen import FrozenMap

__all__ = ["FrozenMap", "StackFrame", "format_stack"]
