"""Reference (documented) fault profiles.

These profiles are built straight from the simulated libc's specification —
the analog of reading the man pages.  They serve two purposes:

* they are the ground truth against which the static profiler's inferences
  are validated (the profiler should recover them from machine code alone),
* the Python-level targets, which have no compiled binary to profile, use
  them directly when generating injection scenarios.
"""

from __future__ import annotations

from typing import Dict

from repro.core.profiler.fault_profile import (
    ErrorSpecification,
    FaultProfile,
    FunctionProfile,
    merge_profiles,
)
from repro.oslib.libc import LIBC_FUNCTIONS


def reference_profile(library: str = "libc") -> FaultProfile:
    """Fault profile of one simulated library, from its specification."""
    profile = FaultProfile(library=library)
    for spec in LIBC_FUNCTIONS.values():
        if spec.library != library:
            continue
        profile.add(
            FunctionProfile(
                name=spec.name,
                error_returns=[
                    ErrorSpecification(return_value=error.value, errnos=error.errnos)
                    for error in spec.error_returns
                ],
                success=spec.success,
                errno_via_return=spec.errno_via_return,
            )
        )
    return profile


def reference_profiles() -> Dict[str, FaultProfile]:
    """All reference profiles, keyed by library name."""
    libraries = sorted({spec.library for spec in LIBC_FUNCTIONS.values()})
    return {library: reference_profile(library) for library in libraries}


def combined_reference_profile() -> FaultProfile:
    """One merged profile covering every simulated library."""
    return merge_profiles(reference_profiles().values())


__all__ = [
    "combined_reference_profile",
    "reference_profile",
    "reference_profiles",
]
