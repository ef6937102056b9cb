"""Coverage measurement and recovery-code identification.

The paper's Table 3 measures how much *recovery code* the default test
suites exercise with and without LFI.  This package provides the gcov/lcov
analog for compiled targets:

* :class:`~repro.coverage.tracker.CoverageTracker` records executed
  instruction addresses while the VM runs and maps them to source lines via
  the binary's line table; a finished run's result carries its frozen
  :class:`~repro.coverage.tracker.CoverageCounts`;
* :mod:`repro.coverage.recovery` identifies recovery regions — the basic
  blocks guarded by checks of library-call error returns — directly from the
  binary, replacing the paper's manual identification of recovery blocks in
  lcov output;
* :class:`~repro.coverage.report.CoverageReport` combines both into the
  totals Table 3 reports (total coverage, recovery coverage, lines added by
  LFI).
"""

from repro.coverage.recovery import RecoveryMap, identify_recovery_regions
from repro.coverage.report import CoverageReport, compare_coverage
from repro.coverage.tracker import CoverageCounts, CoverageTracker

__all__ = [
    "CoverageCounts",
    "CoverageReport",
    "CoverageTracker",
    "RecoveryMap",
    "compare_coverage",
    "identify_recovery_regions",
]
