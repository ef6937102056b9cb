"""Experiment harnesses regenerating every table and figure of the paper.

Each module exposes a ``run(...)`` function returning a
:class:`~repro.experiments.common.TableResult` whose rows mirror the paper's
presentation, and the ``benchmarks/`` directory wraps these in
pytest-benchmark targets.

| module | reproduces |
|--------|------------|
| :mod:`repro.experiments.table1_bugs` | Table 1 — bugs found automatically |
| :mod:`repro.experiments.table2_precision` | Table 2 — trigger precision for the MySQL close bug |
| :mod:`repro.experiments.table3_coverage` | Table 3 — recovery-code coverage improvement |
| :mod:`repro.experiments.table4_accuracy` | Table 4 — call-site analysis accuracy |
| :mod:`repro.experiments.table5_apache_overhead` | Table 5 — Apache trigger overhead |
| :mod:`repro.experiments.table6_mysql_overhead` | Table 6 — MySQL trigger overhead |
| :mod:`repro.experiments.figure3_pbft_slowdown` | Figure 3 — PBFT slowdown under packet loss |
| :mod:`repro.experiments.dos_pbft` | §7.3 — PBFT DoS study |
| :mod:`repro.experiments.analyzer_efficiency` | §7.2 — analyzer running time |
"""

from repro.experiments.common import TableResult, format_table

__all__ = ["TableResult", "format_table"]
