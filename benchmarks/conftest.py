"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure from the paper's evaluation
(§7) using the experiment harnesses in :mod:`repro.experiments`, prints the
reproduced rows, and asserts the qualitative properties that should carry
over from the paper (who wins, rough factors, orderings).

Run from the repository root with::

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_*.py

Name the files: no pytest setting maps ``bench_*.py`` to test modules, so a
bare ``pytest benchmarks/`` collects nothing.  Add ``-s`` to see the
reproduced tables.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
