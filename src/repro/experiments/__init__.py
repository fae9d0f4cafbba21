"""Experiment harness: regenerates every table and figure of the paper.

Entry points:

* ``python -m repro.experiments.run_all`` — run everything, print the
  paper-shaped tables and series (add ``--full`` for the larger sweeps),
* :mod:`repro.experiments.figures` — Figs. 4–8 time/memory sweeps,
* :mod:`repro.experiments.tables` — Tables I–IV,
* :mod:`repro.experiments.fig9` — the HPCCG sensitivity heat map and
  loop-split analysis.

Problem sizes are laptop-scaled; shapes, not absolute numbers, are the
reproduction target.
"""

from repro.experiments.measure import (
    Measurement,
    measure_chef,
    measure_adapt,
    measure_app,
)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments import tables

__all__ = [
    "Measurement",
    "measure_chef",
    "measure_adapt",
    "measure_app",
    "FIGURES",
    "run_figure",
    "tables",
]
