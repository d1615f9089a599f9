"""Rendering of experiment results, in one place.

* :mod:`~repro.experiments.reporting.markdown` — the one-command
  evaluation report (``roarray report``).
* :mod:`~repro.experiments.reporting.text` — plain-text tables / CDF
  series / ASCII spectra for benchmark logs.
* :mod:`~repro.experiments.reporting.console` — CLI output helpers
  (``emit`` / ``emit_json``).

This package is the only import surface: the former flat modules
``repro.experiments.report`` (markdown) and the top-level re-exports of
the text helpers (``format_cdf_series`` / ``format_comparison`` /
``format_spectrum_ascii``) went through a deprecation cycle and are
gone — import the text helpers from
:mod:`repro.experiments.reporting.text` directly.
"""

from __future__ import annotations

from repro.experiments.reporting.console import emit, emit_json
from repro.experiments.reporting.markdown import (
    SYSTEMS,
    ReportScale,
    format_degradation_table,
    generate_report,
)

__all__ = [
    "SYSTEMS",
    "ReportScale",
    "emit",
    "emit_json",
    "format_degradation_table",
    "generate_report",
]
