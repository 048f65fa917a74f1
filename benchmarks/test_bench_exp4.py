"""Exp 4 (Figure 6) — real application: the Nighres workflow.

Regenerates the per-operation absolute relative simulation errors of WRENCH
and WRENCH-cache for the four-step cortical-reconstruction workflow
(Table II), against the calibrated reference.  The paper reports mean
errors of 337 % (WRENCH) vs 47 % (WRENCH-cache).
"""

from __future__ import annotations


from repro.analysis.tables import format_table
from repro.experiments.exp4_nighres import exp4_errors, exp4_mean_errors
from repro.experiments.metrics import error_reduction_factor
from repro.experiments.report import exp4_error_report
from repro.snapshot import run_experiment
from repro.units import MB

CHUNK = 50 * MB


def test_fig6_nighres_errors(benchmark, report):
    """Figure 6: real application (Nighres) simulation errors."""
    reference = run_experiment("exp4", simulator="real", chunk_size=CHUNK)

    def run():
        return exp4_errors(chunk_size=CHUNK, reference=reference)

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    means = exp4_mean_errors(errors)
    factor = error_reduction_factor(
        errors["wrench"].values(), errors["wrench-cache"].values()
    )
    text = exp4_error_report(errors)
    text += "\n\nMean error excluding Read 1 (%):\n" + format_table(
        ["Simulator", "Mean error (%)"], sorted(means.items()), precision=1
    )
    text += f"\n\nError reduction factor (WRENCH -> WRENCH-cache): {factor:.1f}x"
    report("fig6_nighres_errors", text)

    # The first read happens entirely from disk and is accurately simulated
    # by both simulators.
    assert errors["wrench"]["Read 1"] < 25.0
    assert errors["wrench-cache"]["Read 1"] < 25.0
    # Headline: large error reduction with the page cache model.
    assert means["wrench-cache"] < means["wrench"] / 3.0
