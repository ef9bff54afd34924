"""Experiment drivers: one module per paper figure/table (see DESIGN.md)."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "common": ("ExperimentSetup", "build_experiment", "make_controller"),
    "fig2_batch_interval": ("run_fig2",),
    "fig3_executors": ("run_fig3",),
    "fig5_rates": ("run_fig5",),
    "fig6_evolution": ("run_fig6",),
    "fig7_improvement": ("run_fig7",),
    "fig8_spsa_vs_bo": ("run_fig8",),
})
