"""Experiment drivers: one module per paper figure/table (see DESIGN.md)."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "common": (
        "ExperimentSetup", "build_experiment", "make_controller",
        "quick_nostop_run",
    ),
    "fig2_batch_interval": ("Fig2Result", "run_fig2"),
    "fig3_executors": ("Fig3Result", "run_fig3"),
    "fig5_rates": ("Fig5Result", "run_fig5"),
    "fig6_evolution": ("EvolutionTrace", "run_fig6", "run_fig6_one"),
    "fig7_improvement": ("Fig7Result", "run_fig7", "run_fig7_one"),
    "fig8_spsa_vs_bo": ("Fig8Result", "run_fig8", "run_fig8_one"),
})
