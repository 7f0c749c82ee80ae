"""Harmonic synthetic control: donor matching under a smoothness-weighted metric."""

__version__ = "0.1.0"

from harmonic_sc.baselines import fit_diff_sc, fit_sc, fit_sc_int, fit_sdid
from harmonic_sc.decomp import LatentPanel, decompose
from harmonic_sc.hsc import HscConfig, HscFit, auto_zeta, fit
from harmonic_sc.mc import (
    GridDgpConfig,
    SimpleDgpConfig,
    run_study,
    simulate_grid,
    simulate_simple,
)
from harmonic_sc.panel import Panel, PanelDataError, PrePostView, load_csv, split
from harmonic_sc.tuning import CvPlan, CvResult, cross_validate

__all__ = [
    "__version__",
    "Panel",
    "PanelDataError",
    "PrePostView",
    "load_csv",
    "split",
    "HscConfig",
    "HscFit",
    "auto_zeta",
    "fit",
    "CvPlan",
    "CvResult",
    "cross_validate",
    "fit_sc",
    "fit_sc_int",
    "fit_diff_sc",
    "fit_sdid",
    "LatentPanel",
    "decompose",
    "GridDgpConfig",
    "SimpleDgpConfig",
    "simulate_grid",
    "simulate_simple",
    "run_study",
]
