"""``repro.experiments`` — the harness regenerating every table and
figure of the paper (``cli._registry`` is the experiment index)."""

from .artifacts import ArtifactStore, default_store
from .config import ARCHITECTURES, ExperimentConfig
from .pipeline import Pipeline
from .tables import format_table, paper_vs_measured, save_results

__all__ = [
    "ExperimentConfig", "ARCHITECTURES", "Pipeline",
    "ArtifactStore", "default_store",
    "format_table", "paper_vs_measured", "save_results",
]
