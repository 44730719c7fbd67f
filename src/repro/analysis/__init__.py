"""Evaluation utilities: speed-up analysis, image quality metrics, reporting."""

from .quality import (band_contrast, best_band_contrast, enhancement_report,
                      rms_contrast, target_contrast)
from .report import (dict_table, figure4_table, figure5_table, format_table,
                     overhead_table)
from .speedup import (OverheadDecomposition, SpeedupCurve, SpeedupPoint,
                      mean_protocol_overhead, overhead_decomposition)

__all__ = [
    "band_contrast",
    "best_band_contrast",
    "enhancement_report",
    "rms_contrast",
    "target_contrast",
    "dict_table",
    "figure4_table",
    "figure5_table",
    "format_table",
    "overhead_table",
    "OverheadDecomposition",
    "SpeedupCurve",
    "SpeedupPoint",
    "mean_protocol_overhead",
    "overhead_decomposition",
]
