"""Categorical consistency checks: fusion-category pentagon equations and
module-category action diagrams, all in exact arithmetic."""

from .ty import (PentagonReport, associator_unitarity, bicharacter_checks,
                 chi, fuse, fusion_ring_match, pentagon_report)
from .modcat import (ModuleReport, column_phase_search, forced_column,
                     global_phase_family, module_report, repair_distance,
                     repaired_psi_rho, worked_example)

__all__ = [
    "PentagonReport", "associator_unitarity", "bicharacter_checks", "chi",
    "fuse", "fusion_ring_match", "pentagon_report",
    "ModuleReport", "column_phase_search", "forced_column",
    "global_phase_family", "module_report", "repair_distance",
    "repaired_psi_rho", "worked_example",
]
