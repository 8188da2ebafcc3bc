"""Categorical consistency checks: fusion-category pentagon equations and
module-category action diagrams, all in exact arithmetic."""
