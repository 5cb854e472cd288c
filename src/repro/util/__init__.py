"""Shared utilities: LOC counting, leaf-size tuning."""

from .loc import count_loc, count_object_loc, count_source_loc

__all__ = [
    "count_loc", "count_source_loc", "count_object_loc",
]

from .tune import TuneResult, tune_leaf_size  # noqa: E402

__all__ += ["TuneResult", "tune_leaf_size"]
