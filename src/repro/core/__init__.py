"""Framework core: the Hypatia facade and workload builders."""

from .hypatia import Hypatia
from .workloads import (
    PAPER_FOCUS_PAIRS,
    gid_by_name,
    random_permutation_pairs,
)

__all__ = [
    "Hypatia",
    "PAPER_FOCUS_PAIRS",
    "gid_by_name",
    "random_permutation_pairs",
]
