"""Static analysis of mobile pi-calculus systems.

The package proves concurrency properties (mutual exclusion, bounded channel
occupancy) by partitioning threads into computation units and running, over a
trace-partitioned transition system, the coalesced product of a control-flow
(environment) analysis and a per-unit occurrence-counting analysis.
"""

from .analysis import AnalysisConfig, check_soundness, run
from .engine import Analysis, abstract_step_labels, iterate
from .partition import getvar_channel, getvar_marker, load_partition_spec
from .syntax import SourceError, load_system

__all__ = [
    "Analysis",
    "AnalysisConfig",
    "SourceError",
    "abstract_step_labels",
    "check_soundness",
    "getvar_channel",
    "getvar_marker",
    "iterate",
    "load_partition_spec",
    "load_system",
    "run",
]
