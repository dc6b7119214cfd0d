"""Pro-Temp core: convex formulation, optimizer, Phase-1 table."""

from repro.core.formulation import StackedConstraints, WindowResponse
from repro.core.protemp import FrequencyAssignment, ProTempOptimizer
from repro.core.schedule import ScheduleOptimizer, ScheduleResult
from repro.core.table import (
    FrequencyTable,
    LookupResult,
    TableEntry,
    TableProvenanceWarning,
    build_frequency_table,
    quantize_table,
)

__all__ = [
    "FrequencyAssignment",
    "FrequencyTable",
    "LookupResult",
    "ProTempOptimizer",
    "ScheduleOptimizer",
    "ScheduleResult",
    "StackedConstraints",
    "TableEntry",
    "TableProvenanceWarning",
    "WindowResponse",
    "build_frequency_table",
    "quantize_table",
]
