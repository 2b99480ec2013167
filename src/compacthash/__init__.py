"""Open-addressing hash tables with compaction-based deletion.

CompactTable deletes by relocating entries backward along their probe
chains, so churn never degrades probe lengths; TombstoneTable is the
classical mark-deleted baseline for comparison. The harness module
differentially tests both against a plain set, and the CLI exposes
fuzzing, trace replay, and a churn benchmark.
"""

from .compact import CompactTable, Slot
from .errors import (CapacityTooSmallError, CompactHashError, EmptyKeyUniverseError,
                     KeyOutOfRangeError, StepNotCoprimeError, StepOutOfRangeError,
                     TableFullError, TraceParseError, ZeroCapacityError)
from .harness import (ADD, CONTAINS, GENERATOR_ID, REMOVE, Divergence, InvariantFailure,
                      SplitMix64, Verdict, WorkloadSpec, format_trace, generate_workload,
                      parse_trace, run_differential)
from .introspect import (COUNT_MISMATCH, DUPLICATE_KEY, REACHABILITY_GAP,
                         SLOT_INCONSISTENT, ProbeStats, Violation, ViolationReport,
                         check_invariants, probe_stats)
from .probing import TableParams
from .tombstone import BUSY, DELETED, FREE, TombstoneSlot, TombstoneTable

__version__ = "0.1.0"

__all__ = [
    "ADD", "BUSY", "CONTAINS", "COUNT_MISMATCH", "DELETED", "DUPLICATE_KEY", "FREE",
    "GENERATOR_ID", "REACHABILITY_GAP", "REMOVE", "SLOT_INCONSISTENT",
    "CapacityTooSmallError", "CompactHashError", "CompactTable", "Divergence",
    "EmptyKeyUniverseError", "InvariantFailure", "KeyOutOfRangeError", "ProbeStats",
    "Slot", "SplitMix64", "StepNotCoprimeError", "StepOutOfRangeError",
    "TableFullError", "TableParams", "TombstoneSlot", "TombstoneTable",
    "TraceParseError", "Verdict", "Violation", "ViolationReport", "WorkloadSpec",
    "ZeroCapacityError", "check_invariants", "format_trace", "generate_workload",
    "parse_trace", "probe_stats", "run_differential",
]
