"""Exception types shared across the package."""


class CompactHashError(Exception):
    """Base class for all errors raised by this package."""


class ZeroCapacityError(CompactHashError):
    """Table capacity must be an int of at least 1."""


class StepOutOfRangeError(CompactHashError):
    """Probe step must be an int with 1 <= step < capacity (for capacity > 1)."""


class StepNotCoprimeError(CompactHashError):
    """gcd(step, capacity) != 1, so the probe sequence would skip slots."""


class TableFullError(CompactHashError):
    """Insertion would leave no empty slot, breaking probe-loop termination."""


class KeyOutOfRangeError(CompactHashError):
    """Key lies outside the signed 64-bit range the slot arrays store."""


class CapacityTooSmallError(CompactHashError):
    """Rehash target cannot hold the current live keys plus one empty slot."""


class EmptyKeyUniverseError(CompactHashError):
    """Workload key universe is empty."""


class TraceParseError(CompactHashError):
    """A trace file line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
