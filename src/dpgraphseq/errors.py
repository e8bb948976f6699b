"""Exception hierarchy shared across the package."""


class GraphSequenceError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateNodeError(GraphSequenceError):
    pass


class EdgeToFutureNodeError(GraphSequenceError):
    pass


class DanglingEdgeError(GraphSequenceError):
    pass


class SelfLoopError(GraphSequenceError):
    pass


class DuplicateEdgeError(GraphSequenceError):
    pass


class TimeOutOfRangeError(GraphSequenceError):
    pass


class PatternDirectionMismatchError(GraphSequenceError):
    pass


class InfeasibleThresholdError(GraphSequenceError):
    pass


class UnsupportedBaselineQueryError(GraphSequenceError):
    pass


class UnsupportedQueryError(GraphSequenceError):
    pass


class BudgetTooLargeError(GraphSequenceError):
    pass


class OrderingMismatchError(GraphSequenceError):
    pass


class NonPositiveScaleError(GraphSequenceError):
    pass


class BoundViolationError(GraphSequenceError):
    pass


class LengthMismatchError(GraphSequenceError):
    pass


class EmptyGraphError(GraphSequenceError):
    pass
