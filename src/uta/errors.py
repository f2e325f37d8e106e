"""Exception types shared across the package.  A cap that cuts an enumeration
short is no error: ``iter_trees``, the one enumeration entry point, stops there."""


class UtaError(Exception):
    """Base class for all errors raised by this package."""


class TreeSyntaxError(UtaError):
    """Malformed term syntax; carries the 0-based offset of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbolError(UtaError):
    def __init__(self, symbol, position=None):
        at = f" (at offset {position})" if position is not None else ""
        super().__init__(f"unknown symbol {symbol!r}{at}")
        self.symbol = symbol
        self.position = position


class AlphabetMismatchError(UtaError):
    pass


class KindError(UtaError):
    """An operation was applied to an automaton of the wrong kind, or an
    automaton violates the invariants of its declared kind."""


class DeterminismError(KindError):
    """Semantic determinism required but violated; carries the witness."""

    def __init__(self, symbol, pair, witness):
        word = " ".join(witness)
        super().__init__(
            f"horizontal languages for states {pair[0]!r} and {pair[1]!r} "
            f"under symbol {symbol!r} overlap on {word!r}"
        )
        self.symbol = symbol
        self.pair = pair
        self.witness = witness


class OverlapError(UtaError):
    """Marked union requires pairwise disjoint parts."""

    def __init__(self, i, j, witness):
        word = "".join(str(s) for s in witness)
        super().__init__(f"parts {i} and {j} overlap on {word!r}")
        self.indices = (i, j)
        self.witness = witness


class SeparationError(UtaError):
    """A fooling-set pair could not be certified.

    ``unknown`` distinguishes "bounded search found nothing" (which refutes
    nothing) from "the supplied separator fails the condition".
    """

    def __init__(self, message, pair, unknown=False):
        super().__init__(message)
        self.pair = pair
        self.unknown = unknown


class DocumentError(UtaError):
    def __init__(self, message, line=None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{at}")
        self.line = line
