"""Exception hierarchy shared by all tropdeg modules."""


class TropdegError(Exception):
    """Base class for all library errors."""


class InputError(TropdegError):
    """Malformed user input (files, vectors, flags)."""


class ContractError(TropdegError):
    """An operation was called outside its contract."""


class InvariantError(TropdegError):
    """An internal invariant failed; indicates a bug, not bad input."""


class ZeroVectorError(ContractError):
    pass


class EmptyPolyhedronError(ContractError):
    pass


class DimensionMismatchError(ContractError):
    pass


class InvalidComplexError(ContractError):
    pass


class WrongDimensionError(ContractError):
    pass


class WrongDimensionsError(ContractError):
    pass


class WrongCodimensionError(ContractError):
    pass


class UnbalancedCycleError(ContractError):
    pass


class TypeMismatchError(ContractError):
    pass


class NonPositiveDivisorError(ContractError):
    pass


class EmptySubsetError(ContractError):
    pass


class BadBlockIndexError(ContractError):
    pass


class SeedDependenceError(InvariantError):
    """Two generic displacement directions produced different results."""
