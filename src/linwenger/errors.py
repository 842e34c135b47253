"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid construction parameters: bad prime, modulus, family, regime.
    The CLI exits 2 on it."""


class NonPrime(ConfigError):
    """The characteristic is not a prime number."""


class ReducibleModulus(ConfigError):
    """The requested modulus polynomial factors over F_p."""


class DegreeMismatch(ConfigError):
    """Modulus is not monic of the requested degree."""


class FieldMismatch(ConfigError):
    """Arithmetic attempted between elements of different fields."""


class UnsupportedRegime(ConfigError):
    """A witness or solver construction is undefined for these parameters."""


class ThetaNotInjective(ConfigError):
    """Spectral bookkeeping requires the generator map u -> (1, f_2(u), ...) to be injective."""


class SamePoint(ConfigError):
    """A vertex pair operation was handed two equal vertices."""


class NoSixCycle(ConfigError):
    """No 6-cycle exists in this parameter regime (the girth is 8)."""


class OutOfRange(ConfigError):
    """Vertex id outside [0, 2*q^(m+1))."""


class BudgetExceeded(RuntimeError):
    """The operation would exceed a configured limit: the byte or evaluation
    budget, int32 array entries or index-table bytes."""


class NotBipartite(ValueError):
    """A neighbour array is not laid out as the package builds it: points
    [0, n/2), lines [n/2, n), every edge across.  From a package-built graph
    this indicates a bug, so the CLI exits 4 on it."""


class Acyclic(RuntimeError):
    """Girth is undefined: the graph contains no cycle."""


class SolveFailed(RuntimeError):
    """An internal system or table that must be consistent was not; indicates a bug."""
