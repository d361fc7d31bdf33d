"""Exception types shared across the solver."""


class SwemixError(Exception):
    """Base class for all solver errors."""

    def with_context(self, context):
        """This error with ``context`` before its message: the same class
        and attributes, without running the constructor again.  Raise it
        ``from`` this one."""
        err = type(self).__new__(type(self), f"{context}: {self}")
        err.__dict__.update(self.__dict__)
        return err


class InvalidArgumentError(SwemixError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedOrderError(InvalidArgumentError):
    """Polynomial order outside the supported range."""


class UnknownSchemeError(InvalidArgumentError):
    """Time-integration scheme name not recognized."""


class DryStateError(SwemixError):
    """Total geopotential became non-positive somewhere."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class AssemblyError(SwemixError):
    """Local or global implicit-system assembly failed."""


class SolverFailureError(SwemixError):
    """Linear solve did not converge or produced garbage."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ConfigError(SwemixError):
    """Base for configuration-file problems."""


class MissingConfigError(ConfigError):
    """Configuration file does not exist."""


class ConfigParseError(ConfigError):
    """Malformed line in the configuration file."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownKeyError(ConfigError):
    """Configuration key is not recognized."""

    def __init__(self, key):
        super().__init__(f"unknown configuration key: {key!r}")
        self.key = key


class InvalidValueError(ConfigError):
    """Configuration value fails validation."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key
