"""Exception types shared across the package."""


class ThermoFockError(Exception):
    """Base class for numerical failures raised by this package."""


class CapacityError(ThermoFockError):
    """A polynomial or operator build exceeded its configured size cap."""


class TruncationError(ThermoFockError):
    """A truncated expansion overflowed, or two routes through it disagree:
    overflow or truncation damage."""


class SamplerError(ThermoFockError):
    """A sampler could not produce reliable draws."""


class StabilityError(ThermoFockError):
    """A time integration violated its stability bound or blew up."""
