"""Exception types shared across the package, and the size cap on the
snapshot buffers of a time integration."""

# Floats one snapshot buffer may hold: snapshots x sites for a chain, the
# snapshot count for a single oscillator's orbit.  2**24 float64 is 128 MiB.
# The largest benchmarked trajectory, chain-dispersion --sites 1024, fills
# 2095 x 1024 = 2.1e6 (17 MB each for q and p), an eighth of the cap; a
# chain run at the cap, spectral transform included, holds about 1 GiB of
# arrays.
MAX_SNAPSHOT_FLOATS = 2 ** 24


class ThermoFockError(Exception):
    """Base class for numerical failures raised by this package."""


class CapacityError(ThermoFockError):
    """A polynomial or operator build, or a snapshot buffer, exceeded its
    size cap."""


class TruncationError(ThermoFockError):
    """A truncated expansion overflowed, or two routes through it disagree:
    overflow or truncation damage."""


class SamplerError(ThermoFockError):
    """A sampler could not produce reliable draws."""


class StabilityError(ThermoFockError):
    """A time integration violated its stability bound or blew up."""
