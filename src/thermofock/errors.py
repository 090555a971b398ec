"""Exception types shared across the package, the size cap on the arrays
a run's flags size, with the one check against it, and the block size of
the passes over points."""

# Floats one array sized by a run's flags may hold: snapshots x sites for a
# chain, the snapshot count for a single oscillator's orbit, and, counting
# a complex entry as two floats, a dense operator matrix, the quadrature
# Gram basis or a coherent vector at truncation --nmax, the draws that
# --samples sizes (the tilt's complex array and the sphere map's two real
# ones), and the 2n x 2n matrices of n = --pairs oscillator pairs.  2**24
# float64 is 128 MiB: a dense operator stops at nmax 2895, the Gram basis
# at 160, tilt at 2**23 samples, sphere at 2**24, and the bath's matrices
# at 2048 pairs.  The ensemble cloud streams in fixed blocks; its own cap,
# dynamics.MAX_CLOUD_PARTICLES, bounds a run's length.
# The largest benchmarked trajectory, chain-dispersion --sites 1024, fills
# 2096 x 1024 = 2.1e6 (17 MB each for q and p), an eighth of the cap; a
# chain run at the cap holds one 256 MiB complex snapshot buffer, in which
# its mode amplitudes and time spectrum are taken in place.
MAX_SNAPSHOT_FLOATS = 2 ** 24

# Points per block of a pass over points or draws: `bargmann`'s point
# kernels (and the ensemble sampler's density blocks) and `bath`'s passes
# over a sample.  4096 complex values are 64 KiB, so a block's working
# arrays stay in L2 cache, and no buffer grows with the sample.  On 6e5
# points (2 cores, 2 MiB L2 each) blocks of 2048 or fewer ran
# FockVector.evaluate slower, 8192-16384 no faster.  A pass that holds
# many values a point narrows its blocks to an entry budget instead:
# bargmann.gram_montecarlo's n_max + 1 basis entries a point to 2**14
# complex entries a buffer (963 points at n_max 16), and
# bath.partition_estimate's 2n normals a point to _BLOCK_FLOATS.
POINT_BLOCK = 4096


class ThermoFockError(Exception):
    """Base class for numerical failures raised by this package."""


class CapacityError(ThermoFockError):
    """An operator build, a truncation-sized array, a sample-sized array
    or a snapshot buffer exceeded its size cap."""


class TruncationError(ThermoFockError):
    """A truncated expansion overflowed, or two routes through it disagree:
    overflow or truncation damage."""


class SamplerError(ThermoFockError):
    """A sampler could not produce reliable draws."""


class StabilityError(ThermoFockError):
    """A time integration violated its stability bound or blew up."""


def check_capacity(floats: int, what: str) -> None:
    """Refuse, before it is allocated, an array whose size a run's flags set
    once it would hold more than MAX_SNAPSHOT_FLOATS floats."""
    if floats > MAX_SNAPSHOT_FLOATS:
        raise CapacityError(
            f"{what} would hold {floats} floats, over the array cap of "
            f"{MAX_SNAPSHOT_FLOATS}")
