"""Exception types shared across the package; the caps on the arrays a
run's flags size, on a Monte Carlo run's samples and on a stepped run's
leapfrog steps, each with its one check; the one rule that cuts a span into
steps; the one refusal of a derived float that left the float range; and
the block rule of every pass that works in blocks."""

import math

# Floats one array sized by a run's flags may hold: snapshots x sites for a
# chain, the 2x2 flows at a single oscillator's orbit snapshots, and, counting
# a complex entry as two floats, a dense operator matrix, the quadrature
# Gram's angular powers or a coherent vector at truncation --nmax, the
# draws that --samples sizes (the tilt's complex array and the sphere
# map's two real ones), the 2n x 2n matrices of n = --pairs oscillator
# pairs, evolve's complex profile on --grid points and its --n-times times,
# variation's --count defects and --dt-count steps, and a chain's complex
# thermal state of --sites amplitudes.  2**24 float64 is 128 MiB: a dense
# operator stops at nmax 2895, the angular powers at 2046, tilt at 2**23
# samples, sphere at 2**24, and the bath's matrices at 2048 pairs.  Below
# that cap the quadrature Gram stops first at its Gauss-Laguerre rule, at
# nmax 185 (numpy 2.4.6).
# The Monte Carlo draws of gram, partition and ensemble stream in fixed
# blocks; their own cap, MAX_SAMPLES, bounds a run's length.
# The largest benchmarked trajectory, chain-dispersion --sites 1024, fills
# 2096 x 1024 = 2.1e6 (17 MB of displacements q, recorded alone), an eighth
# of the cap; a chain-dispersion run at the cap holds one ~128 MiB float
# snapshot buffer of q, in which its half spectrum and time spectrum are
# taken in place, and a relax run one 256 MiB complex buffer of q and p,
# in which its mode amplitudes are.
MAX_SNAPSHOT_FLOATS = 2 ** 24

# Samples one Monte Carlo run may draw: gram's Monte Carlo Gram, partition's
# integral and the ensemble's cloud.  Each streams its draws through
# buffers of fixed size, so this bounds a run's length, not its memory: on
# one x86_64 core the default ensemble run (20 times) takes about 0.6 us a
# particle, the Gram at --nmax 16 about 0.22 us a sample and the partition
# of one pair about 0.04 us, so 2**23 samples take about 5, 2 and 0.3 s,
# where --samples 1e300 never ended.
MAX_SAMPLES = 2 ** 23

# Leapfrog steps one stepped run may take: a chain run's, rounded up to
# whole strides, an ensemble's over all its intervals or a damp orbit's.
# The default relax run takes 40 000, at --alpha 1e-4 4.0e6 (1.0 s at
# stride 40, one x86_64 core); a chain step costs up to 36 us, so the cap
# bounds a run at about 2.5 min, where relax --stride 1e12 took 1e12 steps.
MAX_STEPS = 2 ** 22

# Floats one block of any pass that works in blocks may hold, 512 KiB, so
# a block and its temporaries stay in a 2 MiB L2 cache whatever a run's
# flags are.  A pass states only how many floats one item (a point, row,
# site or mode) holds and takes block_width of that.
BLOCK_FLOATS = 2 ** 16

# Points per block of a pass over single points, and the cap of the point
# passes sized by block_width: the ensemble moves each of its SAMPLE_BLOCK
# blocks in such blocks, through one (2, POINT_BLOCK) scratch.  4096
# complex values are 64 KiB; on 6e5 points (2 cores, 2 MiB L2 each) blocks
# of 2048 or fewer ran FockVector.evaluate slower, 8192-16384 no faster.
POINT_BLOCK = 4096

# Points per block whose moments are taken as over a whole sample before
# they are merged (`bath.MomentSums`): the ensemble cloud streams in such
# blocks, so its moments are `bath.moment_report` of it float for float.
# 2**15 complex values fill the budget; no scratch of a block's size is
# held beside it.  `dynamics.ensemble_evolve` at 20 times (one thread,
# medians of 6 interleaved rounds): at 3e5 particles 0.18 s, against 0.16
# at 2**14, 0.20 at 2**16 and 0.21 for a cloud held whole; at c = 1.2 and
# 1e5 particles 0.076 s, against 0.087 at 2**14 and 0.090 held whole.
SAMPLE_BLOCK = BLOCK_FLOATS // 2


class ThermoFockError(Exception):
    """Base class for numerical failures raised by this package."""


class CapacityError(ThermoFockError):
    """An operator build, a truncation-sized array or quadrature rule, a
    sample-sized array or a snapshot buffer exceeded its size cap."""


class TruncationError(ThermoFockError):
    """A truncated expansion overflowed, or two routes through it disagree:
    overflow or truncation damage."""


class SamplerError(ThermoFockError):
    """A sampler could not produce reliable draws."""


class StabilityError(ThermoFockError):
    """A time integration violated its stability bound or blew up."""


def figure(count: int) -> str:
    """A whole number as f"{count:.3g}" writes it, also past the largest
    float: 2 (nmax + 1)^2 at --nmax 1e300 is 2e+600."""
    if count < 1000:
        return str(count)
    digits = str(round(count, 3 - len(str(count))))
    mantissa = f"{digits[0]}.{digits[1:3]}".rstrip("0").rstrip(".")
    return f"{mantissa}e+{len(digits) - 1:02d}"


def check_capacity(floats: int, what: str) -> None:
    """Refuse, before it is allocated, an array whose size a run's flags set
    once it would hold more than MAX_SNAPSHOT_FLOATS floats."""
    if floats > MAX_SNAPSHOT_FLOATS:
        raise CapacityError(
            f"{what} would hold {figure(floats)} floats, over the array cap "
            f"of {MAX_SNAPSHOT_FLOATS}")


def check_samples(samples: int, what: str) -> None:
    """Refuse, before any draw, a Monte Carlo run of more than MAX_SAMPLES
    samples, its --samples; `what` names the run."""
    if samples > MAX_SAMPLES:
        raise CapacityError(
            f"{what}: --samples {figure(samples)} is over the cap of "
            f"{MAX_SAMPLES} samples a run, which bounds its length (its "
            f"draws stream in fixed blocks, so not its memory)")


def check_steps(steps: int, what: str) -> None:
    """Refuse, before a step is taken, a stepped run of more than MAX_STEPS
    leapfrog steps; `what` says how the run counts them."""
    if steps > MAX_STEPS:
        raise CapacityError(
            f"{what}: {figure(steps)} leapfrog steps are over the cap of "
            f"{MAX_STEPS} a run, which bounds its length")


def step_count(span: float, dt: float, what: str) -> int:
    """The fewest equal steps no longer than `dt` that cut `span`, at least
    1; span/dt is refused by check_finite as `what`."""
    return max(1, math.ceil(check_finite(span / dt, what) - 1e-12))


def check_finite(value: float, what: str, positive: bool = False) -> float:
    """`value`, a float a run derived from its flags, or, once it has left
    the float range, FloatingPointError naming it as `what`: not finite, or
    with `positive` not above 0 either (one that underflowed)."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        raise FloatingPointError(
            f"{what} = {value:g} must be "
            f"{'positive and ' if positive else ''}finite")
    return value


def block_width(floats_per_item: int) -> int:
    """Items of `floats_per_item` floats one block holds, at least 1;
    BLOCK_FLOATS is read when called."""
    return max(1, BLOCK_FLOATS // floats_per_item)


def point_blocks(size: int, width: int = POINT_BLOCK) -> list:
    """Slices cutting `size` items into near-equal blocks of at most
    `width` items.

    No block holds a single item unless `size` or `width` is 1: numpy
    multiplies a one-element array in place by its scalar loop
    (`total *= zb` in `bargmann.FockVector.evaluate`), which rounds the
    imaginary part without the fused multiply-add of its vector loop, so a
    lone tail point would differ in the last bit from the unblocked sum.
    """
    count = max(1, -(-size // width))
    bounds = [size * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
