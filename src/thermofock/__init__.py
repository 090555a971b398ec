"""Quantum mechanics of a thermal oscillator grown from classical pieces.

Submodules
----------
exact        the linear observables q, p and sqrt(2) z, sqrt(2) zbar as
             Gaussian-integer coefficient pairs, whose brackets are exact
phasespace   the Poisson bracket and the 2x2 map of leapfrog steps
bargmann     the holomorphic function space, its basis, operators, kernels
bath         Gibbs measure: moments, partition integrals of a quadratic form,
             tilts, the sphere map
dynamics     evolution: spectral, transport PDE, damped, particle ensembles
chain        the oscillator chain as a lattice field
fits         log-log slope and decay-rate fits used by the checks
errors       typed numerical failures
reports      machine-readable check records
cli          the experiment harness (`thermofock` entry point)
commands     the subcommand runners, one module per command
"""

__version__ = "0.1.0"
