"""Quantum mechanics of a thermal oscillator grown from classical pieces.

Submodules
----------
exact        numbers of the field Q(i, sqrt(2)) for the exact brackets
phasespace   linear observables, their exact Poisson bracket, leapfrog
             integration
bargmann     the holomorphic function space, its basis, operators, kernels
bath         Gibbs measure: moments, partition integrals of a quadratic form,
             tilts, the sphere map
dynamics     evolution: spectral, transport PDE, damped, particle ensembles
chain        the oscillator chain as a lattice field
fits         log-log slope and decay-rate fits used by the checks
errors       typed numerical failures
reports      machine-readable check records
cli          the experiment harness (`thermofock` entry point)
"""

__version__ = "0.1.0"
