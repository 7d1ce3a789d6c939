"""Numerical laboratory for a thermoviscoelastic plate with fading memory.

Submodules: kernels (memory kernels and their transforms), history (sampled
past-history grids), modes (spectra and phase vectors), dynamics (generator
assembly and time stepping), ctransport (the steppers' history-transport
backend: a compiled kernel or its bitwise NumPy/LAPACK/BLAS reference),
decay (rate fits and functional
inequalities), limits (collapsed-kernel comparisons), probe (resolvent
growth probes), config/cli (experiment harness).
"""

__version__ = "0.1.0"
