"""Kernel interpolation of periodic functions at rank-1 lattice points.

Submodules: special functions, weight families (order factors as floats),
the reproducing kernel, lattice/CBC construction, FFT interpolation, a P1
finite-element diffusion solver, and the convergence-study drivers.
Import each name from the module that defines it: the package re-exports none.
"""
