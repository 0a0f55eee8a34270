"""Kernel interpolation of periodic functions at rank-1 lattice points.

Submodules: special functions, weight families (with the scaled
mantissa/exponent pairs that keep factorial order factors finite), the
reproducing kernel, lattice/CBC construction, FFT interpolation, a P1
finite-element diffusion solver, and the convergence-study drivers.
"""

from .interpolant import (
    Interpolant,
    SingularSpectrumError,
    build,
    evaluate,
    l2_error_estimate,
)
from .kernel import KernelSpec, eta
from .lattice import (
    CbcReport,
    Lattice,
    cbc_construct,
    criterion_S,
    read_genvec,
    write_genvec,
)
from .pde import (
    DiffusionModel,
    FemMesh,
    FemSolution,
    fem_solve,
    h1_seminorm,
    l2_norm,
)
from .weights import (
    DerivedParams,
    PdeWeightInput,
    RangeError,
    WeightScheme,
    derive_pod,
    derive_product,
    derive_spod,
)

__version__ = "0.1.0"
