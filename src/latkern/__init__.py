"""Kernel interpolation of periodic functions at rank-1 lattice points.

Submodules: special functions, arbitrary-range reals, weight families,
the reproducing kernel, lattice/CBC construction, FFT interpolation,
a P1 finite-element diffusion solver, and the convergence-study drivers.
"""

from .extended import ExtendedReal, RangeError
from .interpolant import (
    Interpolant,
    SingularSpectrumError,
    TrigPolynomial,
    build,
    evaluate,
    evaluate_shifted_union,
    h_norm,
    l2_error_estimate,
)
from .kernel import KernelSpec, eta, kernel_eval, kernel_eval_bruteforce
from .lattice import (
    CbcReport,
    Lattice,
    cbc_construct,
    criterion_S,
    fooling_vector,
    lattice_point,
    read_genvec,
    write_genvec,
)
from .pde import (
    DiffusionModel,
    FemMesh,
    FemSolution,
    diffusion_at,
    fem_solve,
    h1_seminorm,
    l2_norm,
    truncated_solve,
)
from .weights import (
    DerivedParams,
    PdeWeightInput,
    WeightScheme,
    derive_pod,
    derive_product,
    derive_spod,
    theory_error_constant,
    weight_of,
)

__version__ = "0.1.0"
