"""Kernel interpolation at lattice points via circulant FFT solves.

The Gram matrix of the kernel on a rank-1 lattice is circulant in the
point index because t_k - t_{k'} is again a lattice point, so building the
interpolant and evaluating it on the union of shifted lattices both reduce
to length-n transforms of the single kernel column K(t_j, 0).  The column
is symmetric to rounding, a_k = a_{n-k}, so its spectrum is real and the
solve uses numpy's real transforms along the last axis.

One type, `Interpolant`, holds one function (values shaped (n,)) or a
batch of functions sharing the lattice and kernel (values shaped (B, n)):
the transforms act on the last axis, so the batch needs no branch.
Building runs one forward transform and divides it by the spectrum, which
`build` forms unless its caller formed it first.  The coefficients and the
residual each cost an inverse transform, so each is computed on first
read: the residual from the values given to `build`, which are kept by
reference and must not change afterwards.

Kernel columns are formed coordinate-major, from `Lattice.columns()`, so
the kernel walks the (s, n) differences at unit stride.  It takes the
raw offset y: it wraps y into [0, 1)^s, refuses a y that is not
finite or not of shape (s,), and subtracts it block by block, so no (s, n)
array of differences is formed.  `Interpolant.shifted_union` allocates its
(..., n) result once, in the memory order of the coefficients, and fills
it in row blocks of about 2^16 complex entries (1 MiB): each block's
product with the column's spectrum goes into one reused buffer and is
inverse transformed into the result's rows.  So its transient memory is
the result plus about 1 MiB, not a second full-size complex array, and a
single function is a batch of one.  Each row's transform is independent,
so the blocks keep the bits of one transform.

Index convention: array index j = 0..n-1 is lattice index k = j, with
j = 0 the origin point t_0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import KernelSpec, frac, kernel_values_batch
from .lattice import Lattice

__all__ = [
    "Interpolant",
    "InterpolantBatch",
    "SingularSpectrumError",
    "build",
    "build_many",
    "circulant_spectrum",
    "evaluate",
    "l2_error_estimate",
]

_SINGULAR_REL = 1e-13
# Complex entries per row block of `Interpolant.shifted_union`: 1 MiB.
_ROW_BLOCK = 2**16


class SingularSpectrumError(ArithmeticError):
    """The circulant spectrum is too close to singular to divide by."""


def _check_spectrum(spectrum: np.ndarray) -> None:
    mags = np.abs(spectrum)
    lo, hi = float(np.min(mags)), float(np.max(mags))
    if not lo >= _SINGULAR_REL * hi:
        raise SingularSpectrumError(
            f"near-singular circulant spectrum: min/max |lambda| = "
            f"{lo:.3e}/{hi:.3e} = {lo / hi:.2e}, below {_SINGULAR_REL:g}; "
            "degenerate points or weights"
        )


def circulant_spectrum(spec: KernelSpec, lat: Lattice) -> np.ndarray:
    """The Gram matrix's eigenvalues, rfft of its symmetric first column.

    The column is K(t_j, 0).  Raises SingularSpectrumError when
    min/max |lambda| is below 1e-13.
    """
    spectrum = np.fft.rfft(kernel_values_batch(spec, lat.columns().T)).real
    _check_spectrum(spectrum)
    return spectrum


@dataclass(frozen=True)
class Interpolant:
    """Kernel interpolant(s) of node values on one lattice.

    values are the node values given to ``build``, (n,) or (B, n), held by
    reference: they must not change afterwards.  coeff_fft is the rfft of
    the coefficients along the last axis and spectrum the real circulant
    spectrum (n // 2 + 1 entries).  coeffs (shaped as values) and residual
    (the largest node misfit) are computed on first read and kept.
    """

    spec: KernelSpec
    lat: Lattice
    spectrum: np.ndarray
    coeff_fft: np.ndarray
    values: np.ndarray

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The interpolant's coefficients, shaped as values."""
        return np.fft.irfft(self.coeff_fft, n=self.lat.n)

    @cached_property
    def residual(self) -> float:
        """max |values - the interpolant at the nodes|, where the node
        values are re-formed by applying the spectrum to coeff_fft."""
        node_vals = np.fft.irfft(self.coeff_fft * self.spectrum, n=self.lat.n)
        return float(np.max(np.abs(node_vals - self.values)))

    def shifted_union(self, y) -> np.ndarray:
        """f_n(y + t_k) for k = 0..n-1 on the last axis, by one FFT product
        per row, taken in row blocks of about _ROW_BLOCK complex entries.
        """
        col = kernel_values_batch(self.spec, self.lat.points(), y)
        # f_n(y + t_k) = sum_j c_j a_{j-k}(y): a correlation, hence the conj
        chat = np.conj(np.fft.rfft(col))
        n = self.lat.n
        # in coeff_fft's memory order: the interpolation study's values are
        # F-ordered, and its warm-started solves read the union's transpose
        out = np.empty_like(
            self.coeff_fft, dtype=float, shape=self.coeff_fft.shape[:-1] + (n,)
        )
        src, dst = np.atleast_2d(self.coeff_fft), np.atleast_2d(out)
        rows = max(1, _ROW_BLOCK // chat.size)
        buf = np.empty((min(rows, len(src)), chat.size), dtype=complex)
        for a in range(0, len(src), rows):
            part = buf[: len(src) - a]  # the last block may be short
            np.multiply(src[a : a + rows], chat, out=part)
            np.fft.irfft(part, n=n, out=dst[a : a + rows])
        return out


def build(spec: KernelSpec, lat: Lattice, values,
          spectrum=None) -> Interpolant:
    """Interpolant of values (n,) or (B, n) at the points of lat.

    spectrum is lat's, of shape (n // 2 + 1,) as ``circulant_spectrum``
    returns it, for a caller that formed it first; by default it is formed
    here.  Besides, only the forward transform and the division by the
    spectrum run; values is kept by reference for ``Interpolant.residual``.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (lat.n,):
        raise ValueError("values must have one entry per lattice point")
    if spectrum is None:
        spectrum = circulant_spectrum(spec, lat)
    elif np.shape(spectrum) != (lat.n // 2 + 1,):
        raise ValueError(f"the spectrum must have shape ({lat.n // 2 + 1},)")
    coeff_fft = np.fft.rfft(values)
    coeff_fft /= spectrum
    return Interpolant(spec, lat, spectrum, coeff_fft, values)


# The benchmark traces these names, so they stay as aliases of the one type.
build_many = build
InterpolantBatch = Interpolant


def evaluate(itp: Interpolant, y):
    """f_n(y): a float, or one value per function of a batch."""
    return itp.coeffs @ kernel_values_batch(itp.spec, itp.lat.points(), y)


def l2_error_estimate(itp: Interpolant, truth, shifts, sq_norm) -> float:
    """RMS interpolation error over the shifted lattices y + t_k, y in shifts.

    truth maps the (n, s) shifted points and the interpolant's values there,
    `itp.shifted_union(y)` (points on the last axis), to the true values of
    the same shape; a truth computed iteratively may start from those
    values.  sq_norm maps the error to its n squared norms, one per point
    (np.square for scalar values).
    """
    if len(shifts) < 1:
        raise ValueError("need at least one shift")
    pts = itp.lat.points()
    acc = 0.0
    for y in shifts:
        y = np.asarray(y, dtype=float)
        approx = itp.shifted_union(y)
        err = np.asarray(truth(frac(y[None, :] + pts), approx)) - approx
        acc += float(np.sum(sq_norm(err)))
    return math.sqrt(acc / (len(shifts) * itp.lat.n))
