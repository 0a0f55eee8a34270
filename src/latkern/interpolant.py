"""Kernel interpolation at lattice points via circulant FFT solves.

The Gram matrix of the kernel on a rank-1 lattice is circulant in the
point index because t_k - t_{k'} is again a lattice point, so building the
interpolant and evaluating it on the union of shifted lattices both reduce
to length-n transforms of the single kernel column K(t_j, 0).

Index convention: array index j = 0..n-1 is lattice index k = j, with
j = 0 the origin point t_0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .extended import ExtendedReal
from .fourier import dft
from .kernel import KernelSpec, frac, kernel_values_batch, rnorm
from .lattice import Lattice

__all__ = [
    "Interpolant",
    "InterpolantBatch",
    "SingularSpectrumError",
    "TrigPolynomial",
    "build",
    "build_many",
    "evaluate",
    "evaluate_shifted_union",
    "h_norm",
    "l2_error_estimate",
    "save_interpolant",
    "load_interpolant",
]

_SINGULAR_REL = 1e-13


class SingularSpectrumError(ArithmeticError):
    """The circulant spectrum is too close to singular to divide by."""


def _check_spectrum(spectrum: np.ndarray) -> None:
    mags = np.abs(spectrum)
    lo, hi = float(np.min(mags)), float(np.max(mags))
    if lo < _SINGULAR_REL * hi:
        raise SingularSpectrumError(
            f"near-singular circulant spectrum: min/max |lambda| = "
            f"{lo:.3e}/{hi:.3e} = {lo / hi:.2e}, below {_SINGULAR_REL:g}; "
            "degenerate points or weights"
        )


@dataclass(frozen=True)
class Interpolant:
    spec: KernelSpec
    lat: Lattice
    coeffs: np.ndarray
    first_column: np.ndarray
    spectrum: np.ndarray
    residual: float


def _kernel_column(spec: KernelSpec, lat: Lattice, y=None) -> np.ndarray:
    """[K(t_j, y)]_j for j = 0..n-1 (y = 0 gives the circulant column)."""
    pts = lat.points()
    if y is not None:
        pts = pts - np.asarray(y, dtype=float)[None, :]
    return kernel_values_batch(spec, pts)


def _solve_spectrum(spectrum: np.ndarray, vhat: np.ndarray) -> np.ndarray:
    # v_{k'} = sum_j c_j a_{(k'+j) mod n} is a correlation, hence the
    # conjugate on the column spectrum.
    return vhat / np.conj(spectrum)


def build(spec: KernelSpec, lat: Lattice, values) -> Interpolant:
    values = np.asarray(values, dtype=float)
    if values.shape != (lat.n,):
        raise ValueError("values must have one entry per lattice point")
    col = _kernel_column(spec, lat)
    spectrum = dft(col)
    _check_spectrum(spectrum)
    ahat = _solve_spectrum(spectrum, dft(values))
    coeffs = dft(ahat, direction="inverse").real
    node_vals = dft(ahat * np.conj(spectrum), direction="inverse").real
    residual = float(np.max(np.abs(node_vals - values)))
    return Interpolant(spec, lat, coeffs, col, spectrum, residual)


def evaluate(itp: Interpolant, y) -> float:
    y = frac(np.asarray(y, dtype=float))
    col = _kernel_column(itp.spec, itp.lat, y)
    return float(itp.coeffs @ col)


def evaluate_shifted_union(itp: Interpolant, y) -> np.ndarray:
    """[f_n(y + t_{k'})]_{k'} by one kernel column and one circulant matvec."""
    y = frac(np.asarray(y, dtype=float))
    col = _kernel_column(itp.spec, itp.lat, y)
    ghat = dft(itp.coeffs) * np.conj(dft(col))
    return dft(ghat, direction="inverse").real


class InterpolantBatch:
    """Many interpolants sharing one lattice, kernel, and column spectrum.

    Used when interpolating a field at every mesh node: the kernel column
    is transformed once and reused, so building costs one batched FFT.
    """

    def __init__(self, spec: KernelSpec, lat: Lattice, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != lat.n:
            raise ValueError("values must be (batch, n)")
        self.spec = spec
        self.lat = lat
        col = _kernel_column(spec, lat)
        self.spectrum = np.fft.fft(col)
        _check_spectrum(self.spectrum)
        self.coeff_fft = np.fft.fft(values, axis=1) / np.conj(
            self.spectrum
        )[None, :]

    def shifted_union(self, y) -> np.ndarray:
        """(batch, n) array of f_n(y + t_{k'}) for every batched function."""
        y = frac(np.asarray(y, dtype=float))
        col = _kernel_column(self.spec, self.lat, y)
        chat = np.conj(np.fft.fft(col))
        return np.fft.ifft(self.coeff_fft * chat[None, :], axis=1).real


def build_many(spec: KernelSpec, lat: Lattice, values: np.ndarray):
    return InterpolantBatch(spec, lat, values)


# ---------------------------------------------------------------------------
# trigonometric polynomials and the H norm


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite Fourier sum: terms maps frequency tuples to coefficients."""

    terms: dict

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        Y = np.atleast_2d(y)
        out = np.zeros(Y.shape[0], dtype=complex)
        for h, c in self.terms.items():
            out += c * np.exp(2j * math.pi * (Y @ np.asarray(h, float)))
        return out[0] if single else out

    def real_part(self):
        def f(y):
            return np.real(self(y))

        return f


def h_norm(spec: KernelSpec, f: TrigPolynomial) -> float:
    total = ExtendedReal.zero()
    for h, c in f.terms.items():
        a = abs(c)
        if a == 0.0:
            continue
        total = total + rnorm(spec.alpha, spec.scheme, h) * \
            ExtendedReal.from_float(a * a)
    return math.sqrt(total.to_float())


def l2_error_estimate(itp: Interpolant, f_true, sampler, L: int) -> float:
    """Sampled L2 error on the union of L shifted copies of the lattice."""
    if L < 1:
        raise ValueError("L must be at least 1")
    pts = itp.lat.points()
    n = itp.lat.n
    acc = 0.0
    for ell in range(L):
        y = np.asarray(sampler[ell], dtype=float)
        approx = evaluate_shifted_union(itp, y)
        shifted = frac(y[None, :] + pts)
        truth = np.asarray(f_true(shifted), dtype=float)
        if truth.shape != (n,):
            truth = np.array([float(f_true(p)) for p in shifted])
        acc += float(np.sum((truth - approx) ** 2))
    return math.sqrt(acc / (L * n))


# ---------------------------------------------------------------------------
# text serialization for surrogate reuse


def save_interpolant(path: str | Path, itp: Interpolant) -> None:
    lines = [
        f"# n={itp.lat.n} s={itp.lat.s} alpha={itp.spec.alpha} "
        f"scheme={itp.spec.scheme.kind}",
        "# z " + " ".join(str(int(v)) for v in itp.lat.z),
    ]
    lines += [repr(float(a)) for a in itp.coeffs]
    Path(path).write_text("\n".join(lines) + "\n")


def load_interpolant(path: str | Path, spec: KernelSpec) -> Interpolant:
    text = Path(path).read_text().splitlines()
    head = dict(
        kv.split("=") for kv in text[0].lstrip("# ").split() if "=" in kv
    )
    if int(head["alpha"]) != spec.alpha or head["scheme"] != spec.scheme.kind:
        raise ValueError("kernel spec does not match the stored header")
    z = np.array([int(t) for t in text[1].lstrip("# ").split()[1:]], np.int64)
    lat = Lattice(int(head["n"]), z)
    coeffs = np.array([float(t) for t in text[2:] if t.strip()])
    if coeffs.shape != (lat.n,):
        raise ValueError("coefficient count does not match header n")
    col = _kernel_column(spec, lat)
    return Interpolant(spec, lat, coeffs, col, dft(col), 0.0)
