"""Regenerate the bundled quadrature generating vector.

Builds a product-weight CBC vector at n = 8192 for 512 dimensions, sized
for the dimension-truncation study's lattice quadrature over [0,1)^{s'}.
One-off; output is committed as package data.

Usage: python3 scripts/make_default_genvec.py
"""

import pathlib
import sys
import time

from latkern.kernel import KernelSpec
from latkern.lattice import cbc_construct, write_genvec
from latkern.pde import DiffusionModel, decay_sequence
from latkern.weights import PdeWeightInput, derive_product

N = 8192
S = 512


def default_spec() -> KernelSpec:
    """Product weights of the diffusion model the bundled vector is for."""
    model = DiffusionModel(0.4, 2.4, S)
    inp = PdeWeightInput(1.0 / 2.2, decay_sequence(model, S), 0.1)
    params = derive_product(inp, S)
    return KernelSpec(params.alpha, params.scheme)


def main() -> None:
    spec = default_spec()
    t0 = time.perf_counter()
    report = cbc_construct(spec, N, S)
    out = (
        pathlib.Path(__file__).resolve().parent.parent
        / "src" / "latkern" / "data" / "genvec-default.txt"
    )
    write_genvec(out, report.z, N)
    print(f"wrote {out} in {time.perf_counter() - t0:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
