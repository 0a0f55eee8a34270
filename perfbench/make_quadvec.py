"""Make the dimtrunc workload's quadrature vector anew.

A product-weight CBC generating vector, n = 128 points in 128 dimensions,
for the diffusion model with c = 0.4 and theta = 2.4 (the model the
truncation study uses, and the one the bundled n = 8192 vector was built
for).  Committing it keeps CBC time out of the dimtrunc workload.

    python3 perfbench/make_quadvec.py

writes perfbench/data/quadvec-n128-s128.txt.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from latkern.lattice import cbc_construct, write_genvec  # noqa: E402
from workloads import QUADVEC, kernel_spec  # noqa: E402

N = 128
S = 128


def main() -> None:
    report = cbc_construct(kernel_spec("product", 0.4, 2.4, S), N, S)
    QUADVEC.parent.mkdir(exist_ok=True)
    write_genvec(QUADVEC, report.z, N)
    print(f"wrote {QUADVEC}", file=sys.stderr)


if __name__ == "__main__":
    main()
