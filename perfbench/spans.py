"""Spans around latkern's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function (or method) with a wrapper
that records a span: the layer it belongs to, start and end, the span that
called it, and the work it was given as counts.  The wrapper is put
wherever latkern's modules (and any extra namespace passed in) hold a
reference to the original, so calls between latkern modules are traced
too.  ``uninstall`` puts every original back.  Spans stay in memory until
``write`` dumps them as JSON lines.

A layer's self time is the duration of its spans minus the time covered by
their child spans; ``layer_totals`` sums self times and counts per layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _totient(n: int) -> int:
    return sum(1 for c in range(1, n) if math.gcd(c, n) == 1)


def _cbc_counts(args, kwargs):
    n, s = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "s")
    return {"lattice.cbc_candidates": _totient(n) * s}


def _batch_rows(args, kwargs):
    return {"kernel.batch_rows": int(_arg(args, kwargs, 1, "dy").size)}


def _build_many_points(args, kwargs):
    lat, values = _arg(args, kwargs, 1, "lat"), _arg(args, kwargs, 2, "values")
    return {"interpolant.fft_points": int(values.shape[0]) * lat.n}


def _build_points(args, kwargs):
    return {"interpolant.fft_points": _arg(args, kwargs, 1, "lat").n}


def _shifted_union_counts(args, kwargs):
    batch = args[0]
    return {
        "interpolant.evals": 1,
        "interpolant.fft_points": int(batch.coeff_fft.shape[0]) * batch.lat.n,
    }


def _one(name):
    return lambda args, kwargs: {name: 1}


# (module, attribute, layer, counts of the work a call is given)
TARGETS = (
    ("latkern.weights", "derive_product", "weights.derive", None),
    ("latkern.weights", "derive_pod", "weights.derive", None),
    ("latkern.weights", "derive_spod", "weights.derive", None),
    ("latkern.lattice", "cbc_construct", "lattice.cbc", _cbc_counts),
    ("latkern.lattice", "read_genvec", "lattice.genvec_read", None),
    ("latkern.pde", "FemMesh.__init__", "pde.mesh", None),
    ("latkern.pde", "fem_solve", "pde.solve", _one("pde.solves")),
    ("latkern.pde", "l2_norm", "pde.norm", _one("pde.norms")),
    ("latkern.pde", "h1_seminorm", "pde.norm", _one("pde.norms")),
    ("latkern.kernel", "kernel_values_batch", "kernel.batch", _batch_rows),
    ("latkern.interpolant", "build_many", "interpolant.build",
     _build_many_points),
    ("latkern.interpolant", "build", "interpolant.build", _build_points),
    ("latkern.interpolant", "InterpolantBatch.shifted_union",
     "interpolant.eval", _shifted_union_counts),
    ("latkern.interpolant", "evaluate", "interpolant.eval",
     _one("interpolant.evals")),
    ("latkern.experiments", "run_interp_convergence", "experiments.self", None),
    ("latkern.experiments", "run_dim_truncation", "experiments.self", None),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNTS = (
    "lattice.cbc_candidates",
    "pde.solves",
    "pde.norms",
    "kernel.batch_rows",
    "interpolant.evals",
    "interpolant.fft_points",
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, extra_namespaces=()):
        self.spans: list[dict] = []
        self.round = "setup"
        self._stack: list[dict] = []
        self._patches = self._find_patches(extra_namespaces)

    def _find_patches(self, extra):
        """Every (owner, attribute, original, wrapper) the tracer swaps."""
        patches = []
        for modname, attr, layer, counts in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:  # a method: patch the class attribute only
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                patches.append(
                    (owner, meth, orig, self._wrap(orig, layer, counts))
                )
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, layer, counts)
            homes = [
                m for name, m in list(sys.modules.items())
                if name == "latkern" or name.startswith("latkern.")
            ]
            for owner in homes + list(extra):
                if getattr(owner, attr, None) is orig:
                    patches.append((owner, attr, orig, wrapper))
        return patches

    def _wrap(self, fn, layer, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {
                "layer": layer,
                "fn": fn.__qualname__,
                "round": self.round,
                "parent": parent["id"] if parent else None,
                "id": len(self.spans),
                "child_s": 0.0,
            }
            self.spans.append(span)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["start"], span["end"] = start, end
                if parent is not None:
                    parent["child_s"] += end - start
                span["counts"] = counts(args, kwargs) if counts else {}

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans) -> dict:
    """Self seconds per layer (``<layer>_s``) and summed counts."""
    out = {f"{layer}_s": 0.0 for layer in LAYERS}
    out.update({name: 0 for name in COUNTS})
    for span in spans:
        dur = span["end"] - span["start"]
        out[f"{span['layer']}_s"] += dur - span["child_s"]
        for name, value in span["counts"].items():
            out[name] += value
    return out
