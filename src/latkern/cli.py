"""Command-line front door: CBC construction and the two studies."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    StudyConfig,
    run_dim_truncation,
    run_interp_convergence,
    study_kernel,
)
from .lattice import cbc_construct, write_genvec

__all__ = ["cli", "main"]


def _ints(text: str) -> tuple:
    return tuple(int(t) for t in text.split(","))


# The type of every option, for flags and config keys alike.
_TYPES = {
    "weights": str,
    "theta": float,
    "c": float,
    "p": float,
    "delta": float,
    "s": int,
    "n_list": _ints,
    "mesh_level": int,
    "L": int,
    "seed": int,
    "genvec": str,
    "out": str,
}

_WEIGHT_OPTIONS = ("weights", "theta", "c", "p", "delta", "s", "n_list")

# Each command's study kind and the options its code reads; a command
# accepts no other flag or config key.
_COMMANDS = {
    "cbc": ("cbc-only", (*_WEIGHT_OPTIONS, "out")),
    "interp-study": (
        "interp-convergence",
        (*_WEIGHT_OPTIONS, "mesh_level", "L", "seed", "genvec", "out"),
    ),
    "dimtrunc-study": (
        "dim-truncation",
        ("theta", "c", "mesh_level", "genvec", "out"),
    ),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="latkern",
        description="Lattice-point kernel interpolation studies",
        allow_abbrev=False,
    )
    p.add_argument("--config", help="key=value file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, options) in _COMMANDS.items():
        cmd = sub.add_parser(command, allow_abbrev=False)
        for key in options:
            cmd.add_argument("--" + key.replace("_", "-"), type=_TYPES[key])
    return p


def _read_config(path: str, command: str) -> dict:
    options = _COMMANDS[command][1]
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, val = (t.strip() for t in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in options:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r} for {command}"
            )
        out[key] = _TYPES[key](val)
    return out


def _settings(args: argparse.Namespace) -> dict:
    """Config-file values overridden by flags, as StudyConfig keywords."""
    merged = _read_config(args.config, args.command) if args.config else {}
    for key in _COMMANDS[args.command][1]:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    if "n_list" in merged:
        merged["n_schedule"] = merged.pop("n_list")
    return merged


def _cmd_cbc(cfg: StudyConfig) -> int:
    if len(cfg.n_schedule) != 1:
        ns = ",".join(map(str, cfg.n_schedule))
        raise ValueError(f"cbc builds one n, not the n list {ns}")
    (n,) = cfg.n_schedule
    if cfg.out:
        # a bad path fails before the search; a file keeps its contents
        open(cfg.out, "a").close()
    report = cbc_construct(study_kernel(cfg), n, cfg.s)
    if cfg.out:
        write_genvec(cfg.out, report.z, n)
    else:
        sys.stdout.write(report.to_csv())
    return 0


def cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    kind = _COMMANDS[args.command][0]
    try:
        cfg = StudyConfig(kind, **_settings(args))
        if kind == "cbc-only":
            return _cmd_cbc(cfg)
        run = (
            run_interp_convergence
            if kind == "interp-convergence"
            else run_dim_truncation
        )
        rows, fit = run(cfg)
        if cfg.out is None:
            sys.stdout.write("".join(rows))
        if fit is not None:
            sys.stdout.write(f"# fitted slope {fit.slope!r}\n")
        return 0
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
