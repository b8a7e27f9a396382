"""Command-line front end.

Exit codes: 0 all checks passed / command succeeded, 1 a mathematical
check failed (an inequality or invariant was violated), 2 usage, I/O, or
domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import io as io_mod
from .errors import CapacityError, DomainError, ResolutionError
from .field import low_pass, near_field_trace, sobolev_norm, split_spectrum
from .harmonics import aggregate
from .lab import ensemble_verify, ksweep, make_real_perturbation
from .obstacle import BoundaryPerturbation, forward_hard, forward_soft, invert_hard, invert_soft
from .specfun import hankel_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def cmd_hankel(args) -> int:
    h = hankel_value(args.n, args.t)
    z = h.derivative if args.deriv else h.value
    label = "derivative" if args.deriv else "value"
    print(f"n={args.n} t={io_mod.fmt(args.t)} {label}={io_mod.fmt(z.real)}{z.imag:+.17g}j "
          f"magnitude={io_mod.fmt(abs(z))}")
    return EXIT_OK


def cmd_bounds_check(args) -> int:
    table = bounds_mod.sweep(
        nmax=args.nmax, tmin=args.tmin, tmax=args.tmax, points=args.points
    )
    bad = np.flatnonzero(table.violating)
    checked = np.bincount(table.kind[table.applicable], minlength=len(bounds_mod.KINDS)).tolist()
    failed = np.bincount(table.kind[bad], minlength=len(bounds_mod.KINDS)).tolist()
    for kind, c, f in zip(bounds_mod.KINDS, checked, failed):
        print(f"{kind}: {c} points checked, {f} violations")
    print(f"total: {sum(checked)} applicable points, {len(bad)} violations")
    for r in table.reports(bad[:20]):
        print(f"  VIOLATION {r.kind} n={r.n} t={io_mod.fmt(r.t)} "
              f"|H|={io_mod.fmt(r.value_magnitude)} bound={io_mod.fmt(r.bound)}")
    return EXIT_OK if len(bad) == 0 else EXIT_CHECK_FAILED


def cmd_reconstruct(args) -> int:
    k, R, spectrum = io_mod.load_spectrum(args.input)
    if args.ncut is not None:
        spectrum = low_pass(spectrum, args.ncut)
    magnitudes = aggregate(spectrum)
    values, radial_derivatives = near_field_trace(magnitudes, k, R)
    split = split_spectrum(magnitudes, k, R)
    norms = {
        "u_0": sobolev_norm(values, 0, R),
        "u_1": sobolev_norm(values, 1, R),
        "du_0": sobolev_norm(radial_derivatives, 0, R),
        "du_1": sobolev_norm(radial_derivatives, 1, R),
    }
    doc = {
        "k": k,
        "R": R,
        "N": split.N,
        "eps1": split.eps1,
        "eps2": split.eps2,
        "E": None if split.E == math.inf else split.E,  # RFC 8259 has no Infinity
        "norms": norms,
        "degrees": [
            {
                "n": n,
                "u_re": float(u.real),
                "u_im": float(u.imag),
                "du_re": float(du.real),
                "du_im": float(du.imag),
            }
            for n, (u, du) in enumerate(zip(values, radial_derivatives))
        ],
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, default=float, allow_nan=False)
            fh.write("\n")
    for name, value in norms.items():
        print(f"{name}={io_mod.fmt(value)}")
    return EXIT_OK


def cmd_stability_verify(args) -> int:
    failures, min_slack = ensemble_verify(
        size=args.ensemble_size,
        seed=args.seed,
        which=args.which,
        kr_range=tuple(args.kR_range),
    )
    print(f"which={args.which} ensemble={args.ensemble_size} "
          f"failures={failures} min_slack={io_mod.fmt(min_slack)}")
    return EXIT_OK if failures == 0 and min_slack > 0 else EXIT_CHECK_FAILED


def cmd_obstacle(args) -> int:
    k, R, spectrum = io_mod.load_spectrum(args.input)
    if args.direction == "forward":
        d = BoundaryPerturbation(spectrum)
        out = forward_soft(d, k, R) if args.kind == "soft" else forward_hard(d, k, R)
    else:
        invert = invert_soft if args.kind == "soft" else invert_hard
        out = invert(spectrum, k, R, args.ncut).spectrum
    energy = out.energy()  # before writing, so an overflow leaves no file
    io_mod.dump_spectrum(args.out, k, R, out)
    print(f"{args.direction} {args.kind}: wrote {args.out} "
          f"(max_degree={out.max_degree}, energy={io_mod.fmt(energy)})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    profile, sweep = io_mod.load_sweep_config(args.config)
    rows = ksweep(make_real_perturbation(profile), **sweep)
    with open(args.out, "w") as fh:
        io_mod.write_sweep_csv(fh, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helios",
        description="Near-field recovery from the scattering amplitude: "
        "Hankel envelopes, stability budgets, and linearized obstacle inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hankel", help="evaluate the rescaled Hankel function")
    p.add_argument("n", type=int)
    p.add_argument("t", type=float)
    p.add_argument("--deriv", action="store_true", help="argument derivative instead of value")

    p = sub.add_parser("bounds-check", help="certify the Hankel envelopes on a grid")
    p.add_argument("--nmax", type=int, default=50)
    p.add_argument("--tmin", type=float, default=0.1)
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("reconstruct", help="near-field trace from a spectrum file")
    p.add_argument("input")
    p.add_argument("--ncut", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("stability-verify", help="check a stability estimate on a random ensemble")
    p.add_argument("--ensemble-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kR-range", dest="kR_range", type=float, nargs=2, default=[2.0, 100.0])
    p.add_argument("--which", choices=["T1", "T2", "T1der"], default="T1")

    p = sub.add_parser("obstacle", help="linearized obstacle forward/inverse maps")
    p.add_argument("direction", choices=["forward", "invert"])
    p.add_argument("input")
    p.add_argument("--kind", choices=["soft", "hard"], required=True)
    p.add_argument("--ncut", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="wavenumber sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    return parser


# Looked up at call time, so a wrapper set on a value here takes effect
# even for the parser already built.
COMMANDS = {
    "hankel": cmd_hankel,
    "bounds-check": cmd_bounds_check,
    "reconstruct": cmd_reconstruct,
    "stability-verify": cmd_stability_verify,
    "obstacle": cmd_obstacle,
    "sweep": cmd_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later `main` call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (DomainError, CapacityError, ResolutionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
