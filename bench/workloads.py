"""The three closed-loop workloads: seeded op generators, and the code that
prepares, runs and checks one op against helios.

The generators import nothing from helios: an op is a kind plus a dict of
plain numbers and strings, so the same seed gives an equal op list and the
program receives only the inputs built from it.

Why these workloads:

- certify: `bounds-check` on seeded sub-grids. Nearly all time is the
  double-double Hankel finite sum; it never touches harmonics, lab or
  obstacle and its (n, t) points almost never repeat. It is the workload
  for a faster Hankel kernel and the no-change control for spectrum and
  transform work.
- inverse: equal thirds of `sweep`, `stability-verify` and an obstacle
  forward/invert round trip, all through `cli.main`. About half the time
  is `hankel_factors`, recomputed per map, and most of the rest is the
  dict-backed `CoefficientSpectrum` arithmetic; it also exercises `io`.
- sphere: library calls on the observation sphere. Four in five ops are
  warm synthesis/analysis round trips and norm-identity checks on grids
  built in set-up (degree 10, 20, 40); one in five builds and fills its
  own grid (degree 5..20), so a change that speeds transforms but makes
  grid set-up costlier shows here. Degree 60 is left out: its cold fill
  alone takes about half a minute and 440 MB.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("certify", "inverse", "sphere")
WARM_DEGREES = (10, 20, 40)

ROUNDTRIP_TOL = 1e-10
NORM_GAP_TOL = 1e-9
OBSTACLE_TOL = 1e-9
IMAG_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


def _kronecker_steps(dims: int) -> np.ndarray:
    """Steps of the R_d low-discrepancy sequence: the powers 1..d of
    1/phi_d, where phi_d > 1 solves x**(d+1) = x + 1."""
    phi = 2.0
    for _ in range(100):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return phi ** -np.arange(1.0, dims + 1)


class _Design:
    """Full factorial designs for the decks of one stream. A cell is one
    bin per dimension, and each deck holds one point in every cell, so
    every deck has the same mix of op sizes. A cell's point starts at a
    seeded position and moves from deck to deck along an R_d sequence, so
    the points of a run's decks spread evenly over each cell and the run's
    mix of sizes, and with it its latency percentiles, barely depends on
    the seed."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.deck = 0
        self.calls = 0
        self.starts: list[np.ndarray] = []

    def next_deck(self) -> None:
        self.deck += 1
        self.calls = 0

    def cells(self, *bins: int) -> list[tuple[float, ...]]:
        """One point per cell, in a seeded order. Each call in a deck is
        its own design, matched with the same call of the other decks."""
        cells = list(itertools.product(*(range(b) for b in bins)))
        if self.calls == len(self.starts):
            self.starts.append(self.rng.random((len(cells), len(bins))))
        points = (self.starts[self.calls] + self.deck * _kronecker_steps(len(bins))) % 1.0
        self.calls += 1
        return [tuple(float((c + u) / b) for c, u, b in zip(cells[i], points[i], bins))
                for i in self.rng.permutation(len(cells))]


def _int(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) to an integer in [lo, hi]."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _log(u: float, lo: float, hi: float) -> float:
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _certify_deck(rng, design) -> list[Op]:
    ops = []
    for u_n, u_points, u_t1, u_t2 in design.cells(5, 4, 1, 1):
        t1, t2 = sorted(_log(u, 0.1, 200.0) for u in (u_t1, u_t2))
        ops.append(Op("bounds", {
            "nmax": _int(u_n, 10, 50),
            "points": _int(u_points, 5, 20),
            "tmin": t1,
            "tmax": t2,
        }))
    return ops


def _inverse_deck(rng, design) -> list[Op]:
    ops = []
    sweeps = zip(design.cells(3, 2, 2, 1, 1), rng.permutation(["soft", "hard"] * 6),
                 rng.permutation(["exponential", "algebraic"] * 6))
    for (u_degree, u_nk, u_reps, u_delta, u_rate), kind, profile in sweeps:
        max_degree = _int(u_degree, 5, 30)
        # floor(sqrt(k)) < max_degree keeps noise above the cutoff, so
        # eps2 > 0 and every CSV column is finite
        k_hi = min(64, max_degree * max_degree - 1)
        k_list = rng.choice(np.arange(2, k_hi + 1), _int(u_nk, 2, 6), replace=False)
        ops.append(Op("sweep", {
            "R": 1.0,
            "delta": float(10.0 ** (-6.0 + 4.0 * u_delta)),
            "k_list": [float(k) for k in sorted(k_list)],
            "seeds": _int(u_reps, 2, 10),
            "seed": _seed(rng),
            "kind": str(kind),
            "profile": {
                "kind": str(profile),
                "rate": 0.3 + 1.2 * u_rate if profile == "exponential" else 1.0 + 2.0 * u_rate,
                "max_degree": max_degree,
                "seed": _seed(rng),
            },
        }))
    for u_size, u_which in design.cells(4, 3):
        ops.append(Op("stability", {
            "size": _int(u_size, 10, 40),
            "seed": _seed(rng),
            "which": ("T1", "T2", "T1der")[_int(u_which, 0, 2)],
        }))
    for u_degree, u_kind, u_k in design.cells(6, 2, 1):
        ops.append(Op("obstacle", {
            "kind": ("soft", "hard")[_int(u_kind, 0, 1)],
            "degree": _int(u_degree, 5, 30),
            "k": _log(u_k, 2.0, 64.0),
            "coef_seed": _seed(rng),
        }))
    return [ops[i] for i in rng.permutation(len(ops))]


def _sphere_deck(rng, design) -> list[Op]:
    ops = []
    for kind in ("roundtrip", "norm_warm"):
        for u_grid, u_degree, u_k in design.cells(3, 4, 1):
            L = WARM_DEGREES[_int(u_grid, 0, 2)]
            params = {"grid": L, "degree": _int(u_degree, L // 2, L), "coef_seed": _seed(rng)}
            if kind == "norm_warm":
                params["k"] = _log(u_k, 2.0, 64.0)
            ops.append(Op(kind, params))
    for u_kind, u_degree, u_k in design.cells(2, 3, 1):
        ops.append(Op(("norm_cold", "residual_cold")[_int(u_kind, 0, 1)], {
            "degree": _int(u_degree, 5, 20),
            "k": _log(u_k, 2.0, 64.0),
            "coef_seed": _seed(rng),
        }))
    return [ops[i] for i in rng.permutation(len(ops))]


_DECKS = {"certify": _certify_deck, "inverse": _inverse_deck, "sphere": _sphere_deck}


def generate(workload: str, seed: int, stream: int = 0):
    """Endless stream of decks (lists of ops) for a workload; equal
    (seed, stream) give equal streams. Stream 0 is the timed run, stream 1
    the warm-up ops."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    design = _Design(rng)
    make = _DECKS[workload]
    while True:
        yield make(rng, design)
        design.next_deck()


def warmup_ops(workload: str) -> list[Op]:
    """The first op of each kind in the warm-up stream's first deck, for
    seed 0 whatever the run's seed: set-up then does the same work in
    every run, and `setup_s` measures set-up, not the sizes a seed drew."""
    out = {}
    for op in next(generate(workload, 0, stream=1)):
        out.setdefault(op.kind, op)
    return [out[k] for k in sorted(out)]


# --------------------------------------------------------------------------
# Running ops against helios. `hx` is the imported helios package; every
# call goes through a module attribute at call time, so a traced run sees
# the wrapped functions.


def random_coefficients(degree: int, seed: int, real: bool) -> dict[tuple[int, int], complex]:
    """Decaying random coefficients up to `degree`. With `real`, they obey
    d_{n,-m} = (-1)^m conj(d_{n,m}), so the surface function is real."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in range(degree + 1):
        scale = 1.0 / (1.0 + n)
        for m in range(0 if real else -n, n + 1):
            c = complex(rng.standard_normal(), rng.standard_normal()) * scale
            if real and m == 0:
                c = complex(c.real, 0.0)
            out[n, m] = c
            if real and m > 0:
                out[n, -m] = (-1) ** m * c.conjugate()
    return out


def relative_error(got: dict, want: dict) -> float:
    keys = set(got) | set(want)
    diff = sum(abs(got.get(k, 0.0) - want.get(k, 0.0)) ** 2 for k in keys)
    return math.sqrt(diff / sum(abs(v) ** 2 for v in want.values()))


@dataclass
class Context:
    hx: object
    tmp: str
    grids: dict = field(default_factory=dict)

    def setup(self, workload: str) -> None:
        """Build and warm the sphere grids; other workloads need none."""
        if workload != "sphere":
            return
        harmonics = self.hx.harmonics
        for L in WARM_DEGREES:
            grid = harmonics.SphereGrid.build(L)
            full = harmonics.CoefficientSpectrum(L, random_coefficients(L, L, real=False))
            harmonics.analyze(harmonics.synthesize(full, grid), grid, L)
            self.grids[L] = grid

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)


def cli(ctx: Context, argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return ctx.hx.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def _write_spectrum(path: str, k: float, degree: int, coeffs: dict) -> None:
    records = [{"n": n, "m": m, "re": v.real, "im": v.imag} for (n, m), v in sorted(coeffs.items())]
    with open(path, "w") as fh:
        json.dump({"k": k, "R": 1.0, "max_degree": degree, "coefficients": records}, fh)


def _read_spectrum(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return {(r["n"], r["m"]): complex(r["re"], r["im"]) for r in doc["coefficients"]}


def _remove(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def prepare(op: Op, ctx: Context):
    """Untimed: build the op's inputs (files for CLI ops, spectra for
    library ops) and remove the outputs of earlier ops, so that a check
    never reads a stale file."""
    p = op.params
    spectrum = ctx.hx.harmonics.CoefficientSpectrum
    if op.kind == "bounds":
        return ["bounds-check", "--nmax", str(p["nmax"]), "--points", str(p["points"]),
                "--tmin", repr(p["tmin"]), "--tmax", repr(p["tmax"])]
    if op.kind == "stability":
        return ["stability-verify", "--ensemble-size", str(p["size"]),
                "--seed", str(p["seed"]), "--which", p["which"]]
    if op.kind == "sweep":
        _remove(ctx.path("sweep.csv"))
        with open(ctx.path("sweep.json"), "w") as fh:
            json.dump(p, fh)
        return ["sweep", "--config", ctx.path("sweep.json"), "--out", ctx.path("sweep.csv")]
    if op.kind == "obstacle":
        _remove(ctx.path("a.json"), ctx.path("r.json"))
        coeffs = random_coefficients(p["degree"], p["coef_seed"], real=True)
        _write_spectrum(ctx.path("d.json"), p["k"], p["degree"], coeffs)
        return coeffs
    if op.kind in ("roundtrip", "norm_warm", "norm_cold"):
        coeffs = random_coefficients(p["degree"], p["coef_seed"], real=False)
        return coeffs, spectrum(p["degree"], coeffs)
    if op.kind == "residual_cold":
        coeffs = random_coefficients(p["degree"], p["coef_seed"], real=True)
        return ctx.hx.obstacle.BoundaryPerturbation(spectrum(p["degree"], coeffs))
    raise ValueError(f"unknown op kind {op.kind!r}")


def execute(op: Op, ctx: Context, inputs):
    """Timed: the op itself. Returns what `check` needs."""
    hx, p = ctx.hx, op.params
    if op.kind in ("bounds", "stability", "sweep"):
        return cli(ctx, inputs)
    if op.kind == "obstacle":
        kind = p["kind"]
        rc = cli(ctx, ["obstacle", "forward", ctx.path("d.json"), "--kind", kind,
                        "--out", ctx.path("a.json")])
        if rc != 0:
            return rc
        return cli(ctx, ["obstacle", "invert", ctx.path("a.json"), "--kind", kind,
                          "--ncut", str(p["degree"]), "--out", ctx.path("r.json")])
    if op.kind == "roundtrip":
        grid = ctx.grids[p["grid"]]
        samples = hx.harmonics.synthesize(inputs[1], grid)
        return hx.harmonics.analyze(samples, grid, p["degree"])
    if op.kind == "norm_warm":
        return hx.field.norm_identity_check(inputs[1], p["k"], 1.0, grid=ctx.grids[p["grid"]])
    if op.kind == "norm_cold":
        return hx.field.norm_identity_check(inputs[1], p["k"], 1.0)
    return inputs.imaginary_residual()


def check(op: Op, ctx: Context, inputs, result) -> str | None:
    """Untimed: None when the result is correct, else the failure class
    ("exit1", "exit2" or "tolerance")."""
    if op.kind in ("bounds", "stability", "sweep", "obstacle"):
        if result != 0:
            return "exit1" if result == 1 else "exit2"
    if op.kind == "sweep":
        with open(ctx.path("sweep.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")]
        ok = len(rows) == len(op.params["k_list"]) * op.params["seeds"]
        return None if ok and all(map(math.isfinite, values)) else "tolerance"
    if op.kind == "obstacle":
        got = _read_spectrum(ctx.path("r.json"))
        return None if relative_error(got, inputs) <= OBSTACLE_TOL else "tolerance"
    if op.kind == "roundtrip":
        got = dict(result.items())
        return None if relative_error(got, inputs[0]) <= ROUNDTRIP_TOL else "tolerance"
    if op.kind in ("norm_warm", "norm_cold"):
        lhs, rhs = result
        return None if abs(lhs - rhs) <= NORM_GAP_TOL * abs(rhs) else "tolerance"
    if op.kind == "residual_cold":
        return None if result <= IMAG_RESIDUAL_TOL else "tolerance"
    return None
