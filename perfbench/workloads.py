"""Seeded inputs for the benchmark workloads.

A workload is a list of CLI steps, each an argv for ``wglimit.cli.main``
plus the output file it writes.  The seed picks the profile amplitude,
the spectral parameters z, the aspect ratio and the edge-data
parameters; everything else is fixed, so one seed always yields the same
argv.  The generator imports nothing from ``wglimit``: the program under
test receives only the generated arguments.

Spectral parameters are drawn through their square root k = a + ib with
b > 0 and a != 0, so z = k^2 has Im z = 2ab != 0 and never lies on
[0, inf).  Holding b in a narrow band keeps the oracle's edge truncation
length -ln(1e-8)/b, and so its unknown count, nearly constant across
seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("tuned-resonant", "generic-sweep", "fd-oracle")

WHY = {
    "tuned-resonant": (
        "resonance tuning (tune_to_resonance) plus the resonant coupling, "
        "residual and graph-limit branches with the projector rebuilt per point"),
    "generic-sweep": (
        "per-point shooting at eps^2 z, half-line quad and residual quadrature "
        "on generic bumps; tuning never runs, so tuning work shows no change"),
    "fd-oracle": (
        "two refined FD oracle solves dominated by sparse LU; the only workload "
        "where memory is real (~1 GB peak RSS); tuning never runs"),
}

# Tuned amplitude ~6.10 keeps 1 + u*rho*gamma > 0 only for rho < 0.164.
TUNED_RATIO_MAX = 0.1


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its argv and the file it writes."""

    command: str
    argv: tuple[str, ...]
    out: str
    label: str
    n_points: int = 0  # sweep points (0 for non-sweep commands)


def _num(x: float) -> str:
    return repr(round(x, 4))


def z_flag(z: complex) -> str:
    """``--z=RE,IM``; the ``=`` form keeps a negative real part from
    being read as an option by argparse."""
    return f"--z={_num(z.real)},{_num(z.imag)}"


def draw_z(rng: random.Random, b_lo: float, b_hi: float) -> complex:
    a = rng.uniform(0.6, 0.9) * rng.choice((-1.0, 1.0))
    b = rng.uniform(b_lo, b_hi)
    k = complex(round(a, 3), round(b, 3))
    z = k * k
    return complex(round(z.real, 4), round(z.imag, 4))


def _sweeps(profile: str, z: complex, lo: int, hi: int, ratio: float,
            rate: float, center: float, width: float, tag: str) -> list[Step]:
    common = (f"--profile={profile}", z_flag(z), "--eps-grid", f"2^-{lo}..2^-{hi}",
              "--delta-rule", f"fixed-ratio:{_num(ratio)}")
    n = hi - lo + 1
    return [
        Step("coupling", ("coupling", *common), f"coupling{tag}.csv",
             f"coupling{tag}", n),
        Step("residual-sweep",
             ("residual-sweep", *common, "--f1", f"exp:{_num(rate)}",
              "--window-policy", "stabilize"),
             f"residual{tag}.csv", f"residual{tag}", n),
        Step("graph-limit",
             ("graph-limit", *common, "--f1",
              f"gaussian:{_num(center)},{_num(width)}"),
             f"graph{tag}.csv", f"graph{tag}", n),
    ]


def _oracle(profile: str, z: complex, h_u: float, h_s: float, center: float,
            width: float, refine: bool, tag: str) -> Step:
    argv = ["oracle-compare", f"--profile={profile}", z_flag(z),
            "--epsilon", "0.3", "--h-u", repr(h_u), "--h-s", repr(h_s),
            "--f1", f"gaussian:{_num(center)},{_num(width)}"]
    if refine:
        argv.append("--refine")
    return Step("oracle-compare", tuple(argv), f"oracle{tag}.json", f"oracle{tag}")


def _spectrum(profile: str, count: int) -> Step:
    return Step("spectrum", ("spectrum", f"--profile={profile}", "--count", str(count)),
                "spectrum.csv", "spectrum")


def make_steps(workload: str, seed: int) -> list[Step]:
    """The CLI steps of ``workload`` for ``seed`` (without ``--out``)."""
    rng = random.Random(f"{workload}:{seed}")
    center = rng.uniform(3.0, 3.5)
    width = rng.uniform(0.4, 0.5)
    rate = rng.uniform(0.8, 1.5)
    if workload == "tuned-resonant":
        z = draw_z(rng, 0.68, 0.72)
        ratio = rng.uniform(0.05, TUNED_RATIO_MAX)
        return [_spectrum("tuned:2", 4),
                *_sweeps("tuned:2", z, 4, 16, ratio, rate, center, width, ""),
                _oracle("tuned:2", z, 1 / 32, 1 / 64, center, width, False, "")]
    amplitude = rng.uniform(0.3, 0.9) * rng.choice((-1.0, 1.0))
    bump = f"bump:{_num(amplitude)}"
    if workload == "generic-sweep":
        steps = [_spectrum(bump, 6)]
        for i in range(3):
            z = draw_z(rng, 0.68, 0.72)
            steps += _sweeps(bump, z, 3, 20, rng.uniform(0.05, 0.1), rate,
                             center, width, f"_{i}")
        steps.append(_oracle(bump, z, 1 / 32, 1 / 64, center, width, False, ""))
        return steps
    if workload == "fd-oracle":
        z = draw_z(rng, 0.68, 0.72)
        return [_spectrum(bump, 6),
                _oracle("zero", z, 1 / 32, 1 / 64, center, width, True, "_zero"),
                _oracle(bump, z, 1 / 64, 1 / 64, center, width, True, "_bump"),
                _sweeps(bump, z, 3, 20, 0.1, rate, center, width, "")[2]]
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
