"""The benchmark's workloads: the linecox commands one round runs.

Every command goes through ``linecox.cli.main`` exactly as a user would type
it, with ``--threads 1``.  Monte Carlo seeds are fixed so that the window
stage counts, the validate gates and every count the trace reports repeat
exactly from run to run; the benchmark's ``--seed`` drives the one input
that can vary without changing the amount of estimator work, the sampled
geometry of ``geometry-dump``.
"""
from __future__ import annotations

from dataclasses import dataclass

MC_SEED = "1"
STAGED_N = "2000"
AF_N = "200000"
LATENCY_N = "1000000"
GEOMETRY_RADIUS_KM = "30"  # about 180 lines of about 180 vehicles each
ASE_NU_GRID = "lin:0.05,0.2,4"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``key`` names its output directory and checker."""

    key: str
    argv: tuple[str, ...]


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one round, in the order they run."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    return [Command(key, tuple(a.format(seed=seed) for a in argv))
            for key, argv in WORKLOADS[workload]]


WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    # transform and quadrature layers only; no Monte Carlo
    "analytic-figures": [
        ("laplace-fig3", ["laplace", "--preset", "fig3"]),
        ("coverage-fig5", ["coverage", "--preset", "fig5"]),
        ("af-cumulative-fig7", ["af-cumulative", "--preset", "fig7"]),
        ("latency-fig8", ["latency", "--preset", "fig8"]),
        ("ase-nu", ["ase", "--preset", "fig5", "--set", f"grid.nu={ASE_NU_GRID}"]),
    ],
    # 32 coarse + 25 refined cells, each needing coverage, af limit and latency
    "optimize-fig10": [
        ("optimize-fig10", ["optimize", "--preset", "fig10", "--set", "run.constraint=30"]),
    ],
    # the staged window-doubling estimator
    "montecarlo-staged": [
        ("validate-fig3", ["validate", "--preset", "fig3", "--seed", MC_SEED, "--n", STAGED_N]),
        ("coverage-fig5-mc", ["coverage", "--preset", "fig5", "--mode", "montecarlo",
                              "--seed", MC_SEED, "--n", STAGED_N]),
    ],
    # one-stream bulk estimators and the geometry sampler, bound by memory
    "montecarlo-bulk": [
        ("validate-fig7", ["validate", "--preset", "fig7", "--seed", MC_SEED, "--n", AF_N]),
        ("validate-fig8", ["validate", "--preset", "fig8", "--seed", MC_SEED, "--n", LATENCY_N]),
        ("geometry-dump", ["geometry-dump", "--seed", "{seed}",
                           "--set", f"run.radius={GEOMETRY_RADIUS_KM}",
                           "--set", f"run.half_length={GEOMETRY_RADIUS_KM}"]),
    ],
}
