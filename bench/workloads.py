"""Workload definitions: models, run settings and what each run must emit.

A workload is a list of jobs.  One benchmark iteration runs every job once:
it writes the job's config JSON, builds the run with `mtcpp.cli.build_config`
and executes it with `mtcpp.harness.run`.  The reasons behind each choice are
in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Three-type linear-fractional model, rho ~ 1.26.
LF3 = {
    "k": 3,
    "H": [[0.3, 0.2, 0.2], [0.1, 0.4, 0.2], [0.2, 0.2, 0.3]],
    "g": [0.5, 0.3, 0.2],
    "m": 0.8,
}

#: Two-type finite-support model (the tests' E1 fixture), rho ~ 0.81.
E1 = {
    "k": 2,
    "pmf": {
        "1": [{"counts": [0, 0], "p": 0.5}, {"counts": [1, 1], "p": 0.5}],
        "2": [{"counts": [0, 0], "p": 0.5}, {"counts": [1, 0], "p": 0.5}],
    },
}

#: Three-type finite-support model, rho ~ 0.77.
S3 = {
    "k": 3,
    "pmf": {
        "1": [
            {"counts": [0, 0, 0], "p": 0.45},
            {"counts": [1, 1, 0], "p": 0.3},
            {"counts": [0, 0, 1], "p": 0.25},
        ],
        "2": [
            {"counts": [0, 0, 0], "p": 0.5},
            {"counts": [1, 0, 0], "p": 0.3},
            {"counts": [0, 1, 1], "p": 0.2},
        ],
        "3": [
            {"counts": [0, 0, 0], "p": 0.5},
            {"counts": [0, 1, 0], "p": 0.25},
            {"counts": [1, 0, 1], "p": 0.25},
        ],
    },
}

VALIDATE_FILES = ("estimates.csv", "laws.csv", "report.json")
SIMULATE_FILES = ("records.csv", "report.json", "tree.tsv")


def _count_lines(out_dir: str, name: str) -> int:
    with open(f"{out_dir}/{name}", "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


@dataclass(frozen=True)
class Job:
    """One `mtcpp <task>` invocation inside an iteration."""

    label: str
    task: str
    config: dict
    files: tuple[str, ...]
    #: units of work this job did, read from its output directory
    units: Callable[[str], int]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    jobs: tuple[Job, ...]


def _chain_job(samples: int, horizon: int, n_max: int) -> Job:
    # validate on an LF model runs a_stationary plus one b_stationary
    # statistic per type, each over `samples` chain transitions
    k = LF3["k"]
    return Job(
        label="LF3",
        task="validate",
        config={"model": {"lf": LF3}, "samples": samples, "horizon": horizon, "n_max": n_max},
        files=VALIDATE_FILES,
        units=lambda out_dir: samples * (k + 1),
    )


def _forest_job(width: int, horizon: int) -> Job:
    # records.csv holds a header plus one line per consecutive standing
    # pair, so its line count is the standing width
    return Job(
        label="LF3",
        task="simulate",
        config={"model": {"lf": LF3}, "samples": width, "horizon": horizon},
        files=SIMULATE_FILES,
        units=lambda out_dir: _count_lines(out_dir, "records.csv"),
    )


def _spec_job(label: str, model: dict, samples: int, horizon: int, n_max: int) -> Job:
    return Job(
        label=label,
        task="validate",
        config={"model": {"spec": model}, "samples": samples, "horizon": horizon, "n_max": n_max},
        files=VALIDATE_FILES,
        units=lambda out_dir: samples,
    )


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """Benchmark workloads by name; `smoke` shrinks every job to seconds."""
    if smoke:
        chain = _chain_job(samples=300, horizon=10, n_max=4)
        tree = _forest_job(width=2_000, horizon=12)
        spec = (
            _spec_job("E1", E1, samples=300, horizon=6, n_max=3),
            _spec_job("S3", S3, samples=300, horizon=4, n_max=2),
        )
    else:
        chain = _chain_job(samples=2_000, horizon=30, n_max=6)
        tree = _forest_job(width=200_000, horizon=30)
        spec = (
            _spec_job("E1", E1, samples=1_000, horizon=10, n_max=8),
            _spec_job("S3", S3, samples=1_000, horizon=6, n_max=4),
        )
    return {
        "chain-stationary": Workload("chain-stationary", "chain transitions", (chain,)),
        "forest-standing": Workload("forest-standing", "standing individuals", (tree,)),
        "spec-validate": Workload("spec-validate", "first-pair samples", spec),
    }
