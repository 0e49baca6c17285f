#!/usr/bin/env python3
"""End-to-end benchmark of the mtcpp package.

    python3 bench/run.py --workload chain-stationary --seed 7 --seconds 42 --trace 0
    python3 bench/run.py --smoke

Run from a checkout of the repository; the package is imported from its
`src/` directory.  Every iteration writes a config JSON, builds the run with
`mtcpp.cli.build_config` and executes it with `mtcpp.harness.run` in this
process, with MTCPP_THREADS=1, using --seed as the master seed.  Each
iteration is gated: exit status 0, report.json passed, the expected files
present, and every output byte-identical to the first iteration's.

--trace 0 reports the end-to-end metrics; --trace 1 first runs untraced
iterations, then wraps every layer's entry points (see tracer.py) and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Outputs, a result file with the machine context, and the span arrays of a
traced run go to .bench_out/ at the checkout root.  --smoke runs every
workload at a tiny size in both modes and checks that each metric named in
BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS, Tracer, install
from workloads import Workload, workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

E2E_UNITS = {
    "units_per_s": "1/s",
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "cpu_s_per_iter": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_UNITS = {"trace.overhead_units_per_s": "1/s", "trace.overhead_pct": "%"}

#: Fresh-interpreter set-ups per run; setup_s is their median.  They are
#: spread over the run, between iterations, because a shared machine's speed
#: can drift over seconds and probes made back to back would share one state.
SETUP_PROBES = 7

#: Timed iterations a run makes at least, after its warm-up iteration.
MIN_TIMED = 3

#: Share of a traced run spent untraced, to measure the tracing overhead.
UNTRACED_SHARE = 1 / 3

#: Iterations a tail percentile must leave beyond it.
TAIL_BEYOND = 10

# Set-up as a user pays it: start the interpreter, import the package, write
# each job's config and build its RunConfig (which constructs the model).
_PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mtcpp import cli, harness
for path, doc, argv in json.loads(sys.argv[2]):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    cli.build_config(argv)
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (package missing, set-up failed)."""


def import_package():
    """Import mtcpp from this checkout's src/, never from elsewhere."""
    if not (SRC / "mtcpp" / "__init__.py").is_file():
        raise BenchError(f"no mtcpp package under {SRC}")
    sys.path.insert(0, str(SRC))
    from mtcpp import analytics, cli, dchain, forest, harness

    if Path(cli.__file__).resolve().parent != (SRC / "mtcpp").resolve():
        raise BenchError(f"mtcpp imported from {cli.__file__}, not {SRC}")
    return cli, harness, dchain, forest, analytics


def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def speed_probe() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine ran
    around the measurement, to tell machine drift from program change."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": _blas_threads(),
        "mtcpp_threads": os.environ.get("MTCPP_THREADS"),
    }


def _argv(job, seed: int, cfg_path: Path, out_dir: Path) -> list[str]:
    return [job.task, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out_dir)]


def setup_probe(wl: Workload, seed: int, work: Path) -> float:
    probe_dir = work / "setup"
    probe_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (
            str(probe_dir / f"{job.label}.json"),
            job.config,
            _argv(job, seed, probe_dir / f"{job.label}.json", probe_dir / job.label),
        )
        for job in wl.jobs
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), json.dumps(jobs)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_iteration(wl: Workload, seed: int, work: Path, cli, harness) -> dict:
    """One timed pass over the workload's jobs, then the output gate."""
    for job in wl.jobs:
        shutil.rmtree(work / job.label, ignore_errors=True)
    gc.collect()
    statuses = []
    t0, c0 = time.perf_counter(), time.process_time()
    for job in wl.jobs:
        cfg_path = work / f"{job.label}.json"
        with open(cfg_path, "w") as fh:
            json.dump(job.config, fh)
        config = cli.build_config(_argv(job, seed, cfg_path, work / job.label))
        statuses.append(harness.run(config))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    problems: list[str] = []
    digests: dict[str, str] = {}
    units = nbytes = 0
    for job, status in zip(wl.jobs, statuses):
        out_dir = work / job.label
        before = len(problems)
        if status != 0:
            problems.append(f"{job.label}: exit status {status}")
        for name in job.files:
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{job.label}: {name} missing")
                continue
            digests[f"{job.label}/{name}"] = _sha256(path)
            nbytes += path.stat().st_size
        report = out_dir / "report.json"
        if report.is_file():
            doc = json.loads(report.read_text())
            if doc.get("passed") is not True:
                problems.append(f"{job.label}: report.json does not say passed")
            if doc.get("outputs") != sorted(job.files):
                problems.append(f"{job.label}: report lists {doc.get('outputs')}")
        if len(problems) == before:
            units += job.units(str(out_dir))
    return {
        "wall": wall,
        "cpu": cpu,
        "units": units,
        "bytes": nbytes,
        "digests": digests,
        "problems": problems,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count beyond) at the highest nearest-rank
    percentile that leaves TAIL_BEYOND values beyond it.

    Below 2 * TAIL_BEYOND values that percentile would sit under the
    median, so the maximum is reported instead, with none beyond it.
    """
    v = sorted(values)
    rank = len(v) - TAIL_BEYOND
    if 2 * rank < len(v):
        return v[-1], 100.0, 0
    return v[rank - 1], 100.0 * rank / len(v), len(v) - rank


def measure(wl: Workload, seed: int, seconds: float, trace: bool, mods) -> dict:
    cli, harness = mods[0], mods[1]
    work = OUT / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    setups = [setup_probe(wl, seed, work)]

    records: list[dict] = []
    reference: dict[str, str] = {}

    def one(phase: str, tracer: Tracer | None = None) -> dict:
        if tracer is not None:
            tracer.begin_iteration()
        rec = run_iteration(wl, seed, work, cli, harness)
        if tracer is not None:
            tracer.end_iteration({"harness.bytes_written": rec["bytes"]})
        if not records:
            reference.update(rec["digests"])
        elif rec["digests"] != reference and not rec["problems"]:
            changed = sorted(
                k for k in reference.keys() | rec["digests"].keys()
                if reference.get(k) != rec["digests"].get(k)
            )
            rec["problems"].append(f"outputs differ from the first iteration: {changed}")
        rec["phase"] = phase
        records.append(rec)
        return rec

    def loop(phase: str, until: float, at_least: int, tracer: Tracer | None = None):
        done = 0
        while True:
            rec = one(phase, tracer)
            done += 1
            due = start + len(setups) * seconds / SETUP_PROBES
            if len(setups) < SETUP_PROBES and time.perf_counter() >= due:
                setups.append(setup_probe(wl, seed, work))
            if done >= at_least and time.perf_counter() + rec["wall"] > until:
                return

    one("warmup")
    tracer = None
    if trace:
        loop("timed", start + UNTRACED_SHARE * seconds, 2)
        tracer = Tracer()
        install(tracer, *mods)
        try:
            loop("traced", start + seconds, 2, tracer)
        finally:
            tracer.uninstall()
    else:
        loop("timed", start + seconds, MIN_TIMED)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl, seed, work))

    def rate(phase):
        return statistics.median(
            r["units"] / r["wall"] for r in records if r["phase"] == phase
        )

    timed = [r for r in records if r["phase"] == "timed"]
    walls = [r["wall"] for r in timed]
    tail_value, tail_pct, beyond = tail(walls)
    if trace:
        untraced, traced = rate("timed"), rate("traced")
        values = dict(tracer.layer_metrics())
        values["trace.overhead_units_per_s"] = untraced - traced
        values["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
        units = {**LAYER_UNITS, **TRACE_UNITS}
        tracer.save(str(work / "trace.npz"))
    else:
        values = {
            "units_per_s": rate("timed"),
            "iter_s_p50": statistics.median(walls),
            "iter_s_tail": tail_value,
            "cpu_s_per_iter": statistics.median(r["cpu"] for r in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = E2E_UNITS
    failed = sum(1 for r in records if r["problems"])
    return {
        "workload": wl.name,
        "unit": wl.unit,
        "seed": seed,
        "trace": int(trace),
        "setups": setups,
        "timed_walls": walls,
        "tail": {"percentile": tail_pct, "beyond": beyond, "of": len(walls)},
        "problems": [p for r in records for p in r["problems"]],
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def report(result: dict) -> None:
    m = result["metrics"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("context " + json.dumps(result["context"], sort_keys=True))
    for name, metric in m.items():
        note = ""
        if name == "units_per_s":
            note = f"  ({result['unit']} per second)"
        elif name == "iter_s_p50":
            note = f"  (median of {result['tail']['of']} timed iterations)"
        elif name == "iter_s_tail":
            t = result["tail"]
            note = f"  (p{t['percentile']:.1f}, {t['beyond']} of {t['of']} iterations beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(result['setups'])} set-ups)"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    ratio = result["failed"] / result["attempted"]
    print(
        f"fail_ratio {ratio:.6g} ratio  "
        f"({result['failed']} failed of {result['attempted']} iterations)"
    )
    for problem in result["problems"][:10]:
        print(f"gate: {problem}", file=sys.stderr)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def smoke(seed: int, mods, context: dict) -> int:
    """Tiny run of every workload in both modes; checks names and units."""
    spec = _declared()
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    tiny = workloads(smoke=True)
    ok = sorted(w["name"] for w in spec["workloads"]) == sorted(tiny)
    if not ok:
        print("smoke: BENCHMARK.json workloads differ from workloads.py")
    for wl in tiny.values():
        for trace in (0, 1):
            result = measure(wl, seed, 0.0, bool(trace), mods)
            result["context"] = context
            report(result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            finite = all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in result["metrics"].values()
            )
            good = got == want[trace] and finite and result["correct"]
            ok = ok and good
            print(f"smoke {wl.name} trace {trace}: {'PASS' if good else 'FAIL'}")
    print(f"smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    os.environ["MTCPP_THREADS"] = "1"
    try:
        mods = import_package()
        context = machine_context()
        if args.smoke:
            return smoke(args.seed, mods, context)
        wl = workloads()[args.workload]
        probe_before = speed_probe()
        result = measure(wl, args.seed, args.seconds, bool(args.trace), mods)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result["context"] = {**context, "speed_probe_s": [probe_before, speed_probe()]}
    with open(OUT / wl.name / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    report(result)
    print(
        json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
