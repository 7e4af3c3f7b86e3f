"""gil benchmark: run one workload for a fixed time and report its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``bench/workloads.py``.  A run starts another pass
over the workload's ops while at least half of the median pass still fits in
``--seconds`` of op time, so it measures at least one pass and may overrun
``--seconds`` by up to half a pass.  It checks every op's output, and prints one
line per op, one line per metric, and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: wall_ref_s (fastest pass time),
setup_s (median fresh-process set-up), peak_rss_mb and ops_ok_frac, and
prints time_to_se_s and mala_steps_per_s for information.  Times are at the
reference machine speed of ``bench/speed.py``; the raw ones are printed too.
The set-up probes run between ops, spread over the run, and their time is not
part of the ``--seconds`` budget.  ``--trace 1`` traces one set-up, runs one
untraced pass, then traced passes with wrappers from ``bench/tracing.py``, and
reports the per-layer metrics; the spans go to
``.bench_work/trace-<workload>-seed<n>.json.gz``.

The benchmark reads and writes only inside the checkout: configs and outputs in
a per-run directory under ``.bench_work/``, removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
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
from dataclasses import dataclass
from pathlib import Path

import benchenv
import speed

N_SETUP = 12
WORK = benchenv.ROOT / ".bench_work"

E2E_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}


@dataclass
class Record:
    pass_index: int
    name: str
    seconds: float
    ref_seconds: float | None  # seconds at the reference machine speed (speed.py); None when traced
    outcome: str  # "ok", "failed" or "known-defect"
    detail: str
    se: float | None
    useful_steps: int
    bytes_out: int


def run_op(op, pass_index: int, tracer=None) -> Record:
    """Time one op, then evaluate its correctness rule outside the timed region.

    An untraced op is timed together with the machine's speed (speed.Meter); a
    traced one is not, so that the meter's samples do not land in its spans.
    """
    metered = tracer is None
    meter = speed.Meter() if metered else contextlib.nullcontext()
    if tracer is not None:
        tracer.begin_op(f"{pass_index}:{op.name}")
    with meter:
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op, not a crashed run
            result, error = None, exc
        seconds = time.perf_counter() - t0 - (meter.paused if metered else 0.0)
    ref_seconds = speed.reference_time(seconds, meter.samples) if metered else None

    se = None
    if error is not None:
        kind = type(error).__name__
        outcome = "known-defect" if kind == op.known_defect else "failed"
        detail = f"{kind}: {error}"
    else:
        try:
            reason = op.check(result)
        except Exception as exc:
            reason = f"correctness rule raised {type(exc).__name__}: {exc}"
        outcome = "ok" if reason is None else "failed"
        detail = reason or ""
        if outcome == "ok" and op.se is not None:
            se = op.se(result)
    bytes_out = op.output.stat().st_size if op.output is not None and op.output.exists() else 0
    return Record(pass_index, op.name, seconds, ref_seconds, outcome, detail, se,
                  op.useful_steps if outcome == "ok" else 0, bytes_out)


def run_pass(wl, inputs, workdir: Path, seed: int, pass_index: int, tracer=None, before_op=None) -> list[Record]:
    ops = wl.make_ops(inputs, workdir, seed * 1000 + pass_index)
    if tracer is not None:
        tracer.install()
    records = []
    try:
        for op in ops:
            if before_op is not None:
                before_op()
            records.append(run_op(op, pass_index, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for r in records:
        se = "" if r.se is None else f" se={r.se!r}"
        ref = "" if r.ref_seconds is None else f" ref={r.ref_seconds:.4f}s"
        print(f"op pass={r.pass_index} {r.name} {r.seconds:.4f}s{ref} {r.outcome}{se} {r.detail}".rstrip(), flush=True)
    return records


def setup_time(workload: str) -> tuple[float, float]:
    """One fresh-process set-up, raw and at the reference speed.

    Interpreter start is excluded; the gil import and the inputs are included.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload],
        cwd=benchenv.ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(ref)


class SetupProbes:
    """N_SETUP set-up probes spread over a run's op time.

    Slow spells of the machine last seconds to minutes, so probes made back to
    back share one machine state; spread over the run, they sample more of
    them.  Before each op, probes catch up with the share of the
    ``--seconds`` budget the ops have used; ``finish`` makes up the rest.
    """

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.times: list[tuple[float, float]] = []
        self.spent = 0.0  # wall time inside probes, kept out of the op budget
        self.start = time.perf_counter()

    def _probe_until(self, count: int) -> None:
        while len(self.times) < count:
            t0 = time.perf_counter()
            self.times.append(setup_time(self.workload))
            self.spent += time.perf_counter() - t0

    def catch_up(self) -> None:
        used = time.perf_counter() - self.start - self.spent
        self._probe_until(min(N_SETUP, 1 + math.ceil(N_SETUP * used / self.seconds)))

    def finish(self) -> list[tuple[float, float]]:
        self._probe_until(N_SETUP)
        return self.times


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(benchenv.ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=benchenv.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GIL_THREADS")},
    }


def _seconds(r: Record) -> float:
    """An op's time at the reference machine speed when the run measured it, else raw."""
    return r.seconds if r.ref_seconds is None else r.ref_seconds


def _pass_times(records: list[Record], ref: bool = False) -> dict[int, float]:
    out: dict[int, float] = {}
    for r in records:
        out[r.pass_index] = out.get(r.pass_index, 0.0) + (_seconds(r) if ref else r.seconds)
    return out


def end_to_end(records: list[Record], setup: list[tuple[float, float]]) -> dict[str, float]:
    ok = sum(r.outcome == "ok" for r in records)
    return {
        # speed.py takes the machine's slow spells out; what they leave only
        # ever slows a pass down, so the fastest pass is the steadiest estimate
        "wall_ref_s": min(_pass_times(records, ref=True).values()),
        # a probe's reference time rests on the kernel samples after its set-up
        # alone, which err both ways, so the median of the probes
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": ok / len(records),
    }


def time_to_se(records: list[Record], target_se: float) -> float:
    """The headline op's median seconds times (SE / target SE)^2, SE pooled over passes."""
    headline = [r for r in records if r.se is not None]
    if not headline:
        return 0.0
    mean_sq = statistics.fmean(r.se**2 for r in headline)
    return statistics.median(_seconds(r) for r in headline) * mean_sq / target_se**2


def mala_steps_per_s(records: list[Record]) -> float:
    chain = [r for r in records if r.useful_steps]
    seconds = sum(_seconds(r) for r in chain)
    return sum(r.useful_steps for r in chain) / seconds if seconds else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (benchenv.SRC / "gil" / "__init__.py").is_file():
        print(f"gil sources not found under {benchenv.SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    prov = provenance(args)
    print(f"provenance {json.dumps(prov, sort_keys=True)}", flush=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        # the set-up's norms and condition checks are traced too: they are
        # what potentials.norms_s and conditions.setup_* explain of setup_s
        tracer.begin_op("setup")
        tracer.install()
        try:
            inputs = wl.build_inputs()
        finally:
            tracer.uninstall()
        setup_layers = tracer.setup_metrics()
    else:
        inputs = wl.build_inputs()

    workdir = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    records: list[Record] = []
    try:
        probes = SetupProbes(wl.name, args.seconds) if tracer is None else None
        speed.sample()  # the kernel's first call in a process is slow; not a sample
        start = time.perf_counter()
        if tracer is not None:
            # pass 0 runs untraced: it is the base of trace.overhead_frac
            records += run_pass(wl, inputs, workdir, args.seed, 0)
        pace: list[float] = []
        while True:
            done = run_pass(wl, inputs, workdir, args.seed, len(pace) + (tracer is not None), tracer,
                            None if probes is None else probes.catch_up)
            records += done
            pace.append(sum(r.seconds for r in done))
            used = time.perf_counter() - start - (0.0 if probes is None else probes.spent)
            if used + statistics.median(pace) / 2 > args.seconds:
                break
        setup = [] if probes is None else probes.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        times = _pass_times(records)
        traced = [t for i, t in times.items() if i > 0]
        metrics = {**setup_layers, **tracer.metrics(len(traced))}
        untraced = [r for r in records if r.pass_index == 0]
        metrics["mcmc.useful_steps_per_s"] = mala_steps_per_s(untraced)
        metrics["cli.bytes_out"] = sum(r.bytes_out for r in records if r.pass_index > 0) / len(traced)
        metrics["trace.overhead_frac"] = statistics.median(traced) / times[0] - 1.0
        units = tracing.UNITS
        spans = WORK / f"trace-{wl.name}-seed{args.seed}.json.gz"
        tracer.write(spans, {"provenance": prov, "traced_passes": len(traced)})
        print(f"spans {len(tracer.spans)} written to {spans.relative_to(benchenv.ROOT)}; "
              f"hook errors {int(tracer.counters['trace.hook_errors'])}")
    else:
        metrics = end_to_end(records, setup)
        units = E2E_UNITS
        print(f"info wall_s {min(_pass_times(records).values())!r} s (fastest pass, raw)")
        print(f"info setup_runs_s {[raw for raw, _ in setup]} (raw)")
        print(f"info setup_runs_ref_s {[ref for _, ref in setup]}")
        print(f"info time_to_se_s {time_to_se(records, wl.target_se)!r} s (headline op, target SE {wl.target_se:g})")
        print(f"info mala_steps_per_s {mala_steps_per_s(records)!r} 1/s (useful proposals per second of chain ops)")

    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    failed = sum(r.outcome == "failed" for r in records)
    known = sum(r.outcome == "known-defect" for r in records)
    print(f"ops attempted {len(records)}, ok {len(records) - failed - known}, known defects {known}, failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
