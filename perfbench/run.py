"""ticketlab benchmark.

    python3 perfbench/run.py --workload cs-mlp --seed 1 --seconds 25 --trace 0

Runs one workload (cs-mlp, cs-conv6 or sweep-imp) from the ticketlab source
under ``src/`` next to this directory, repeating it closed-loop for
``--seconds`` seconds, checks every repeat's outputs, and prints the metrics
by name and unit. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only if every output check passed.

Scratch files, span dumps and a results file go under ``.perfbench/`` in the
checkout. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

# BLAS reads its thread count when NumPy first loads, so pin it before any
# import below loads NumPy; the setup probes inherit the setting.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from analysis import layer_metrics  # noqa: E402
from metrics import (END_TO_END, PER_LAYER, REPORTED_ONLY, median,  # noqa: E402
                     spread)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_REPEATS = 2  # the mask-hash check needs two repeats
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cs-mlp", "cs-conv6", "sweep-imp"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for this long (at least two repeats run)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--tiny", action="store_true",
                   help="minimal workload sizes, for the benchmark's tests")
    return p.parse_args(argv)


def import_ticketlab():
    """Import ticketlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "ticketlab" / "__init__.py").is_file():
        raise ImportError(f"no ticketlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ticketlab
    import ticketlab.cli  # noqa: F401
    if Path(ticketlab.__file__).resolve().parent != SRC / "ticketlab":
        raise ImportError(f"ticketlab imported from {ticketlab.__file__}, "
                          f"not from {SRC}")
    return ticketlab


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "workload_seed": seed, "machine": platform.machine()}


def measure_setup(workload, probes: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import ticketlab and build the
    workload's data and model: (raw, scaled to nominal host speed)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           json.dumps(workload.probe_spec())]
    raw, scaled = [], []
    before = reference.measure("mlp")  # import is interpreter work
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True,
                       timeout=PROBE_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        after = reference.measure("mlp")
        scaled.append(raw[-1] / reference.slowdown("mlp", before, after))
        before = after
    return raw, scaled


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Runner:
    """Repeats a workload, checks each repeat, and keeps the samples, with
    the host speed reference timed before the first repeat and after each."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.outcomes = []
        self.walls = []
        self.hashes = set()
        self.refs = [reference.measure(workload.reference)]

    def repeat(self):
        out_dir = self.workdir / f"repeat{len(self.outcomes)}"
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run_once(out_dir)
        except Exception as exc:  # a raising run counts as failed
            traceback.print_exc()
            runs = self.workload.runs_per_repeat
            outcome = Outcome(runs=runs, failed=runs,
                              problems=[f"raised {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        shutil.rmtree(out_dir, ignore_errors=True)
        if outcome.mask_hash:
            self.hashes.add(outcome.mask_hash)
        self.outcomes.append(outcome)
        self.walls.append(wall)
        self.refs.append(reference.measure(self.workload.reference))
        return wall

    def slowdowns(self) -> list[float]:
        """Host slowdown during each repeat."""
        kind = self.workload.reference
        return [reference.slowdown(kind, a, b)
                for a, b in zip(self.refs, self.refs[1:])]

    @property
    def attempted(self) -> int:
        return sum(o.runs for o in self.outcomes)

    @property
    def failed(self) -> int:
        failed = sum(o.failed for o in self.outcomes)
        if len(self.hashes) > 1:  # repeats disagree: none can be trusted
            return self.attempted
        return failed

    def problems(self) -> list[str]:
        out = [p for o in self.outcomes for p in o.problems]
        if len(self.hashes) > 1:
            out.append(f"repeats produced {len(self.hashes)} different mask hashes")
        return out


def end_to_end(runner: Runner, setup: tuple[list[float], list[float]]) -> dict:
    """Samples of each end-to-end metric, one per repeat where it applies.
    Times and rates are scaled to nominal host speed; raw times and the
    slowdowns are reported alongside."""
    outs = runner.outcomes
    slow = runner.slowdowns()
    return {
        "setup_s": setup[1],
        "wall_s": [w / k for w, k in zip(runner.walls, slow)],
        "search_iters_per_s": [o.search_iters / o.search_s * k
                               for o, k in zip(outs, slow) if o.search_s > 0],
        "runs_per_s": [o.runs / o.run_s * k for o, k in zip(outs, slow) if o.run_s > 0],
        "ticket_accuracy": [o.ticket_accuracy for o in outs],
        "ticket_remaining_frac": [o.ticket_remaining_frac for o in outs],
        "peak_rss_mb": [peak_rss_mb()],
        "failed_frac": [runner.failed / runner.attempted if runner.attempted else 1.0],
        "raw_setup_s": setup[0],
        "raw_wall_s": runner.walls,
        "host_slowdown": slow,
    }


def run_untraced(tl, workload, workdir: Path, seconds: float, probes: int):
    setup = measure_setup(workload, probes)
    workload.setup(tl)
    runner = Runner(workload, workdir)
    deadline = time.perf_counter() + seconds
    while len(runner.walls) < MIN_REPEATS or time.perf_counter() < deadline:
        runner.repeat()
    return runner, end_to_end(runner, setup), None


def run_traced(tl, workload, workdir: Path, seconds: float):
    """Alternate untraced and traced repeats; per-layer metrics are the
    median over traced repeats, overhead is traced over untraced wall."""
    tracer = Tracer()
    tracer.install(tl)
    try:
        workload.setup(tl)
    finally:
        tracer.uninstall()
    setup_trace = tracer.take()
    runner = Runner(workload, workdir)
    per_repeat, dumps = [], []
    deadline = time.perf_counter() + seconds
    while len(runner.walls) < MIN_REPEATS or time.perf_counter() < deadline:
        if len(runner.walls) % 2 == 0:
            runner.repeat()
            continue
        tracer.install(tl)
        try:
            wall = runner.repeat()
        finally:
            tracer.uninstall()
        trace = tracer.take()
        spans = setup_trace.spans + trace.spans
        per_repeat.append(layer_metrics(spans, trace.counters, wall))
        dumps.append(trace.spans)
    scaled = [w / k for w, k in zip(runner.walls, runner.slowdowns())]
    samples = {name: [m[name] for m in per_repeat] for name in per_repeat[0]}
    samples["trace.overhead_frac"] = [median(scaled[1::2]) / median(scaled[0::2]) - 1.0]
    return runner, samples, [setup_trace.spans] + dumps


def write_spans(path: Path, dumps) -> None:
    """Spans of the traced run, one CSV line each; repeat 0 is set-up."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
        f.write("repeat,id,parent,name,start_s,end_s\n")
        for rep, spans in enumerate(dumps):
            for sid, name, parent, t0, t1 in spans:
                f.write(f"{rep},{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        tl = import_ticketlab()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        workload.prepare()
        if args.trace:
            runner, samples, dumps = run_traced(tl, workload, workdir, args.seconds)
            table = PER_LAYER
        else:
            runner, samples, dumps = run_untraced(
                tl, workload, workdir, args.seconds, 1 if args.tiny else SETUP_PROBES)
            table = {**END_TO_END, **REPORTED_ONLY}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runner.walls)} repeats, {runner.attempted} runs, "
          f"{runner.failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (unit, better) in table.items():
        values = samples[name]
        value = median(values) if values else 0.0  # no repeat got that far
        summary[name] = {"value": value, "unit": unit, "better": better,
                         "spread": spread(values), "n": len(values),
                         "samples": values}
        print(f"{name} {value:.6g} {unit} ({better} is better; "
              f"median of {len(values)}, IQR/median {spread(values):.3f})")
    problems = runner.problems()
    for p in problems:
        print(f"check failed: {p}")
    if dumps is not None:
        write_spans(OUT / f"spans-{stem}.csv.gz", dumps)
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"env": env, "metrics": summary, "problems": problems}, f,
                  indent=1, sort_keys=True)

    keep = PER_LAYER if args.trace else END_TO_END
    correct = runner.failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": summary[k]["value"], "unit": summary[k]["unit"]}
                    for k in keep}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
