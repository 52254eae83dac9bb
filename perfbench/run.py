"""slopebound benchmark: four seeded workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

A run sets up ``SETUP_REPS`` times (fresh-interpreter import plus the inputs
of the first round) and reports the median, then runs whole rounds of its
workload until at least ``--seconds`` of operation time, scaled to the
reference speed, has passed. Every reported time is scaled to the reference
machine speed by a calibration kernel interleaved with the work (see
``speed.py``); the record keeps the unscaled values as well. With
``--trace 1`` every other round runs with every layer function spanned, and
the run reports per-layer metrics and the tracing overhead. The last line of
output is one JSON object; the full record, with provenance, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from speed import CAL_EVERY_S, WINDOW, SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 9
IMPORTTIME_REPS = 5
# a timed phase ends after the round in which its unscaled operation time passes
# its seconds by this factor, and stops mid-round once its wall time passes
# its seconds by MAX_OVERRUN_S, so a slow host cannot stretch a run without limit
MAX_UNSCALED_FACTOR = 1.25
MAX_OVERRUN_S = 40
# candidate percentiles for latency_tail_ms, highest first. p99 is left out:
# on a shared host it follows the host's millisecond pauses, not the program
# (in 4 of 10 runs of the same code it rose by 25-115%, while p95 moved 2%)
TAIL_LADDER = (95, 90, 75, 50)
WORKLOAD_NAMES = ("chain", "corollary", "large-t", "cli-cold")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> int:
    """The highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return TAIL_LADDER[-1]


def child_import_seconds(env: dict) -> float:
    """Time of ``import slopebound`` in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import slopebound; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    return float(out.stdout)


def import_times_ms(env: dict) -> tuple[float, float]:
    """Medians of the cumulative import time of slopebound.cli and of numpy, from -X importtime."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import slopebound.cli"],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)", line)
            if m:
                cumulative.setdefault(m.group(3), int(m.group(2)) / 1000)
        cli_ms.append(cumulative["slopebound.cli"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def measure_setup(wl, env: dict, speed: SpeedLog) -> tuple[float, list, list]:
    """Median scaled set-up time over SETUP_REPS, the first round, and every unscaled sample."""
    samples = []
    for _ in range(SETUP_REPS):
        speed.calibrate(WINDOW // 2)
        began = perf_counter()
        imported = child_import_seconds(env)
        start = perf_counter()
        first = wl.setup()
        samples.append((began, imported + perf_counter() - start))
    speed.calibrate(WINDOW // 2)
    scaled = [elapsed * speed.scale_at(began) for began, elapsed in samples]
    return statistics.median(scaled), first, [elapsed for _, elapsed in samples]


class Samples:
    """(kind, seconds, outcome, round, start) of each operation of a timed phase.

    Stored column-wise, about 32 bytes an operation, so that the benchmark's
    own memory barely grows with the run's length and peak_rss_mb measures
    the program.
    """

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.seconds = array("d")
        self.outcomes: list[str] = []
        self.rounds = array("q")
        self.starts = array("d")

    def add(self, kind: str, elapsed: float, outcome: str, round_no: int, start: float) -> None:
        self.kinds.append(kind)
        self.seconds.append(elapsed)
        self.outcomes.append(outcome)
        self.rounds.append(round_no)
        self.starts.append(start)

    def __len__(self) -> int:
        return len(self.seconds)

    def __iter__(self):
        return zip(self.kinds, self.seconds, self.outcomes, self.rounds, self.starts)

    def of_rounds(self, parity: int) -> "Samples":
        """The samples of the even (0) or odd (1) rounds."""
        part = Samples()
        for sample in self:
            if sample[3] % 2 == parity:
                part.add(*sample)
        return part


def timed_rounds(wl, ops: list, seconds: float, speed: SpeedLog, tracer=None) -> Samples:
    """Run whole rounds until `seconds` of scaled operation time.

    A calibration kernel runs after every CAL_EVERY_S of operation
    time, and WINDOW kernels run before and after the phase. Ending on scaled
    time keeps the number of operations, and so the tail percentile, the same
    whatever the machine's speed at the time.
    With a tracer, odd rounds run traced and even ones untraced, so both see
    the same drift of the machine's speed, and the run ends after an odd round.
    """
    from workloads import ERROR

    samples = Samples()
    busy = unscaled_busy = 0.0
    since_kernel = 0.0
    round_no = 0
    reported = False
    speed.calibrate(WINDOW)
    wall_start = perf_counter()
    overrun = False
    while not overrun:
        traced = tracer is not None and round_no % 2 == 1
        if traced:
            tracer.install()
            wl.tracer = tracer
        try:
            for op in ops:
                start = perf_counter()
                try:
                    out = wl.run(op)
                except Exception:  # an operation that raises counts as failed; the run goes on
                    elapsed = perf_counter() - start
                    outcome = ERROR
                    if not reported:
                        traceback.print_exc(file=sys.stderr)
                        reported = True
                else:
                    elapsed = perf_counter() - start
                    outcome = wl.check(op, out)
                samples.add(op[0], elapsed, outcome, round_no, start)
                since_kernel += elapsed
                while since_kernel >= CAL_EVERY_S:
                    speed.calibrate()
                    since_kernel -= CAL_EVERY_S
                busy += elapsed * speed.recent_scale()
                unscaled_busy += elapsed
                if perf_counter() - wall_start > seconds + MAX_OVERRUN_S:
                    overrun = True
                    break
        finally:
            if traced:
                wl.tracer = None
                tracer.uninstall()
        round_no += 1
        enough = busy >= seconds or unscaled_busy >= MAX_UNSCALED_FACTOR * seconds
        if enough and (tracer is None or round_no % 2 == 0):
            break
        if not overrun:
            ops = wl.make_round(round_no)
    speed.calibrate(WINDOW)
    return samples


def end_to_end(samples: Samples, speed: SpeedLog | None) -> dict:
    """Throughput, latency percentiles and failure counts of one timed phase.

    Times are scaled by `speed`, or left as measured when it is None.
    """
    from workloads import KNOWN_DEFECT, OK

    scaled = [(elapsed * (speed.scale_at(start) if speed else 1.0), outcome)
              for _, elapsed, outcome, _, start in samples]
    busy = sum(elapsed for elapsed, _ in scaled)
    completed = sum(1 for _, outcome in scaled if outcome == OK)
    # a failed operation misses any latency limit; a known defect's error exit
    # is counted in `failed` but is no latency of the working program
    latencies = sorted(elapsed * 1000 if outcome == OK else math.inf
                       for elapsed, outcome in scaled if outcome != KNOWN_DEFECT)
    q = tail_percentile(len(latencies))
    return {
        "throughput_per_s": completed / busy,
        "latency_p50_ms": _percentile(latencies, 50),
        "latency_tail_ms": _percentile(latencies, q),
        "tail_percentile": q,
        "samples": len(latencies),
        "busy_s": busy,
        "outcomes": dict(Counter(samples.outcomes)),
    }


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of the sources either way."""
    import hashlib

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else []:
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "cpu_model": cpu,
        "nproc": os.cpu_count(), "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "workload_seed": seed, **source_identity(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, cells: int | None = None) -> dict:
    """One run of one workload; returns the full record. `cells` shortens rounds (self-test only)."""
    import workloads
    from tracing import Tracer
    from workloads import KNOWN_DEFECT, OK

    env = workloads.child_env()
    # compile the sources once so no set-up sample pays for it
    child_import_seconds(env)
    wl = workloads.make_workload(name, seed, OUT, cells)
    tracer = Tracer() if trace else None
    speed = SpeedLog()

    if tracer:
        tracer.install()
    setup_s, ops, setup_samples = measure_setup(wl, env, speed)
    if tracer:
        tracer.uninstall()
    golden = workloads.load_golden()[name]
    references_ok = wl.prepare_checks(golden) == golden["references"]

    all_samples = timed_rounds(wl, ops, seconds, speed, tracer)
    samples = all_samples.of_rounds(0) if trace else all_samples
    phase = end_to_end(samples, speed)
    unscaled = end_to_end(samples, None)
    outcomes = Counter(all_samples.outcomes)
    attempted = len(all_samples)
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    golden_ok = "digest" not in golden or workloads.digest(wl.golden_lines()) == golden["digest"]

    failed = attempted - outcomes[OK]
    correct = references_ok and golden_ok and failed == outcomes[KNOWN_DEFECT]

    units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
    values = {"throughput_per_s": phase["throughput_per_s"], "latency_p50_ms": phase["latency_p50_ms"],
              "latency_tail_ms": phase["latency_tail_ms"], "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    raw = {**{k: unscaled[k] for k in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms")},
           "setup_s": statistics.median(setup_samples), "peak_rss_mb": peak_rss_mb}
    notes = {
        "throughput_per_s": f"{phase['outcomes'].get(OK, 0)} completed in {phase['busy_s']:.2f} scaled s "
                            f"of operations",
        "latency_p50_ms": f"{phase['samples']} samples",
        "latency_tail_ms": f"p{phase['tail_percentile']}, {phase['samples']} samples",
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "peak_rss_mb": "max RSS of the CLI processes" if name == "cli-cold" else "max RSS of this process",
    }
    if trace:
        layer = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
        cli_ms, numpy_ms = import_times_ms(env)
        layer["cli.import_ms"] = {"value": cli_ms, "unit": "ms"}
        layer["cli.import_numpy_ms"] = {"value": numpy_ms, "unit": "ms"}
        by_kind = defaultdict(list)
        for kind, elapsed, _, _, start in samples:
            by_kind[kind].append(elapsed * 1000 * speed.scale_at(start))
        for sub in ("roots", "count-nh", "bound", "newton", "verify"):
            wall = statistics.median(by_kind[sub]) if by_kind[sub] else 0.0
            layer[f"cli.{sub}.wall_ms"] = {"value": wall, "unit": "ms"}
        traced = end_to_end(all_samples.of_rounds(1), speed)
        mean_untraced = phase["busy_s"] / phase["samples"]
        mean_traced = traced["busy_s"] / traced["samples"]
        layer["trace.overhead_pct"] = {"value": 100 * (mean_traced / mean_untraced - 1), "unit": "%"}
        metrics = layer
    else:
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "provenance": provenance(seed),
        "end_to_end": {k: {"value": values[k], "unit": units[k], "note": notes[k], "unscaled": raw[k]}
                       for k in units},
        "speed": speed.summary(),
        "fail_share": failed / attempted, "outcomes": dict(outcomes),
        "setup_samples_s": setup_samples, "references_ok": references_ok, "golden_ok": golden_ok,
        # (kind, unscaled seconds, round, scale) of every untraced operation
        "samples": [(kind, elapsed, round_no, speed.scale_at(start))
                    for kind, elapsed, _, round_no, start in samples],
        "known_defects": _known_defects(name, outcomes[KNOWN_DEFECT]),
        "result": result,
    }


def _known_defects(name: str, count: int) -> list[str]:
    if name != "cli-cold":
        return []
    return [f"{count} x 'slopebound bound --type E8' exited 2: n exceeds CPython's 4300-digit "
            "int-to-str limit (the library value is fine); counted as failed"]


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"workload {record['workload']} (seed {record['seed']}, {record['seconds']:g} s, {mode})")
    rows = record["end_to_end"] if not record["trace"] else record["result"]["metrics"]
    for key, metric in rows.items():
        note = f"  ({metric['note']}; unscaled {metric['unscaled']:.6g})" if "note" in metric else ""
        print(f"  {key:42s} {metric['value']:14.6g} {metric['unit']:6s}{note}")
    print(f"  {'fail_share':42s} {record['fail_share']:14.6g} {'1':6s}  "
          f"({record['result']['failed']}/{record['result']['attempted']} failed: {record['outcomes']})")
    for defect in record["known_defects"]:
        print(f"  known defect: {defect}")
    if not record["references_ok"] or not record["golden_ok"]:
        print("  golden check FAILED: exact outputs differ from perfbench/golden.json")


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    A CLI call's child otherwise lands on either CPU, and process start then
    varies by 1.6x between the fastest and slowest tenth of calls instead of
    1.2x. Pinning acts on this process only; the operations run one at a
    time, so they share the CPU with nothing of the benchmark's.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "slopebound" / "__init__.py").is_file():
        print(f"error: no slopebound sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import slopebound

    if Path(slopebound.__file__).resolve().parent != (SRC / "slopebound").resolve():
        print(f"error: imported slopebound from {slopebound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so caches and imports stay cold per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
