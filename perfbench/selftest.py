"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py`` from the checkout root.

Runs every workload at minimal size (a few grid cells per round, one set-up),
untraced and traced. It asserts that every metric in BENCHMARK.json and in
the benchmark's notes is emitted with a finite value, that the outputs pass
their checks, and that the empty-b corrupted controls are detected.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"throughput_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "rootsystems.build_root_system.self_s",
    "counting.truncation_divisors.calls", "counting.truncation_divisors.self_s", "counting.count_nh.self_s",
    "bernoulli.faulhaber_sum.calls", "bernoulli.faulhaber_sum.self_s", "bernoulli.faulhaber_sum.distinct_ratio",
    "bernoulli.bernoulli_poly.self_s",
    "plf.dominates.calls", "plf.dominates.self_s", "plf.dominates.points_compared",
    "plf.agrees_with.self_s", "plf.profiles.self_s",
    "newton.char_poly.calls", "newton.char_poly.self_s", "newton.char_poly.distinct_ratio",
    "newton.char_poly.coeff_bits_max", "newton.newton_polygon.self_s", "newton.check_lower_bound.self_s",
    "bounds.build_params.calls", "bounds.build_params.self_s", "bounds.build_params.total_s",
    "bounds.build_params.distinct_ratio", "bounds.compute_M.self_s",
    "harness.gen_instance.self_s", "harness.draw_b_seq.self_s",
    "harness.verify_chain.self_s", "harness.verify_corollary.self_s",
    "cli.import_ms", "cli.import_numpy_ms",
    "cli.roots.wall_ms", "cli.count-nh.wall_ms", "cli.bound.wall_ms", "cli.newton.wall_ms", "cli.verify.wall_ms",
    "trace.overhead_pct",
}
PROVENANCE = {"python", "numpy", "cpu_model", "nproc", "git_commit", "workload_seed"}
# grid cells per round at minimal size
CELLS = {"chain": 18, "corollary": 3, "large-t": 3, "cli-cold": None}


def check_metric_names() -> None:
    spec_file = HERE.parent / "BENCHMARK.json"
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text(encoding="utf-8"))
        assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
        assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
        assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)


def check_controls_detected() -> None:
    """Every control is an empty-b instance whose corruption the chain must catch."""
    chain = workloads.make_workload("chain", 5, run.OUT)
    ops = chain.setup()
    chain.prepare_checks(workloads.load_golden()["chain"])
    controls = [op for op in ops if op[0] == "control"]
    assert len(controls) == 84, len(controls)
    for op in controls:
        report = chain.run(op)
        assert not report.newton_ge_fb and report.fb_ge_fa and report.fa_ge_fr and report.fr_eq_finf_on_window
        assert chain.check(op, report) == workloads.OK
    # the check itself can fail: a clean report presented as a control is wrong
    clean = next(op for op in ops if op[0] == "clean")
    assert chain.check(("control",) + clean[1:], chain.run(clean)) == workloads.WRONG


def check_run(name: str, trace: bool) -> None:
    record = run.run_workload(name, 3, 0.01, trace, cells=CELLS[name])
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == expected, set(result["metrics"]) ^ expected
    for key, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["unit"], (key, metric)
    if not trace:
        assert all(result["metrics"][key]["value"] > 0 for key in END_TO_END), result
    assert PROVENANCE <= set(record["provenance"]), record["provenance"]
    # every time is scaled by kernels run around and between the operations
    assert record["speed"]["kernels"] >= 2 * run.WINDOW, record["speed"]
    assert all(math.isfinite(m["unscaled"]) for m in record["end_to_end"].values())
    assert "samples" in record["end_to_end"]["latency_p50_ms"]["note"]
    assert record["end_to_end"]["latency_tail_ms"]["note"].startswith("p")
    if name == "cli-cold":
        assert set(record["outcomes"]) <= {workloads.OK, workloads.KNOWN_DEFECT}, record["outcomes"]
        assert result["failed"] == record["outcomes"].get(workloads.KNOWN_DEFECT, 0) > 0
    else:
        assert result["failed"] == 0, record["outcomes"]
    if name == "chain":
        assert any(s[0] == "control" for s in record["samples"])
    print(f"ok  {name:10s} trace={int(trace)}  {result['attempted']} operations")


def main() -> int:
    run.SETUP_REPS = 1
    run.IMPORTTIME_REPS = 1
    check_metric_names()
    check_controls_detected()
    print("ok  corrupted controls detected (84/84)")
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            check_run(name, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
