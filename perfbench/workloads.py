"""The four benchmark workloads: inputs made from a seed, the timed operation,
and the check on every output.

A workload is a sequence of rounds over a fixed grid of cells. Round k draws
fresh instances for every cell from the workload seed, so no matrix is
verified twice in one run and ``char_poly``'s ``lru_cache`` only serves the
reuse a workload does itself (``verify_chain`` computes the polynomial twice;
``corollary`` checks five alphas on one matrix). A fixed grid per round keeps
the mix of sizes, and so the latency percentiles, the same from seed to seed.

The library is always reached through the package attribute at call time
(``sb.verify_chain``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import slopebound as sb

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

GOLDEN_FILE = HERE / "golden.json"
# Seed of the golden batches; 1312 after the paper's arXiv number.
GOLDEN_SEED = 1312
ENTRY_BOUND = 50

OK, KNOWN_DEFECT, WRONG, ERROR = "ok", "known-defect", "wrong", "error"

# The acceptance suite's grid: type, g, p, r, t.
ACCEPTANCE_GRID = tuple(product(("A1", "A2", "B2"), (1, 2, 3), (2, 3, 5), (1, 2, 3, 4), range(2, 9)))


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _plf_text(fn) -> str:
    pts = ";".join(f"{x},{y}" for x, y in fn.breakpoints)
    return f"{pts}|{fn.final_slope}"


def _params_text(params) -> str:
    return f"{params.s},{params.g},{params.M},{params.c_pow_s},{params.m},{params.n}"


class InProcess:
    """Shared machinery of the workloads that call the library in this process."""

    name = ""
    labels: tuple[str, ...] = ()
    # the grid: (type, g, p, r, t); a round covers `cells` of it (all by default)
    cells: tuple = ACCEPTANCE_GRID
    # spans come from Tracer.install in this process; only CliCold hands a tracer to its children
    tracer = None
    # every golden_stride-th operation of round 0 is replayed at the golden seed
    golden_stride = 1

    def __init__(self, seed: int, cells: int | None = None) -> None:
        self.base = seed % 2**32
        self.round_cells = self.cells[:cells]
        self.systems: dict = {}
        self._seen: set = set()

    def instance_seed(self, round_no: int, index: int) -> int:
        """Distinct for every (round, index) of one run."""
        return (self.base << 32) + (round_no << 12) + index

    def setup(self) -> list:
        """Root systems and round 0; everything before the first timed operation."""
        self.systems = {label: sb.build_root_system(label[0], int(label[1:])) for label in self.labels}
        self._seen = set()
        return self.make_round(0)

    def _fresh(self, inst) -> bool:
        """Whether this matrix is new in the run (duplicates are dropped)."""
        # a hash, not the entries, so memory does not grow with the run's length
        key = hash(inst.matrix.entries)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _instance(self, seed: int, label: str, g: int, p: int, r: int, t: int):
        b_seq = sb.draw_b_seq(seed, self.systems[label], g, r, t)
        return sb.gen_instance(seed, p, t, r, b_seq, ENTRY_BOUND)

    def golden_lines(self) -> list[str]:
        """Exact outputs at the golden seed, one line per operation."""
        replay = type(self)(GOLDEN_SEED)
        ops = replay.setup()[:: self.golden_stride]
        return [replay.serialize(op, replay.run(op)) for op in ops]


class Chain(InProcess):
    """verify_chain on the acceptance grid, with empty-b corrupted controls."""

    name = "chain"
    labels = ("A1", "A2", "B2")
    # one corrupted control after every 9 clean instances: 84 per round of 756
    control_every = 9
    golden_stride = 7

    def make_round(self, k: int) -> list:
        ops = []
        for i, (label, g, p, r, t) in enumerate(self.round_cells):
            inst = self._instance(self.instance_seed(k, i), label, g, p, r, t)
            if self._fresh(inst):
                ops.append(("clean", label, g, inst))
            if self.control_every and (i + 1) % self.control_every == 0:
                j = i // self.control_every
                seed = self.instance_seed(k, len(self.cells) + j)
                bare = sb.gen_instance(seed, (2, 3, 5)[j % 3], 2 + j % 7, 1 + j % 4, sb.ElemDivSeq(()),
                                       ENTRY_BOUND)
                inst = sb.corrupt_instance(bare)
                if self._fresh(inst):
                    ops.append(("control", "A2", 1, inst))
        return ops

    def prepare_checks(self, golden: dict) -> str:
        """Profiles that depend only on (type, g, r, t); returns their digest."""
        self.refs = {}
        keys = {(label, g, r, t) for label, g, _, r, t in self.cells}
        keys |= {("A2", 1, r, t) for r in range(1, 5) for t in range(2, 9)} if self.control_every else set()
        lines = []
        for label, g, r, t in sorted(keys):
            system = sb.build_root_system(label[0], int(label[1:]))
            exps = sb.truncation_divisors(system, g, r).exponents[:t]
            f_a = sb.from_divisor_sequence(sb.ElemDivSeq(exps), r, t)
            self.refs[(label, g, r, t)] = (f_a, sb.f_r(system.s, g, r), sb.f_infinity(system.s, g, r))
            lines.append(f"{label},{g},{r},{t}:" + "/".join(_plf_text(f) for f in self.refs[(label, g, r, t)]))
        return digest(lines)

    def run(self, op):
        _, label, g, inst = op
        return sb.verify_chain(inst, self.systems[label], g)

    def check(self, op, rep) -> str:
        kind, label, g, inst = op
        links = (rep.newton_ge_fb, rep.fb_ge_fa, rep.fa_ge_fr, rep.fr_eq_finf_on_window)
        # an empty b forces v_p(trace) >= 1, and the corruption breaks it: f_b must fail
        expected = (kind == "clean", True, True, True)
        poly = rep.polygon
        ok = (
            links == expected
            and (rep.f_a, rep.f_r, rep.f_inf) == self.refs[(label, g, inst.r, inst.t)]
            and rep.f_b.breakpoints == _fb_points(inst)
            and poly.finite_length + poly.infinite_slopes == inst.t
            and poly.polygon.breakpoints[-1][0] == poly.finite_length
        )
        return OK if ok else WRONG

    def serialize(self, op, rep) -> str:
        links = (rep.newton_ge_fb, rep.fb_ge_fa, rep.fa_ge_fr, rep.fr_eq_finf_on_window)
        poly = rep.polygon
        parts = [str(links), _plf_text(poly.polygon), str(poly.finite_length), str(poly.infinite_slopes)]
        parts += [_plf_text(f) for f in (rep.f_b, rep.f_a, rep.f_r, rep.f_inf)]
        return "|".join(parts)


def _fb_points(inst) -> tuple:
    """f_b's breakpoints computed directly: (l, sum of r - b_i over i <= l)."""
    points = [(Fraction(0), Fraction(0))]
    total = 0
    for l, b in enumerate(inst.b_seq.padded(inst.t), start=1):
        total += inst.r - b
        points.append((Fraction(l), Fraction(total)))
    return tuple(points)


class LargeT(Chain):
    """verify_chain at t in {24, 32, 40}: char_poly is O(t^4) on growing integers."""

    name = "large-t"
    labels = ("A2", "B2")
    cells = tuple((label, 1, p, 3, t) for label in ("A2", "B2") for p in (2, 3) for t in (24, 32, 40))
    control_every = 0
    golden_stride = 3


class Corollary(InProcess):
    """verify_corollary at alpha in {0, 1/2, 1, 2, M(s)} on the acceptance grid.

    One operation is one instance checked at all five alphas. Timed one alpha
    at a time, the median fell where the A1, A2, B2 and first-alpha latency
    clusters overlap, and it moved half again as much as throughput between
    runs; per instance, the median sits inside the A2 cluster.
    """

    name = "corollary"
    labels = ("A1", "A2", "B2")
    golden_stride = 25

    def setup(self) -> list:
        self.thresholds = {s: sb.compute_M(s) for s in (1, 3, 4)}
        return super().setup()

    def make_round(self, k: int) -> list:
        ops = []
        for i, (label, g, p, r, t) in enumerate(self.round_cells):
            inst = self._instance(self.instance_seed(k, i), label, g, p, r, t)
            if self._fresh(inst):
                M = self.thresholds[self.systems[label].s]
                ops.append(("instance", label, g, inst, (0, Fraction(1, 2), 1, 2, M)))
        return ops

    def prepare_checks(self, golden: dict) -> str:
        """BoundParams of every (s, g) in the grid; returns their digest."""
        self.refs = {(s, g): sb.build_params(s, g) for s in (1, 3, 4) for g in (1, 2, 3)}
        return digest(_params_text(self.refs[key]) for key in sorted(self.refs))

    def run(self, op):
        _, label, g, inst, alphas = op
        system = self.systems[label]
        return [sb.verify_corollary(inst, system, g, alpha) for alpha in alphas]

    def check(self, op, reports) -> str:
        _, label, g, inst, alphas = op
        params = self.refs[(self.systems[label].s, g)]
        ok = len(reports) == len(alphas)
        for alpha, rep in zip(alphas, reports):
            closed = params.m * Fraction(alpha) ** params.s
            ok = ok and (
                rep.holds
                and rep.params == params
                and rep.alpha == alpha
                and rep.bound == closed + params.n
                and rep.sharp_bound == (closed if alpha >= params.M else None)
                and 0 <= rep.dimension <= inst.t
            )
        return OK if ok else WRONG

    def serialize(self, op, reports) -> str:
        return "/".join(f"{rep.alpha}|{rep.dimension}|{rep.bound}|{rep.sharp_bound}|{_params_text(rep.params)}"
                        for rep in reports)


# --- cli-cold ---------------------------------------------------------------

# What the installed console script does.
CLI_ENTRY = "import sys; from slopebound.cli import main; sys.argv[0] = 'slopebound'; main()"
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (4300 digits) for integer string conversion"


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's sources, default int limits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


class CliCold:
    """A fixed round-robin of fresh-interpreter ``slopebound`` invocations."""

    name = "cli-cold"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.base = seed % 2**32
        self.work_dir = work_dir
        self.tracer = None
        self._trace_files = 0

    def _seeds(self, base: int) -> tuple[int, int, int]:
        """Seeds of the newton matrix and of the two verify runs."""
        return base * 3, base * 3 + 1, base * 3 + 2

    def setup(self) -> list:
        """The t = 16 matrix and its f_b bound on disk, and the command list."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        matrix_seed, chain_seed, corollary_seed = self._seeds(self.base)
        self.newton_case = _newton_case(matrix_seed)
        inst, bound = self.newton_case
        matrix_file = self.work_dir / "newton-matrix.txt"
        bound_file = self.work_dir / "newton-bound.json"
        rows = "\n".join(" ".join(str(e) for e in row) for row in inst.matrix.entries)
        matrix_file.write_text(f"{inst.t}\n{rows}\n", encoding="utf-8")
        bound_file.write_text(json.dumps(bound.to_json_dict()), encoding="utf-8")
        self.commands = _cli_commands(str(matrix_file), str(bound_file), chain_seed, corollary_seed)
        return self.make_round(0)

    def make_round(self, k: int) -> list:
        return list(self.commands)

    def prepare_checks(self, golden: dict) -> str:
        """Expected --json payloads from the library, and the recorded stdout digests in `golden`.

        Returns the digest of the payloads at the golden seed.
        """
        # only this process lifts the limit, to compute the E8 values the CLI cannot print
        sys.set_int_max_str_digits(0)
        _, chain_seed, corollary_seed = self._seeds(self.base)
        self.expected = _expected_payloads(self.newton_case, chain_seed, corollary_seed)
        self.golden_stdout = golden["stdout"]
        matrix_seed, chain_seed, corollary_seed = self._seeds(GOLDEN_SEED)
        payloads = _expected_payloads(_newton_case(matrix_seed), chain_seed, corollary_seed)
        return digest(f"{key}={json.dumps(payloads[key], sort_keys=True)}" for key in sorted(payloads))

    def run(self, op):
        _, _, args = op
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
            stats_file = None
        else:
            self._trace_files += 1
            stats_file = self.work_dir / f"trace-{os.getpid()}-{self._trace_files}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(stats_file), *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=120)
        if stats_file is not None and stats_file.exists():
            self.tracer.merge(json.loads(stats_file.read_text(encoding="utf-8")))
            stats_file.unlink()
        return proc

    def check(self, op, proc) -> str:
        _, key, _ = op
        if key == "bound E8" and proc.returncode == 2 and DIGIT_LIMIT_MESSAGE in proc.stderr:
            # n has about 13k digits, over CPython's int-to-str limit: a usage-error exit
            return KNOWN_DEFECT
        if proc.returncode != 0:
            return WRONG
        if key in self.golden_stdout:
            if hashlib.sha256(proc.stdout.encode()).hexdigest() != self.golden_stdout[key]:
                return WRONG
        if key in self.expected:
            try:
                if json.loads(proc.stdout) != self.expected[key]:
                    return WRONG
            except json.JSONDecodeError:
                return WRONG
        return OK



def _newton_case(seed: int):
    """A t = 16 A2 instance at p = 2 and its f_b profile, which its polygon dominates."""
    a2 = sb.build_root_system("A", 2)
    b_seq = sb.draw_b_seq(seed, a2, 1, 3, 16)
    inst = sb.gen_instance(seed, 2, 16, 3, b_seq, ENTRY_BOUND)
    return inst, sb.from_divisor_sequence(b_seq, 3, 16)


def _cli_commands(matrix_file: str, bound_file: str, chain_seed: int, corollary_seed: int) -> list:
    """(subcommand, check key, arguments) for one round."""
    bound = ["--g", "1", "--alpha", "1", "--json"]
    return [
        ("roots", "roots E8", ["roots", "E8"]),
        ("count-nh", "count-nh E8", ["count-nh", "E8", "--max-h", "2000"]),
        ("bound", "bound A2", ["bound", "--type", "A2", *bound]),
        ("bound", "bound E7", ["bound", "--type", "E7", *bound]),
        ("bound", "bound E8", ["bound", "--type", "E8", *bound]),
        ("newton", "newton", ["newton", "--p", "2", "--matrix", matrix_file, "--alpha", "1",
                              "--bound", bound_file, "--json"]),
        ("verify", "verify chain", ["verify", "chain", *VERIFY_CHAIN, "--seed", str(chain_seed), "--json"]),
        ("verify", "verify corollary", ["verify", "corollary", *VERIFY_COROLLARY,
                                        "--seed", str(corollary_seed), "--json"]),
    ]


VERIFY_CHAIN = ["--type", "A2", "--g", "1", "--p", "2", "--t", "6", "--r", "3", "--trials", "50"]
VERIFY_COROLLARY = ["--type", "B2", "--g", "2", "--p", "3", "--t", "6", "--r", "3",
                    "--alpha", "1/2", "--trials", "50"]


def _bound_payload(label: str, g: int, alpha: Fraction) -> dict:
    system = sb.build_root_system(*sb.parse_label(label))
    params = sb.build_params(system.s, g)
    sharp = sb.sharp_dimension_bound(params, alpha) if alpha >= params.M else None
    return {
        "label": system.label, "s": params.s, "g": params.g, "M": params.M,
        "m": str(params.m), "n": str(params.n), "c_pow_s": str(params.c_pow_s),
        "alpha": str(alpha), "bound": str(sb.dimension_bound(params, alpha)),
        "infimum": str(sb.infimum_dimension_bound(params, alpha)),
        "sharp": None if sharp is None else str(sharp),
    }


def _newton_payload(inst, bound, p: int, alpha: Fraction) -> dict:
    coeffs = sb.char_poly(inst.matrix)
    poly = sb.newton_polygon(coeffs, p)
    return {
        "t": inst.t, "char_poly": coeffs,
        "finite_length": poly.finite_length, "infinite_slopes": poly.infinite_slopes,
        "polygon": poly.polygon.to_json_dict(),
        "slopes": [[str(slope), length] for slope, length in poly.slopes()],
        "alpha": str(alpha), "slope_le_dimension": sb.slope_le_dimension(poly, alpha),
        "bound_holds": sb.check_lower_bound(inst.matrix, p, bound),
    }


def _verify_payload(what: str, label: str, g: int, p: int, t: int, r: int, trials: int,
                    seed: int, alpha: Fraction | None = None) -> dict:
    system = sb.build_root_system(*sb.parse_label(label))
    records = []
    for i in range(trials):
        trial_seed = seed + i
        b_seq = sb.draw_b_seq(trial_seed, system, g, r, t)
        inst = sb.gen_instance(trial_seed, p, t, r, b_seq, ENTRY_BOUND)
        record = {"seed": trial_seed, "b": list(b_seq.exponents)}
        if what == "chain":
            rep = sb.verify_chain(inst, system, g)
            record.update(newton_ge_fb=rep.newton_ge_fb, fb_ge_fa=rep.fb_ge_fa, fa_ge_fr=rep.fa_ge_fr,
                          fr_eq_finf_on_window=rep.fr_eq_finf_on_window, ok=rep.all_hold)
        else:
            rep = sb.verify_corollary(inst, system, g, alpha)
            record.update(dimension=rep.dimension, bound=str(rep.bound),
                          sharp_bound=None if rep.sharp_bound is None else str(rep.sharp_bound),
                          ok=rep.holds)
        records.append(record)
    passed = sum(rec["ok"] for rec in records)
    return {
        "what": what, "label": system.label, "g": g, "p": p, "t": t, "r": r,
        "trials": trials, "base_seed": seed, "passed": passed, "all_hold": passed == trials,
        "per_trial": records, "first_counterexample": next((rec for rec in records if not rec["ok"]), None),
    }


def _expected_payloads(newton_case, chain_seed: int, corollary_seed: int) -> dict:
    inst, bound = newton_case
    return {
        "bound A2": _bound_payload("A2", 1, Fraction(1)),
        "bound E7": _bound_payload("E7", 1, Fraction(1)),
        "bound E8": _bound_payload("E8", 1, Fraction(1)),
        "newton": _newton_payload(inst, bound, 2, Fraction(1)),
        "verify chain": _verify_payload("chain", "A2", 1, 2, 6, 3, 50, chain_seed),
        "verify corollary": _verify_payload("corollary", "B2", 2, 3, 6, 3, 50, corollary_seed, Fraction(1, 2)),
    }


def make_workload(name: str, seed: int, work_dir: Path, cells: int | None = None):
    """The workload `name`; `cells` shortens the in-process rounds (the self-test uses it)."""
    if name == "cli-cold":
        return CliCold(seed, work_dir)
    return {"chain": Chain, "corollary": Corollary, "large-t": LargeT}[name](seed, cells)
