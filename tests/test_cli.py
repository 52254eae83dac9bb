import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopebound
from slopebound import cli, harness
from slopebound.bounds import BoundParams, build_params
from slopebound.cli import run
from slopebound.harness import CorollaryReport, verify_corollary
from slopebound.plf import PiecewiseLinear, f_infinity, f_infinity_star, f_r
from slopebound.rootsystems import RootSystem


SRC = Path(slopebound.__file__).resolve().parent.parent


def fresh_interpreter(*args):
    """Run python with these arguments on this checkout's sources and CPython's default int limits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text(capsys):
    code, out, _ = invoke(capsys, "roots", "A2")
    assert code == 0
    assert out.strip() == "s=3 heights=[1,1,2]"


def test_roots_json(capsys):
    code, out, _ = invoke(capsys, "roots", "G2", "--json")
    assert code == 0
    assert json.loads(out) == {"label": "G2", "rank": 2, "s": 6, "heights": [1, 1, 2, 3, 4, 5]}


def test_invalid_type_is_usage_error(capsys):
    code, _, err = invoke(capsys, "roots", "D3")
    assert code == 2
    assert "D3" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = invoke(capsys, "roots", "A2", "--frobnicate")
    assert code == 2


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "roots", broken)
    code, out, err = invoke(capsys, "roots", "A2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


# runs in a child under a 1 GiB address-space limit, so the parent keeps its own
OUT_OF_MEMORY_CHILD = """
import contextlib, io, json, resource, sys
from slopebound import cli
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""


def run_out_of_memory_child(argvs):
    """(exit code, stdout, stderr) of each argv, run by cli.run in one child under the 1 GiB limit."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    proc = fresh_interpreter("-c", OUT_OF_MEMORY_CHILD, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_out_of_memory_is_a_usage_error():
    huge = [
        ["count-nh", "A1", "--max-h", "1000000000000"],
        ["verify", "chain", "--type", "A2", "--g", "1", "--p", "2", "--t", "100000", "--r", "2", "--trials", "1"],
    ]
    expected = [
        "error: out of memory; the input is too large\n",
        # refused by the cap on --t before the 10^10 entries are drawn
        f"error: --t 100000 is above {cli.VERIFY_T_CAP}, the largest matrix verify draws\n",
    ]
    for argv, (code, _, err), line in zip(huge, run_out_of_memory_child(huge), expected):
        assert code == 2, (argv, err)
        assert err == line, (argv, err)


def binomial_series_counts(ks, H):
    """N_0..N_H of prod_h (1 - x^h)^(-k_h), multiplying in sum_j C(k+j-1, j) x^(hj) one factor at a time."""
    values = [1] + [0] * H
    for h, k in enumerate(ks, 1):
        factor = [comb(k + j // h - 1, j // h) if j % h == 0 else 0 for j in range(H + 1)]
        values = [sum(values[i] * factor[m - i] for i in range(m + 1)) for m in range(H + 1)]
    return values


def test_large_ranks_need_no_rank_sized_memory():
    # A100000000 has 10^8 exponents and 5 * 10^15 positive roots; neither fits in 1 GiB as a tuple
    n = 10**8
    count, roots, huge_roots = run_out_of_memory_child([
        ["count-nh", f"A{n}", "--max-h", "10", "--json"], ["roots", f"A{n}"], ["roots", "A10000000000"],
    ])
    assert count[0] == 0 and count[2] == ""
    assert json.loads(count[1])["values"] == binomial_series_counts([n - h + 1 for h in range(1, 11)], 10)
    assert roots == [2, "", f"error: A{n} has {n * (n + 1) // 2} positive roots; "
                            f"roots prints at most {cli.DIVISORS_CAP} heights\n"]
    assert huge_roots[0] == 2 and huge_roots[2].startswith("error: A10000000000 has 50000000005000000000 ")


def test_count_nh(capsys):
    code, out, _ = invoke(capsys, "count-nh", "A2", "--max-h", "4", "--json")
    assert code == 0
    assert json.loads(out)["values"] == [1, 2, 4, 6, 9]


def test_divisors(capsys):
    code, out, _ = invoke(capsys, "divisors", "A2", "--g", "1", "--r", "2")
    assert code == 0
    assert "exponents=[2,1,1]" in out


def test_divisors_too_long_is_usage_error_before_expansion(capsys, monkeypatch):
    # E8 at r = 20 has 628,801,414 exponents; the length check must come before any of them
    def expand(*args):
        raise AssertionError("the sequence was expanded")

    monkeypatch.setattr(cli, "truncation_divisors", expand)
    code, out, err = invoke(capsys, "divisors", "E8", "--g", "1", "--r", "20")
    assert code == 2
    assert out == ""
    assert err == f"error: the sequence has 628801414 exponents; divisors prints at most {cli.DIVISORS_CAP}\n"


def test_divisors_cap_is_inclusive(capsys, monkeypatch):
    # A2 at g = 1, r = 2 has 3 exponents: printed at a cap of 3, refused at 2
    monkeypatch.setattr(cli, "DIVISORS_CAP", 3)
    assert invoke(capsys, "divisors", "A2", "--g", "1", "--r", "2") == (0, "exponents=[2,1,1] length=3\n", "")
    monkeypatch.setattr(cli, "DIVISORS_CAP", 2)
    code, out, err = invoke(capsys, "divisors", "A2", "--g", "1", "--r", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: the sequence has 3 exponents")


def usage_error_before_any_work(capsys, monkeypatch, names, argv):
    """Run argv in process with every function in `names` replaced by one that fails the test."""
    def work(*args):
        raise AssertionError("the refused input was computed with")

    for name in names:
        monkeypatch.setattr(cli, name, work)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert sum("error:" in line for line in err.splitlines()) == 1
    return err


@pytest.mark.parametrize("argv", [
    ["bound", "--type", "A1", "--g", "1", "--alpha", "1e1000000"],
    ["verify", "corollary", "--type", "A2", "--g", "1", "--p", "2", "--t", "4", "--r", "2", "--trials", "1",
     "--alpha", "1e1000000"],
])
def test_alpha_with_a_huge_exponent_is_refused_while_parsing(capsys, monkeypatch, argv):
    err = usage_error_before_any_work(capsys, monkeypatch, ["build_params", "gen_instance"], argv)
    assert f"the exponent of 1e1000000 is more than {cli.POWER_BITS_CAP} in size" in err


@pytest.mark.parametrize(("argv", "bits"), [
    (["bound", "--type", "E8", "--g", "1", "--alpha", "1e200"], 120 * (665 + 1)),
    (["bound", "--type", "E8", "--g", "1", "--alpha", "1e-200"], 120 * (1 + 665)),
    (["bound", "--type", "A1", "--g", "1", "--alpha", "1e20000"], 66439 + 1),
    (["verify", "corollary", "--type", "B2", "--g", "1", "--p", "2", "--t", "4", "--r", "2",
      "--alpha", "1e10000"], 4 * (33220 + 1)),
    (["bernoulli", "--s", "3", "--eval", "1e8000"], 3 * (26576 + 1)),
])
def test_power_above_the_cap_is_refused_before_it_is_taken(capsys, monkeypatch, argv, bits):
    err = usage_error_before_any_work(capsys, monkeypatch, ["build_params", "gen_instance"], argv)
    assert err.endswith(f"would have about {bits} bits; at most {cli.POWER_BITS_CAP} are allowed\n")


@pytest.mark.parametrize("argv", [
    ["bound", "--type", "A40", "--g", "1", "--alpha", "1"],
    ["verify", "corollary", "--type", "A40", "--g", "1", "--p", "2", "--t", "4", "--r", "2", "--trials", "1",
     "--alpha", "1"],
])
def test_type_above_the_s_cap_is_refused_before_build_params(capsys, monkeypatch, argv):
    err = usage_error_before_any_work(capsys, monkeypatch, ["build_params", "gen_instance"], argv)
    assert err == f"error: A40 has 820 positive roots; bound and verify corollary take at most {cli.BOUND_S_CAP}\n"


def test_s_cap_is_inclusive(capsys, monkeypatch):
    # A2 has s = 3
    corollary = ["verify", "corollary", "--type", "A2", "--g", "1", "--p", "2", "--t", "3", "--r", "2",
                 "--trials", "1", "--alpha", "1"]
    monkeypatch.setattr(cli, "BOUND_S_CAP", 3)
    assert invoke(capsys, "bound", "--type", "A2", "--g", "1", "--alpha", "1")[0] == 0
    assert invoke(capsys, *corollary)[0] == 0
    monkeypatch.setattr(cli, "BOUND_S_CAP", 2)
    refused = (2, "", "error: A2 has 3 positive roots; bound and verify corollary take at most 2\n")
    assert invoke(capsys, "bound", "--type", "A2", "--g", "1", "--alpha", "1") == refused
    assert invoke(capsys, *corollary) == refused


@pytest.mark.parametrize(("label", "s"), [("A63", 2016), ("A100", 5050)])
def test_verify_chain_above_the_degree_cap_is_refused_before_any_profile(capsys, monkeypatch, label, s):
    argv = ["verify", "chain", "--type", label, "--g", "1", "--p", "2", "--t", "4", "--r", "2", "--trials", "1"]
    err = usage_error_before_any_work(capsys, monkeypatch, ["verify_chain", "draw_b_seq", "gen_instance"], argv)
    assert err == (f"error: {label} has {s} positive roots; verify chain takes at most {cli.DEGREE_CAP}, "
                   "the largest Bernoulli degree built\n")


def test_verify_chain_degree_cap_is_inclusive(capsys, monkeypatch):
    # A2 has s = 3
    chain = ["verify", "chain", "--type", "A2", "--g", "1", "--p", "2", "--t", "3", "--r", "2", "--trials", "1"]
    monkeypatch.setattr(cli, "DEGREE_CAP", 3)
    assert invoke(capsys, *chain)[0] == 0
    monkeypatch.setattr(cli, "DEGREE_CAP", 2)
    assert invoke(capsys, *chain) == (
        2, "", "error: A2 has 3 positive roots; verify chain takes at most 2, the largest Bernoulli degree built\n")


VERIFY_KINDS = [["chain"], ["corollary", "--alpha", "1"]]
R_CAP_MESSAGE = "the most breakpoints verify builds for f_r and f_infinity"
T_CAP_MESSAGE = "the largest matrix verify draws"


@pytest.mark.parametrize("what", VERIFY_KINDS)
@pytest.mark.parametrize(("t", "r", "flag", "cap", "message"), [
    ("4", "100000", "--r 100000", "BREAKPOINTS_CAP", R_CAP_MESSAGE),
    ("100000", "2", "--t 100000", "VERIFY_T_CAP", T_CAP_MESSAGE),
])
def test_verify_r_or_t_above_its_cap_is_refused_before_any_draw_or_profile(capsys, monkeypatch, what, t, r, flag,
                                                                          cap, message):
    monkeypatch.setattr(harness, "_chain_constants", lambda *args: pytest.fail("the chain's profiles were built"))
    argv = ["verify", *what, "--type", "A2", "--g", "1", "--p", "2", "--t", t, "--r", r, "--trials", "1"]
    err = usage_error_before_any_work(capsys, monkeypatch, ["draw_b_seq", "gen_instance", "verify_chain",
                                                            "verify_corollary"], argv)
    assert err == f"error: {flag} is above {getattr(cli, cap)}, {message}\n"


@pytest.mark.parametrize(("cap", "flag", "other", "message"), [
    ("BREAKPOINTS_CAP", "--r", ["--t", "3"], R_CAP_MESSAGE),
    ("VERIFY_T_CAP", "--t", ["--r", "2"], T_CAP_MESSAGE),
])
def test_verify_r_and_t_caps_are_inclusive(capsys, monkeypatch, cap, flag, other, message):
    assert cli.VERIFY_T_CAP >= 128  # CI runs verify chain at t = 128
    monkeypatch.setattr(cli, cap, 3)
    for what in VERIFY_KINDS:
        verify = ["verify", *what, "--type", "A2", "--g", "1", "--p", "2", *other, "--trials", "1"]
        assert invoke(capsys, *verify, flag, "3")[0] == 0
        assert invoke(capsys, *verify, flag, "4") == (2, "", f"error: {flag} 4 is above 3, {message}\n")


def size_cap_message(t, r, p):
    bits = p.bit_length()
    return (f"error: --t {t} times --r {r} times the {bits} bits of --p is {t * r * bits}, "
            f"above {cli.VERIFY_SIZE_CAP}, the most verify takes\n")


@pytest.mark.parametrize("what", VERIFY_KINDS)
@pytest.mark.parametrize(("t", "r"), [(128, 30), (16, 10**4)])
def test_verify_size_above_its_cap_is_refused_before_any_draw_or_profile(capsys, monkeypatch, what, t, r):
    # each within the caps on --t and --r; unrefused, at p = 2 in a fresh interpreter, t = 16, r = 10^4
    # took about 17 s and t = 128, r = 30 0.83 s, but a cap that admits it admits t = 256, r = 12 (2.9 s)
    monkeypatch.setattr(harness, "_chain_constants", lambda *args: pytest.fail("the chain's profiles were built"))
    argv = ["verify", *what, "--type", "A2", "--g", "1", "--p", "2", "--t", str(t), "--r", str(r), "--trials", "1"]
    err = usage_error_before_any_work(capsys, monkeypatch, ["draw_b_seq", "gen_instance", "verify_chain",
                                                            "verify_corollary"], argv)
    assert err == size_cap_message(t, r, 2)


def test_verify_size_cap_is_inclusive_and_counts_the_bits_of_p(capsys, monkeypatch):
    # 5 has 3 bits: t = 3, r = 2 make 18
    monkeypatch.setattr(cli, "VERIFY_SIZE_CAP", 18)
    for what in VERIFY_KINDS:
        verify = ["verify", *what, "--type", "A2", "--g", "1", "--t", "3", "--r", "2", "--trials", "1"]
        assert invoke(capsys, *verify, "--p", "5")[0] == 0
        assert invoke(capsys, *verify, "--p", "7")[0] == 0
        assert invoke(capsys, *verify, "--p", "11") == (2, "", size_cap_message(3, 2, 11))
    monkeypatch.setattr(cli, "VERIFY_SIZE_CAP", 17)
    assert invoke(capsys, "verify", "chain", "--type", "A2", "--g", "1", "--p", "5", "--t", "3", "--r", "2",
                  "--trials", "1") == (2, "", size_cap_message(3, 2, 5))


def ci_verify_calls():
    """{call: (t, r, p, refused)} of each `slopebound verify` call in the CI workflow, refused where CI
    expects exit 2."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    calls = {}
    for line in workflow.read_text(encoding="utf-8").splitlines():
        if (call := re.search(r"slopebound (verify [^|>]*?)\s*(\|\||>|$)", line)):
            t, r, p = (int(re.search(rf"--{flag} (\d+)", call[1])[1]) for flag in "trp")
            calls[call[1]] = (t, r, p, "-eq 2" in line)
    return calls


def test_verify_size_cap_admits_every_ci_run_and_the_acceptance_grid():
    calls = ci_verify_calls()
    admitted = [t * r * p.bit_length() for t, r, p, refused in calls.values() if not refused]
    assert len(admitted) >= 8 and max(admitted) <= cli.VERIFY_SIZE_CAP
    # the refused calls within the caps on --t and --r
    assert sorted(call for call, (t, r, p, refused) in calls.items()
                  if refused and t <= cli.VERIFY_T_CAP and r <= cli.BREAKPOINTS_CAP
                  and t * r * p.bit_length() > cli.VERIFY_SIZE_CAP) == [
        "verify chain --type A2 --g 1 --p 2 --t 16 --r 10000 --trials 1",
        "verify chain --type A2 --g 1 --p 2 --t 256 --r 16 --trials 1",
    ]
    assert 8 * 4 * (5).bit_length() <= cli.VERIFY_SIZE_CAP  # acceptance grid: t <= 8, r <= 4, p <= 5


def test_power_cap_is_inclusive(capsys, monkeypatch):
    # alpha = 4 has 3 + 1 bits, so at s = 1 (A1) alpha^s is estimated at 4 bits
    monkeypatch.setattr(cli, "POWER_BITS_CAP", 4)
    assert invoke(capsys, "bound", "--type", "A1", "--g", "1", "--alpha", "4")[0] == 0
    monkeypatch.setattr(cli, "POWER_BITS_CAP", 3)
    assert invoke(capsys, "bound", "--type", "A1", "--g", "1", "--alpha", "4")[0] == 2


@pytest.mark.parametrize(("kind", "flag", "maker"), [
    ("finf", "--jmax", "f_infinity"), ("finfstar", "--jmax", "f_infinity_star"), ("fr", "--r", "f_r"),
])
def test_plf_breakpoints_above_the_cap_are_refused_before_any_is_built(capsys, monkeypatch, kind, flag, maker):
    argv = ["plf", kind, "--s", "2", "--g", "1", flag, "1000000000000"]
    err = usage_error_before_any_work(capsys, monkeypatch, [maker], argv)
    assert err == f"error: {flag} 1000000000000 is above {cli.BREAKPOINTS_CAP}, the most breakpoints plf builds\n"


def test_plf_breakpoints_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BREAKPOINTS_CAP", 5)
    assert invoke(capsys, "plf", "finf", "--s", "3", "--g", "2", "--jmax", "5")[0] == 0
    assert invoke(capsys, "plf", "finf", "--s", "3", "--g", "2", "--jmax", "6")[0] == 2


@pytest.mark.parametrize(("argv", "maker"), [
    (["bernoulli", "--s", "5000"], "bernoulli_poly"),
    (["bernoulli", "--s", "1000000000000", "--eval", "2"], "bernoulli_poly"),
    (["plf", "finf", "--s", "2001", "--g", "1", "--jmax", "1"], "f_infinity"),
    (["plf", "finfstar", "--s", "2001", "--g", "1", "--jmax", "1"], "f_infinity_star"),
])
def test_bernoulli_degree_above_the_cap_is_refused_before_any_number_is_built(capsys, monkeypatch, argv, maker):
    err = usage_error_before_any_work(capsys, monkeypatch, [maker], argv)
    assert err.endswith(f"is above {cli.DEGREE_CAP}, the largest Bernoulli degree built\n")


def test_bernoulli_degree_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEGREE_CAP", 3)
    assert invoke(capsys, "bernoulli", "--s", "3")[0] == 0
    assert invoke(capsys, "plf", "finfstar", "--s", "3", "--g", "1", "--jmax", "2")[0] == 0
    assert invoke(capsys, "bernoulli", "--s", "4")[0] == 2
    assert invoke(capsys, "plf", "finfstar", "--s", "4", "--g", "1", "--jmax", "2")[0] == 2


@pytest.mark.parametrize(("kind", "s", "flag", "count", "maker"), [
    ("finf", "1000000", "--jmax", "1", "f_infinity"),
    ("finfstar", "400", "--jmax", "2000", "f_infinity_star"),
    ("finf", "120", "--jmax", "10000", "f_infinity"),
    ("fr", "1000000", "--r", "10000", "f_r"),
])
def test_plf_size_above_the_cap_is_refused_before_any_breakpoint_is_built(capsys, monkeypatch, kind, s, flag,
                                                                          count, maker):
    argv = ["plf", kind, "--s", s, "--g", "1", flag, count]
    err = usage_error_before_any_work(capsys, monkeypatch, [maker], argv)
    assert err == f"error: --s {s} times {flag} {count} is above {cli.PLF_SIZE_CAP}, the most plf computes\n"


def test_plf_size_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PLF_SIZE_CAP", 15)
    assert invoke(capsys, "plf", "finf", "--s", "3", "--g", "2", "--jmax", "5")[0] == 0
    assert invoke(capsys, "plf", "fr", "--s", "5", "--g", "2", "--r", "3")[0] == 0
    assert invoke(capsys, "plf", "finf", "--s", "3", "--g", "2", "--jmax", "6")[0] == 2
    assert invoke(capsys, "plf", "fr", "--s", "4", "--g", "2", "--r", "4")[0] == 2


@pytest.mark.parametrize("argv", [
    ["verify", "chain", "--type", "A1", "--g", "1", "--p", str(10**30 + 57), "--t", "2", "--r", "1", "--trials", "1"],
    ["verify", "corollary", "--type", "A1", "--g", "1", "--p", str(10**30 + 57), "--t", "2", "--r", "1",
     "--trials", "1", "--alpha", "1"],
])
def test_prime_too_large_to_decide_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot decide whether {10**30 + 57} is prime") and err.count("\n") == 1


@pytest.mark.parametrize(("p", "message"), [
    ("4", "error: 4 is not prime\n"),
    ("1", "error: 1 is not prime\n"),
    (str(10**30 + 57), f"error: cannot decide whether {10**30 + 57} is prime"),
], ids=["4", "1", "undecidable"])
@pytest.mark.parametrize("command", [
    ["newton"],
    ["verify", "chain", "--type", "A2", "--g", "1", "--t", "4", "--r", "2", "--trials", "1"],
    ["verify", "corollary", "--type", "A2", "--g", "1", "--t", "4", "--r", "2", "--trials", "1", "--alpha", "1"],
], ids=["newton", "verify-chain", "verify-corollary"])
def test_bad_p_is_refused_before_any_work(capsys, monkeypatch, tmp_path, command, p, message):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2\n1 2\n3 4\n")
    argv = [*command, "--p", p] + (["--matrix", str(matrix)] if command == ["newton"] else [])
    err = usage_error_before_any_work(capsys, monkeypatch, ["char_poly", "draw_b_seq", "gen_instance"], argv)
    assert err.startswith(message)


def test_newton_at_an_18_digit_prime(capsys, tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2\n1 2\n3 4\n")
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "newton", "--p", str(10**18 + 3), "--matrix", str(matrix))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.startswith("char_poly: 1 -5 -2\n")


def test_bernoulli_eval(capsys):
    code, out, _ = invoke(capsys, "bernoulli", "--s", "2", "--eval", "0")
    assert code == 0
    assert out.strip().endswith("= 1/6")


@pytest.mark.parametrize("kind,maker,flags", [
    ("fr", lambda: f_r(2, 3, 4), ["--r", "4"]),
    ("finf", lambda: f_infinity(3, 2, 5), ["--jmax", "5"]),
    ("finfstar", lambda: f_infinity_star(3, 2, 5), ["--jmax", "5"]),
])
def test_plf_json_roundtrip(capsys, kind, maker, flags):
    s, g = ("2", "3") if kind == "fr" else ("3", "2")
    code, out, _ = invoke(capsys, "plf", kind, "--s", s, "--g", g, *flags, "--json")
    assert code == 0
    assert PiecewiseLinear.from_json_dict(json.loads(out)) == maker()


def test_plf_text_and_json_agree(capsys):
    _, text_out, _ = invoke(capsys, "plf", "fr", "--s", "1", "--g", "1", "--r", "2")
    _, json_out, _ = invoke(capsys, "plf", "fr", "--s", "1", "--g", "1", "--r", "2", "--json")
    data = json.loads(json_out)
    for x, y in data["breakpoints"]:
        assert f"({x},{y})" in text_out
    assert f"final_slope: {data['final_slope']}" in text_out


def test_plf_missing_mode_flag(capsys):
    code, _, err = invoke(capsys, "plf", "fr", "--s", "1", "--g", "1")
    assert code == 2
    assert "--r" in err


def test_bound_headline(capsys):
    code, out, _ = invoke(capsys, "bound", "--type", "A1", "--g", "1", "--alpha", "1")
    assert code == 0
    assert "m=16" in out and "bound=22" in out


def test_bound_json_matches_text(capsys):
    _, out_json, _ = invoke(capsys, "bound", "--type", "A1", "--g", "1", "--alpha", "5", "--json")
    data = json.loads(out_json)
    assert data["bound"] == "86"
    assert data["sharp"] == "80"
    assert Fraction(data["m"]) * Fraction(data["c_pow_s"]) == 1


def test_bound_e8_prints_past_the_int_digit_limit():
    proc = fresh_interpreter("-m", "slopebound.cli", "bound", "--type", "E8", "--g", "1", "--alpha", "1", "--json")
    assert proc.returncode == 0, proc.stderr
    # reading n back needs the limit lifted in this process too
    with cli._no_int_digit_limit():
        assert Fraction(json.loads(proc.stdout)["n"]) == build_params(120, 1).n


def test_bound_e8_in_process_leaves_digit_limit_as_found(capsys):
    before = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = invoke(capsys, "bound", "--type", "E8", "--g", "1", "--alpha", "1")
    assert code == 0, err
    assert out.startswith("s=120 ")
    if before is not None:
        assert sys.get_int_max_str_digits() == before


def decimal_counter():
    """A Counter of decimal conversions by name, and a maker of Fractions that count theirs in it."""
    conversions = Counter()

    class Counted(Fraction):
        def __str__(self):
            conversions[self.name] += 1
            return super().__str__()

    def counted(name, value):
        value = Counted(value)
        value.name = name
        return value

    return conversions, counted


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
def test_bound_converts_each_value_to_decimal_once(capsys, monkeypatch, output):
    conversions, counted = decimal_counter()

    def params(s, g):
        p = build_params(s, g)
        return BoundParams(s=p.s, g=p.g, M=p.M, c_pow_s=counted("c_pow_s", p.c_pow_s),
                           m=counted("m", p.m), n=counted("n", p.n))

    monkeypatch.setattr(cli, "build_params", params)
    for name in ("dimension_bound", "infimum_dimension_bound", "sharp_dimension_bound"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda p, alpha, fn=fn, name=name: counted(name, fn(p, alpha)))
    code, out, _ = invoke(capsys, "bound", "--type", "A1", "--g", "1", "--alpha", "5", *output)
    assert code == 0
    assert ("86" if output else "bound=86 infimum=80 sharp=80") in out
    names = ("m", "n", "c_pow_s", "dimension_bound", "infimum_dimension_bound", "sharp_dimension_bound")
    assert conversions == dict.fromkeys(names, 1)


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
def test_verify_corollary_converts_each_value_to_decimal_once(capsys, monkeypatch, output):
    conversions, counted = decimal_counter()

    def corollary(*args):
        report = verify_corollary(*args)
        return CorollaryReport(report.alpha, report.dimension, counted("bound", report.bound),
                               counted("sharp_bound", report.sharp_bound), report.params)

    monkeypatch.setattr(cli, "verify_corollary", corollary)
    code, out, _ = invoke(capsys, "verify", "corollary", "--type", "A1", "--g", "1", "--p", "2", "--t", "4",
                          "--r", "2", "--trials", "5", "--alpha", "5", *output)
    assert code == 0
    if output:
        trials = json.loads(out)["per_trial"]
        assert len(trials) == 5
        assert all((rec["bound"], rec["sharp_bound"]) == ("86", "80") for rec in trials)
    assert conversions == {"bound": 1, "sharp_bound": 1}


def test_cli_import_leaves_numpy_out():
    proc = fresh_interpreter("-c", "import sys, slopebound.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_needs_no_dataclass_machinery():
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis")
    code = f"import sys, slopebound.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = fresh_interpreter("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_newton_subcommand(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n2 0\n0 8\n")
    code, out, _ = invoke(capsys, "newton", "--p", "2", "--matrix", str(path), "--alpha", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["char_poly"] == [1, -10, 16]
    assert data["slopes"] == [["1", 1], ["3", 1]]
    assert data["slope_le_dimension"] == 1


def test_newton_bound_failure_exit_code(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2\n1 0\n0 1\n")
    bound = tmp_path / "bound.json"
    bound.write_text(json.dumps(f_r(1, 1, 1).to_json_dict()))  # slope-1 ray; identity stays flat
    code, out, _ = invoke(capsys, "newton", "--p", "2", "--matrix", str(matrix), "--bound", str(bound))
    assert code == 1
    assert "bound_holds=false" in out


def test_newton_bound_too_short_is_usage_error(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2\n1 0\n0 1\n")
    bound = tmp_path / "bound.json"
    short = PiecewiseLinear(breakpoints=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))
    bound.write_text(json.dumps(short.to_json_dict()))
    code, _, err = invoke(capsys, "newton", "--p", "2", "--matrix", str(matrix), "--bound", str(bound))
    assert code == 2
    assert "bound only defined up to 1, need 2" in err


@pytest.mark.parametrize("text", [
    '{"final_slope": null}',
    "[1, 2]",
    '"x"',
    '{"breakpoints": 5}',
    '{"breakpoints": [[null, 1]]}',
    '{"breakpoints": [["0", "0"]], "final_slope": []}',
    '{"breakpoints": [["0", "0"], ["1/0", "1"]]}',
    '{"breakpoints": [["0", "0"]], "final_slope": "1/0"}',
    '{"breakpoints": [["0", "0"], [1e400, "1"]]}',
    '{"breakpoints": ["00", "12"]}',
    '{"breakpoints": [["0", "0", "0"]]}',
    '{"breakpoints": [["0", "0"], [0.1, "1"]]}',
    '{"breakpoints": [["0", "0"], ["1", "1"]], "final_slope": 0.5}',
    '{"breakpoints": [[false, false]]}',
    '{"breakpoints": [["0", "0"]], "final_slope": true}',
])
def test_newton_malformed_bound_file_is_usage_error(tmp_path, capsys, text):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2\n1 0\n0 1\n")
    bound = tmp_path / "bound.json"
    bound.write_text(text)
    code, out, err = invoke(capsys, "newton", "--p", "2", "--matrix", str(matrix), "--bound", str(bound))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_newton_bad_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 0\n")
    code, _, err = invoke(capsys, "newton", "--p", "2", "--matrix", str(path))
    assert code == 2
    assert "matrix" in err


def test_verify_chain_runs_clean(capsys):
    code, out, _ = invoke(
        capsys, "verify", "chain", "--type", "A2", "--g", "1", "--p", "2",
        "--t", "4", "--r", "2", "--trials", "5", "--seed", "11", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_hold"] and data["passed"] == 5
    assert data["first_counterexample"] is None
    assert len(data["per_trial"]) == 5


def test_verify_corollary_with_fixed_b(capsys):
    code, out, _ = invoke(
        capsys, "verify", "corollary", "--type", "A1", "--g", "1", "--p", "3",
        "--t", "3", "--r", "2", "--b", "2,1", "--alpha", "1/2", "--trials", "4", "--seed", "0",
    )
    assert code == 0
    assert "4/4" in out


def test_verify_corollary_requires_alpha(capsys):
    code, _, err = invoke(
        capsys, "verify", "corollary", "--type", "A1", "--g", "1", "--p", "3",
        "--t", "3", "--r", "2", "--trials", "2",
    )
    assert code == 2
    assert "--alpha" in err


def test_verify_invalid_b_is_usage_error(capsys):
    code, _, _ = invoke(
        capsys, "verify", "chain", "--type", "A1", "--g", "1", "--p", "2",
        "--t", "3", "--r", "2", "--b", "1,2", "--trials", "2",
    )
    assert code == 2


def test_verify_b_above_r_names_the_violated_condition(capsys):
    code, out, err = invoke(
        capsys, "verify", "chain", "--type", "A1", "--g", "1", "--p", "2",
        "--t", "2", "--r", "1", "--b", "2", "--trials", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: b exponents must not exceed r\n"


@pytest.mark.parametrize("flags", [["--entry-bound", str(2**63)], ["--seed", "-1"]])
def test_verify_draws_out_of_range_are_usage_errors(capsys, flags):
    code, _, err = invoke(
        capsys, "verify", "chain", "--type", "A1", "--g", "1", "--p", "2",
        "--t", "3", "--r", "2", "--trials", "2", *flags,
    )
    assert code == 2
    assert err.startswith("error: ")


def test_seed_env_var_fallback(capsys, monkeypatch):
    args = ["verify", "chain", "--type", "A1", "--g", "1", "--p", "2",
            "--t", "3", "--r", "1", "--trials", "2", "--json"]
    monkeypatch.setenv("SLOPE_BOUND_SEED", "99")
    _, out_env, _ = invoke(capsys, *args)
    assert json.loads(out_env)["base_seed"] == 99
    # explicit flag wins over the environment
    _, out_flag, _ = invoke(capsys, *args, "--seed", "5")
    assert json.loads(out_flag)["base_seed"] == 5


# Generated argv for every subcommand. Valid sizes are capped so each call takes milliseconds;
# one value in five is instead zero, negative, fractional or malformed.
BAD_NUMBERS = ["0", "-1", "-7", "3/2", "-1/2", "1.5", "x", "", "1e2", "0x1", "1e1000000"]


def mostly(valid, bad):
    """A draw from `valid`, or one time in five from `bad`."""
    return st.sampled_from([valid] * 4 + [bad]).flatmap(lambda strategy: strategy)


LABELS = mostly(
    st.sampled_from(["A1", "A2", "A3", "B2", "B3", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]),
    st.builds("{}{}".format, st.sampled_from("ABCDEFGZa"),
              st.sampled_from(["", "-1", "0", "1", "2", "5", "9", "x"])),
)
PRIMES = mostly(st.sampled_from(["2", "3", "5", "7"]), st.sampled_from(BAD_NUMBERS + ["4", "9"]))
FRACTIONS = mostly(st.fractions(min_value=0, max_value=4, max_denominator=4).map(str),
                   st.sampled_from(BAD_NUMBERS))
# file contents; None leaves the file missing
MATRIX_FILES = mostly(
    st.integers(min_value=1, max_value=4).flatmap(lambda t: st.lists(
        st.integers(min_value=-20, max_value=20), min_size=t * t, max_size=t * t,
    ).map(lambda xs: f"{t}\n{' '.join(map(str, xs))}\n".encode())),
    st.sampled_from([None, b"", b"x", b"0", b"-1\n", b"2\n1 2 3", b"1\n1.5", b"1\n1/2", b"2\n1 2\n3 x",
                     b"3", b"1\n\xff", b"\xff\xfe"]),
)
BOUND_FILES = mostly(
    st.sampled_from([f_r(1, 1, 2), f_infinity(2, 1, 2), f_infinity_star(1, 1, 3),
                     PiecewiseLinear(((0, 0), (1, 0)))]).map(lambda fn: json.dumps(fn.to_json_dict()).encode()),
    st.sampled_from([None, b"", b"{", b"[1, 2]", b'{"final_slope": null}',
                     b'{"breakpoints": [["0", "0"], [0.1, "1"]]}', b'{"breakpoints": [["1", "0"]]}',
                     b'{"breakpoints": [["0", "0"]], "final_slope": "-1"}', b"\xff"]),
)


def numbers(low, high):
    return mostly(st.integers(min_value=low, max_value=high).map(str), st.sampled_from(BAD_NUMBERS))


def flag(name, values, required=True):
    """[name, value], or for an optional flag sometimes nothing."""
    pair = values.map(lambda value: [name, value])
    return pair if required else st.just([]) | pair


def argv(command, *pieces):
    return st.tuples(*pieces).map(lambda parts: [command] + [arg for part in parts for arg in part])


def files(directory, matrix_content, bound_content):
    """Write the matrix and --bound files; None leaves one missing."""
    matrix, bound = directory / "m.txt", directory / "b.json"
    for path, content in ((matrix, matrix_content), (bound, bound_content)):
        path.unlink(missing_ok=True)
        if content is not None:
            path.write_bytes(content)
    return str(matrix), str(bound)


LABEL = LABELS.map(lambda label: [label])
COMMANDS = {
    "roots": argv("roots", LABEL),
    "count-nh": argv("count-nh", LABEL, flag("--max-h", numbers(0, 30))),
    "divisors": argv("divisors", LABEL, flag("--g", numbers(1, 3)), flag("--r", numbers(1, 6))),
    "bernoulli": argv("bernoulli", flag("--s", numbers(0, 40)), flag("--eval", FRACTIONS, False)),
    "plf": argv("plf", mostly(st.sampled_from([["finf"], ["finfstar"], ["fr"]]), st.just(["f"])),
                flag("--s", numbers(1, 6)), flag("--g", numbers(1, 3)),
                flag("--r", numbers(1, 8), False), flag("--jmax", numbers(1, 8), False)),
    "newton": argv("newton", flag("--p", PRIMES), flag("--alpha", FRACTIONS, False)),
    "bound": argv("bound", flag("--type", LABELS), flag("--g", numbers(1, 3)), flag("--alpha", FRACTIONS)),
    "verify": argv("verify", mostly(st.sampled_from([["chain"], ["corollary"]]), st.just(["both"])),
                   flag("--type", LABELS), flag("--g", numbers(1, 2)), flag("--p", PRIMES),
                   flag("--t", numbers(1, 8)), flag("--r", numbers(1, 4)), flag("--trials", numbers(1, 3)),
                   flag("--b", st.sampled_from(["3,2,1", "1", "2,2", "", "0", "1,2", "x", "-1", "5"]), False),
                   flag("--alpha", FRACTIONS, False), flag("--seed", numbers(-2, 9), False),
                   flag("--entry-bound", numbers(1, 50), False)),
}


def test_roots_refuses_more_heights_than_it_prints_before_building_them(capsys, monkeypatch):
    monkeypatch.setattr(RootSystem, "heights", property(lambda self: pytest.fail("heights were built")))
    code, out, err = invoke(capsys, "roots", "A100000")
    assert (code, out) == (2, "")
    assert err == f"error: A100000 has 5000050000 positive roots; roots prints at most {cli.DIVISORS_CAP} heights\n"


def test_roots_cap_is_on_the_number_of_heights(capsys, monkeypatch):
    monkeypatch.setattr(cli, "DIVISORS_CAP", 3)
    assert invoke(capsys, "roots", "A2") == (0, "s=3 heights=[1,1,2]\n", "")
    assert invoke(capsys, "roots", "A3") == (2, "", "error: A3 has 6 positive roots; roots prints at most 3 heights\n")


def test_count_nh_at_rank_100000_is_quick(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "count-nh", "A100000", "--max-h", "10", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["values"][:2] == [1, 100000]
    assert time.perf_counter() - start < 5


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_exit_code_keeps_the_contract(file_dir, command, data):
    args = data.draw(COMMANDS[command])
    if command == "newton":
        matrix, bound = files(file_dir, data.draw(MATRIX_FILES), data.draw(BOUND_FILES))
        args += ["--matrix", matrix] + data.draw(st.sampled_from([[], ["--bound", bound]]))
    args += data.draw(st.sampled_from([[], ["--json"]]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (args, err)
    assert "Traceback" not in out + err and "internal error" not in out + err, (args, err)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (args, err)
    else:
        assert err == "", (args, err)
