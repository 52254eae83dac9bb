"""Command-line entry point.

Subcommands: roots, count-nh, divisors, bernoulli, plf, newton, bound,
verify. All numbers are printed as exact fractions "num/den" (or plain
integers); --json switches to machine-readable output with the same exact
values. Exit codes: 0 success / assertions hold, 1 assertion failure,
2 usage error (an input above a size cap or too large for memory
included), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .bernoulli import bernoulli_poly
from .bounds import build_params, dimension_bound, infimum_dimension_bound, sharp_dimension_bound
from .counting import ElemDivSeq, count_nh, truncation_divisors
from .harness import draw_b_seq, gen_instance, verify_chain, verify_corollary
from .newton import IntegerMatrix, NotPrime, char_poly, is_prime, newton_polygon, slope_le_dimension
from .plf import PiecewiseLinear, f_infinity, f_infinity_star, f_r
from .rootsystems import RootSystem, build_root_system, parse_label

DEFAULT_SEED = 0
SEED_ENV_VAR = "SLOPE_BOUND_SEED"
# most exponents `divisors` prints, and most heights `roots` prints; a longer sequence (E8 at r = 20
# has 628,801,414 exponents, A100000 has 5,000,050,000 positive roots) is a usage error, found from
# its length (g * sum N_h, or s from the exponents) before any entry is built
DIVISORS_CAP = 10**6
# most bits of x^s for an exact input x that a subcommand raises to the power s and prints: alpha
# in `bound` and `verify corollary` (the bound m * alpha^s + n) and --eval in `bernoulli`. The
# size comes from s and the bit lengths of x before any power is taken; 2^16 bits print in under
# 10 ms, where --alpha 1e1000000 (3.3 million bits) never ended. A fraction flag whose decimal
# exponent is above the cap in size is refused while parsing, since Fraction builds 10^exponent
POWER_BITS_CAP = 2**16
# most breakpoints `plf` builds, one per unit of --jmax (finf, finfstar) or --r (fr); --jmax 10^5
# took 4 s and --jmax 10^12 never ended. It is also the largest --r that `verify` takes, since the
# chain's f_r and f_infinity have r + 1 breakpoints each; `verify chain --r 100000` ran past 15 s
BREAKPOINTS_CAP = 10**4
# largest degree s of a Bernoulli polynomial B_s that `bernoulli --s` and `plf finf|finfstar --s`
# build (finfstar builds B_{s+1} too), checked before any Bernoulli number is. Fresh-interpreter
# `bernoulli --s` took 0.26 s at s = 1000, 0.66 s at 1500, 1.41 s at 2000, 2.66 s at 2500,
# 4.31 s at 3000 and 21.9 s at 5000 (Python 3.11.7). It is also the most positive roots s of the
# type that `verify chain` takes, checked before the chain's profiles are built, since f_infinity
# builds B_s. Fresh-interpreter `verify chain --type X --g 1 --p 2 --t 4 --r 2 --trials 1` took
# (in seconds, Python 3.11.7)
#   E8 (s = 120) 0.11    A40 (820) 0.15     A50 (1275) 0.31    A55 (1540) 0.64    A62 (1953) 0.88
#   D45 (1980) 0.89      A70 (2485) 1.50    A80 (3240) 3.48    A90 (4095) 7.96
DEGREE_CAP = 2000
# most --s times breakpoints (--jmax or --r) that `plf` computes: each breakpoint of finf and
# finfstar evaluates a Bernoulli polynomial of degree about s, and each coordinate of fr has about
# s * log2(r) bits. With B_s already built, finf/finfstar took (in seconds, Python 3.11.7)
#   s = 2, jmax 10^4: 0.35/0.68     s = 30, jmax 5000: 0.37/0.85    s = 120, jmax 2000: 0.47/0.88
#   s = 500, jmax 400: 0.39/0.90    s = 1000, jmax 150: 0.52/1.01   s = 2000, jmax 40: 0.30/0.64
# and fr at most 0.05 s on the same grid; finfstar at s = 400, jmax 2000 took 3.7 s
PLF_SIZE_CAP = 10**5
# most positive roots s of the type that `bound` and `verify corollary` take, checked before
# build_params. Their cost is the decimal output: the paper's n has about 1.45 s^2 digits at
# s = 465, and CPython before 3.12 converts an int to decimal in quadratic time. Fresh-interpreter
# `bound --type X --g 1 --alpha 1` took (in seconds, Python 3.11.7)
#   E8 (s = 120) 0.13    A20 (210) 0.26    A24 (300) 0.94    B18 (324) 1.26    B20 (400) 2.85
#   A28 (406) 2.94       D21 (420) 3.43    A29 (435) 3.96    A30 (465) 5.46    B22 (484) 6.48
#   A31 (496) 6.82       A32 (528) 9.03
# and A40 (820) did not end in 40 s
BOUND_S_CAP = 500
# largest --t that `verify` takes, checked before gen_instance: its cost is the t^2 PCG64 draws and
# the O(t^3) Newton kernel, for the chain and the corollary alike. Fresh-interpreter
# `verify chain|corollary --type A2 --g 1 --p 2 --r 3 --trials 1` (corollary with --alpha 1) took
# (in seconds, Python 3.11.7)
#   t = 128 0.18/0.18   200 0.20/0.19   300 0.44/0.61   400 1.20/1.15   500 2.09/2.06
#   t = 600 3.61/3.27   700 4.89/4.25   800 5.35/6.43   1000 10.53/13.09
# and `--type G2 --p 5 --r 4` at t = 500 took 2.59/2.90
VERIFY_T_CAP = 500
# most --t times --r times the bit length of --p that `verify` takes, checked before gen_instance. The
# matrix entries carry p^(r - b_l), and where the reduction lowers the column scales by more than 16
# digits, the kernel's precision ladder climbs past s = 16 on t-by-t entries of about r log2(p) bits.
# Fresh-interpreter `verify chain|corollary --type A2 --g 1 --p P --t T --r R --trials 1` (corollary
# with --alpha 1) took, at the largest r the cap admits (worst of seeds 0, 1, 2, chain/corollary, in
# seconds, Python 3.11.7)
#     t  p = 2           p = 3           p = 5           p = 65537
#    16  128 0.16/0.16   128 0.12/0.09    85 0.07/0.06    15 0.06/0.08
#    32   64 0.11/0.12    64 0.12/0.12    42 0.09/0.09     7 0.10/0.10
#    64   32 0.24/0.24    32 0.18/0.20    21 0.11/0.09     3 0.16/0.16
#   128   16 0.32/0.37    16 0.20/0.21    10 0.20/0.27     1 0.55/0.53
#   192   10 0.30/0.22    10 0.57/0.45     7 0.31/0.28     1 1.86/1.08
#   240    8 0.30/0.32     8 0.52/0.52     5 0.38/0.39     1 1.94/1.76
#   256    8 0.33/0.33     8 0.67/0.88     5 0.63/0.52     refused from t = 241
#   400    5 0.67/0.65     5 0.85/1.23     3 0.87/0.93
#   500    4 1.45/1.17     4 1.36/1.98     2 2.41/2.28
# A larger cap admits slower cells, first at t = 256: r = 9 and 10 at p = 3 (sizes 4608 and 5120) took
# 0.70-1.18 s over four runs, r = 12 at p = 2 (6144) 2.9 s and r = 16 (8192) 4.1-4.9 s; at smaller t,
# r = 32 at t = 128 (8192) took 1.0-1.3 s, r = 512 at t = 32 (32768) 1.2-1.8 s and r = 2048 at t = 16
# (65536) 0.84-0.94 s. So no larger cap on this product keeps every cell it adds below 1 s, and the cap
# stays. The slowest cells it admits are those at p = 65537 from t = 192, whose first rung alone takes
# over a second, and those at t = 400 and 500.
VERIFY_SIZE_CAP = 4096
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*\Z", re.IGNORECASE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        if (exponent := _EXPONENT.search(text)) and abs(int(exponent[1])) > POWER_BITS_CAP:
            raise argparse.ArgumentTypeError(f"the exponent of {text} is more than {POWER_BITS_CAP} in size")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a fraction like 3/2, got {text}") from exc


def _nonneg_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative fraction, got {text}")
    return value


def _exponent_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f'expected a comma list like "3,2,1", got {text}') from exc


def _check_power_size(flag: str, x: Fraction, s: int) -> None:
    """Refuse an x whose power x^s would have more than POWER_BITS_CAP bits."""
    bits = s * (x.numerator.bit_length() + x.denominator.bit_length())
    if bits > POWER_BITS_CAP:
        raise CliUsageError(f"{flag} to the power {s} would have about {bits} bits; "
                            f"at most {POWER_BITS_CAP} are allowed")


def _check_bound_size(system: RootSystem) -> None:
    if system.s > BOUND_S_CAP:
        raise CliUsageError(f"{system.label} has {system.s} positive roots; "
                            f"bound and verify corollary take at most {BOUND_S_CAP}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slopebound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="positive-root count and height multiset")
    p_roots.add_argument("label", help="type and rank, e.g. A2, E8")
    p_roots.add_argument("--json", action="store_true")

    p_count = sub.add_parser("count-nh", help="table of tuple counts N_0..N_H")
    p_count.add_argument("label")
    p_count.add_argument("--max-h", type=_nonneg_int, required=True)
    p_count.add_argument("--json", action="store_true")

    p_div = sub.add_parser("divisors", help="truncation divisor exponents")
    p_div.add_argument("label")
    p_div.add_argument("--g", type=_positive_int, required=True)
    p_div.add_argument("--r", type=_positive_int, required=True)
    p_div.add_argument("--json", action="store_true")

    p_bern = sub.add_parser("bernoulli", help="Bernoulli polynomial coefficients or value")
    p_bern.add_argument("--s", type=_nonneg_int, required=True)
    p_bern.add_argument("--eval", type=_fraction, default=None, metavar="X")
    p_bern.add_argument("--json", action="store_true")

    p_plf = sub.add_parser("plf", help="piecewise-linear lower-bound profiles")
    p_plf.add_argument("kind", choices=["finf", "finfstar", "fr"])
    p_plf.add_argument("--s", type=_positive_int, required=True)
    p_plf.add_argument("--g", type=_positive_int, required=True)
    p_plf.add_argument("--r", type=_positive_int, default=None)
    p_plf.add_argument("--jmax", type=_positive_int, default=None)
    p_plf.add_argument("--json", action="store_true")

    p_newton = sub.add_parser("newton", help="Newton polygon of an integer matrix")
    p_newton.add_argument("--p", type=_positive_int, required=True)
    p_newton.add_argument("--matrix", required=True, metavar="FILE")
    p_newton.add_argument("--alpha", type=_nonneg_fraction, default=None)
    p_newton.add_argument("--bound", default=None, metavar="FILE")
    p_newton.add_argument("--json", action="store_true")

    p_bound = sub.add_parser("bound", help="closed-form slope-dimension bound")
    p_bound.add_argument("--type", dest="label", required=True)
    p_bound.add_argument("--g", type=_positive_int, required=True)
    p_bound.add_argument("--alpha", type=_nonneg_fraction, required=True)
    p_bound.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="seeded synthetic verification runs")
    p_verify.add_argument("what", choices=["chain", "corollary"])
    p_verify.add_argument("--type", dest="label", required=True)
    p_verify.add_argument("--g", type=_positive_int, required=True)
    p_verify.add_argument("--p", type=_positive_int, required=True)
    p_verify.add_argument("--t", type=_positive_int, required=True)
    p_verify.add_argument("--r", type=_positive_int, required=True)
    p_verify.add_argument("--b", type=_exponent_list, default=None, metavar="LIST",
                          help='fixed b-sequence like "3,2,1"; drawn per trial when omitted')
    p_verify.add_argument("--alpha", type=_nonneg_fraction, default=None)
    p_verify.add_argument("--trials", type=_positive_int, default=100)
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"base seed; flag wins over ${SEED_ENV_VAR}, default {DEFAULT_SEED}")
    p_verify.add_argument("--entry-bound", type=_positive_int, default=50)
    p_verify.add_argument("--json", action="store_true")

    return parser


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_roots(args: argparse.Namespace) -> int:
    system = build_root_system(*parse_label(args.label))
    if system.s > DIVISORS_CAP:
        raise CliUsageError(f"{system.label} has {system.s} positive roots; "
                            f"roots prints at most {DIVISORS_CAP} heights")
    heights = ",".join(str(h) for h in system.heights)
    _emit(args, {"label": system.label, "rank": system.rank, "s": system.s,
                 "heights": list(system.heights)},
          f"s={system.s} heights=[{heights}]")
    return 0


def _cmd_count_nh(args: argparse.Namespace) -> int:
    system = build_root_system(*parse_label(args.label))
    counts = count_nh(system, args.max_h)
    values = " ".join(map(str, counts))
    _emit(args, {"label": system.label, "s": system.s, "max_h": args.max_h,
                 "values": list(counts)},
          f"N_h for h=0..{args.max_h}: {values}")
    return 0


def _cmd_divisors(args: argparse.Namespace) -> int:
    system = build_root_system(*parse_label(args.label))
    length = args.g * sum(count_nh(system, args.r - 1))
    if length > DIVISORS_CAP:
        raise CliUsageError(f"the sequence has {length} exponents; divisors prints at most {DIVISORS_CAP}")
    seq = truncation_divisors(system, args.g, args.r)
    exps = ",".join(str(e) for e in seq.exponents)
    _emit(args, {"label": system.label, "g": args.g, "r": args.r,
                 "exponents": list(seq.exponents)},
          f"exponents=[{exps}] length={len(seq)}")
    return 0


def _check_degree(s: int) -> None:
    if s > DEGREE_CAP:
        raise CliUsageError(f"--s {s} is above {DEGREE_CAP}, the largest Bernoulli degree built")


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    _check_degree(args.s)
    poly = bernoulli_poly(args.s)
    if args.eval is not None:
        _check_power_size("--eval", args.eval, args.s)
        value = poly(args.eval)
        _emit(args, {"s": args.s, "x": str(args.eval), "value": str(value)},
              f"B_{args.s}({args.eval}) = {value}")
    else:
        coeffs = [str(c) for c in poly.coefficients]
        _emit(args, {"s": args.s, "coefficients": coeffs},
              f"B_{args.s} coefficients (constant first): {' '.join(coeffs)}")
    return 0


def _plf_text(fn: PiecewiseLinear) -> str:
    pts = " ".join(f"({x},{y})" for x, y in fn.breakpoints)
    ray = "none" if fn.final_slope is None else str(fn.final_slope)
    return f"breakpoints: {pts} final_slope: {ray}"


def _cmd_plf(args: argparse.Namespace) -> int:
    flag, count = ("--r", args.r) if args.kind == "fr" else ("--jmax", args.jmax)
    if count is None:
        raise CliUsageError(f"{args.kind} requires {flag}")
    if count > BREAKPOINTS_CAP:
        raise CliUsageError(f"{flag} {count} is above {BREAKPOINTS_CAP}, the most breakpoints plf builds")
    if count * args.s > PLF_SIZE_CAP:
        raise CliUsageError(f"--s {args.s} times {flag} {count} is above {PLF_SIZE_CAP}, the most plf computes")
    if args.kind == "fr":
        fn = f_r(args.s, args.g, args.r)
    else:
        _check_degree(args.s)
        maker = f_infinity if args.kind == "finf" else f_infinity_star
        fn = maker(args.s, args.g, args.jmax)
    _emit(args, fn.to_json_dict(), _plf_text(fn))
    return 0


def _read_matrix_file(path: str) -> IntegerMatrix:
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise CliUsageError(f"matrix file {path} is empty")
    t = int(tokens[0])
    if t < 1 or len(tokens) != 1 + t * t:
        raise CliUsageError(f"matrix file {path} must hold t and then t*t integers")
    flat = [int(tok) for tok in tokens[1:]]
    return IntegerMatrix(tuple(tuple(flat[i * t:(i + 1) * t]) for i in range(t)))


def _cmd_newton(args: argparse.Namespace) -> int:
    if not is_prime(args.p):  # before char_poly, whose cost does not depend on p
        raise NotPrime(f"{args.p} is not prime")
    matrix = _read_matrix_file(args.matrix)
    coeffs = char_poly(matrix)
    poly = newton_polygon(coeffs, args.p)
    payload: dict = {
        "t": matrix.t,
        "char_poly": coeffs,
        "finite_length": poly.finite_length,
        "infinite_slopes": poly.infinite_slopes,
        "polygon": poly.polygon.to_json_dict(),
        "slopes": [[str(slope), length] for slope, length in poly.slopes()],
    }
    lines = [
        f"char_poly: {' '.join(str(c) for c in coeffs)}",
        f"finite_length={poly.finite_length} infinite_slopes={poly.infinite_slopes}",
        "slopes: " + " ".join(f"{sl}x{ln}" for sl, ln in poly.slopes()),
        _plf_text(poly.polygon),
    ]
    exit_code = 0
    if args.alpha is not None:
        dim = slope_le_dimension(poly, args.alpha)
        payload["alpha"] = str(args.alpha)
        payload["slope_le_dimension"] = dim
        lines.append(f"slope_le_dimension(alpha={args.alpha}) = {dim}")
    if args.bound is not None:
        with open(args.bound, encoding="utf-8") as fh:
            bound = PiecewiseLinear.from_json_dict(json.load(fh))
        holds = poly.dominates(bound)
        payload["bound_holds"] = holds
        lines.append(f"bound_holds={str(holds).lower()}")
        if not holds:
            exit_code = 1
    _emit(args, payload, "\n".join(lines))
    return exit_code


def _cmd_bound(args: argparse.Namespace) -> int:
    system = build_root_system(*parse_label(args.label))
    _check_power_size("--alpha", args.alpha, system.s)
    _check_bound_size(system)
    params = build_params(system.s, args.g)
    bound = dimension_bound(params, args.alpha)
    infimum = infimum_dimension_bound(params, args.alpha)
    sharp = sharp_dimension_bound(params, args.alpha) if args.alpha >= params.M else None
    # one decimal conversion per value, shared by both outputs: n, bound and
    # infimum have about 13k digits for E8 and over a million for A40
    m, n, alpha, bound, infimum = map(str, (params.m, params.n, args.alpha, bound, infimum))
    sharp = None if sharp is None else str(sharp)
    payload = {
        "label": system.label, "s": params.s, "g": params.g, "M": params.M,
        "m": m, "n": n, "c_pow_s": str(params.c_pow_s),
        "alpha": alpha, "bound": bound, "infimum": infimum, "sharp": sharp,
    }
    text = f"s={params.s} M={params.M} m={m} n={n} alpha={alpha} bound={bound} infimum={infimum}"
    if sharp is not None:
        text += f" sharp={sharp}"
    _emit(args, payload, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not is_prime(args.p):  # before any draw or profile
        raise NotPrime(f"{args.p} is not prime")
    if args.r > BREAKPOINTS_CAP:
        raise CliUsageError(f"--r {args.r} is above {BREAKPOINTS_CAP}, "
                            "the most breakpoints verify builds for f_r and f_infinity")
    if args.t > VERIFY_T_CAP:
        raise CliUsageError(f"--t {args.t} is above {VERIFY_T_CAP}, the largest matrix verify draws")
    if (size := args.t * args.r * args.p.bit_length()) > VERIFY_SIZE_CAP:
        raise CliUsageError(f"--t {args.t} times --r {args.r} times the {args.p.bit_length()} bits of --p is "
                            f"{size}, above {VERIFY_SIZE_CAP}, the most verify takes")
    system = build_root_system(*parse_label(args.label))
    if args.what == "chain" and system.s > DEGREE_CAP:
        raise CliUsageError(f"{system.label} has {system.s} positive roots; "
                            f"verify chain takes at most {DEGREE_CAP}, the largest Bernoulli degree built")
    if args.what == "corollary":
        if args.alpha is None:
            raise CliUsageError("verify corollary requires --alpha")
        _check_power_size("--alpha", args.alpha, system.s)
        _check_bound_size(system)
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        seed = int(env) if env is not None else DEFAULT_SEED
    fixed_b = None if args.b is None else ElemDivSeq(args.b)
    trials = []
    first_bad = None
    # the corollary's bound and sharp bound as text; they depend only on (s, g, alpha), so
    # the first trial's conversion serves every trial
    decimals = None
    for i in range(args.trials):
        trial_seed = seed + i
        b_seq = fixed_b if fixed_b is not None else draw_b_seq(trial_seed, system, args.g, args.r, args.t)
        inst = gen_instance(trial_seed, args.p, args.t, args.r, b_seq, args.entry_bound)
        if args.what == "chain":
            report = verify_chain(inst, system, args.g)
            record = {
                "seed": trial_seed,
                "b": list(b_seq.exponents),
                "newton_ge_fb": report.newton_ge_fb,
                "fb_ge_fa": report.fb_ge_fa,
                "fa_ge_fr": report.fa_ge_fr,
                "fr_eq_finf_on_window": report.fr_eq_finf_on_window,
                "ok": report.all_hold,
            }
        else:
            report = verify_corollary(inst, system, args.g, args.alpha)
            if decimals is None:
                decimals = str(report.bound), None if report.sharp_bound is None else str(report.sharp_bound)
            record = {
                "seed": trial_seed,
                "b": list(b_seq.exponents),
                "dimension": report.dimension,
                "bound": decimals[0],
                "sharp_bound": decimals[1],
                "ok": report.holds,
            }
        trials.append(record)
        if not record["ok"] and first_bad is None:
            first_bad = record
    passed = sum(1 for rec in trials if rec["ok"])
    all_hold = passed == len(trials)
    payload = {
        "what": args.what, "label": system.label, "g": args.g, "p": args.p,
        "t": args.t, "r": args.r, "trials": args.trials, "base_seed": seed,
        "passed": passed, "all_hold": all_hold,
        "per_trial": trials, "first_counterexample": first_bad,
    }
    text = f"{args.what}: {passed}/{args.trials} trials hold (base seed {seed})"
    if first_bad is not None:
        text += f"\nfirst counterexample: {first_bad}"
    _emit(args, payload, text)
    return 0 if all_hold else 1


class CliUsageError(ValueError):
    """Bad flag combinations or malformed input files."""


_HANDLERS = {
    "roots": _cmd_roots,
    "count-nh": _cmd_count_nh,
    "divisors": _cmd_divisors,
    "bernoulli": _cmd_bernoulli,
    "plf": _cmd_plf,
    "newton": _cmd_newton,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
}


@contextmanager
def _no_int_digit_limit():
    """Lift CPython's int/str digit limit for one invocation, then restore it.

    bound --type E8 prints an n of about 13k digits, past the default limit
    of 4300; builds before 3.10.7 have neither the limit nor its setter.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _no_int_digit_limit():
            return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a failed assertion (1) or bad input (2)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
