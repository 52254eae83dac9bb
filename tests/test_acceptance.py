"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every assertion is exact; no tolerances anywhere.
"""

from fractions import Fraction
from itertools import product

import pytest

from slopebound.bernoulli import faulhaber_sum
from slopebound.bounds import build_params, compare_h, compute_M, envelope_polynomials
from slopebound.counting import ElemDivSeq, count_nh, count_nh_bruteforce
from slopebound.harness import corrupt_instance, draw_b_seq, gen_instance, verify_chain, verify_corollary
from slopebound.plf import f_infinity, f_infinity_star, f_r
from slopebound.rootsystems import build_root_system


def report(number: int, name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({name}): {verdict}")
    assert not failures, f"criterion {number}: {failures[:5]}"


@pytest.fixture(scope="module")
def chain_instances():
    """The 1000 seeded instances shared by criteria 6 and 7."""
    systems = {label: build_root_system(label[0], int(label[1])) for label in ("A1", "A2", "B2")}
    grid = list(product(sorted(systems), (1, 2, 3), (2, 3, 5), (1, 2, 3, 4), range(2, 9)))
    instances = []
    for trial in range(1000):
        label, g, p, r, t = grid[trial % len(grid)]
        seed = 1000 + trial
        system = systems[label]
        b_seq = draw_b_seq(seed, system, g, r, t)
        inst = gen_instance(seed, p=p, t=t, r=r, b_seq=b_seq, entry_bound=50)
        instances.append((inst, system, g))
    return instances


def test_criterion_1_faulhaber_identity():
    failures = []
    for s in range(1, 11):
        for j in range(0, 51):
            brute = sum((h + 1) ** (s - 1) for h in range(j))
            if faulhaber_sum(s, j) != brute:
                failures.append((s, j))
    report(1, "power-sum identity vs brute force", failures)


def test_criterion_2_counting_oracle():
    failures = []
    for label in ("A1", "A2", "B2", "G2"):
        system = build_root_system(label[0], int(label[1]))
        if count_nh(system, 20) != count_nh_bruteforce(system, 20):
            failures.append(("oracle", label))
    for letter, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2)):
        system = build_root_system(letter, rank)
        for h, value in enumerate(count_nh(system, 50)):
            if value > (h + 1) ** (system.s - 1):
                failures.append(("bound", system.label, h))
    report(2, "counting DP vs enumeration and (h+1)^(s-1) bound", failures)


def test_criterion_3_limit_profile_comparison():
    failures = []
    for g in (1, 2, 3):
        if f_infinity(1, g, 50).breakpoints != f_infinity_star(1, g, 50).breakpoints:
            failures.append(("s=1", g))
    for s in (2, 3, 4):
        plain, star = f_infinity(s, 1, 50), f_infinity_star(s, 1, 50)
        for j in range(1, 51):
            if not plain.breakpoints[j + 1][1] > star.breakpoints[j + 1][1]:
                failures.append((s, j))
    report(3, "limit profiles coincide at s=1, strictly ordered for s>=2", failures)


def test_criterion_4_coincidence_window():
    failures = []
    for s in (1, 2, 3, 4):
        for g in (1, 2, 3):
            for r in range(1, 7):
                window = g * faulhaber_sum(s, r + 1)
                if not f_r(s, g, r).agrees_with(f_infinity(s, g, r + 1), window):
                    failures.append((s, g, r))
    report(4, "ramp equals limit profile on its window", failures)


def test_criterion_5_envelopes_and_comparison_curve():
    failures = []
    for s in range(1, 7):
        M = compute_M(s)
        upper, lower = envelope_polynomials(s)
        for k in range(0, 100):
            x = M + Fraction(k, 2)
            if not (upper(x) <= 2 * x**s and lower(x) >= Fraction(1, 2) * x ** (s + 1)):
                failures.append(("envelope", s, x))
    for s in (1, 2, 3, 4):
        for g in (1, 2, 3):
            params = build_params(s, g)
            star = f_infinity_star(s, g, params.M + 31)
            for j in range(params.M, params.M + 31):
                x, y = star.breakpoints[j + 1]
                # below x_M the extended comparison curve equals the profile itself
                if x >= params.x_M and compare_h(params, x, y) > 0:
                    failures.append(("curve", s, g, j))
    report(5, "polynomial envelopes past M and curve below profile points", failures)


def test_criterion_6_synthetic_chain(chain_instances):
    failures = []
    for inst, system, g in chain_instances:
        result = verify_chain(inst, system, g)
        if not result.all_hold:
            failures.append((inst.seed, system.label, g, result.newton_ge_fb,
                             result.fb_ge_fa, result.fa_ge_fr, result.fr_eq_finf_on_window))
    a2 = build_root_system("A", 2)
    detected = 0
    for trial in range(100):
        p = (2, 3, 5)[trial % 3]
        r = 1 + trial % 4
        t = 2 + trial % 7
        inst = gen_instance(5000 + trial, p=p, t=t, r=r, b_seq=ElemDivSeq(()), entry_bound=50)
        if not verify_chain(corrupt_instance(inst), a2, 1).newton_ge_fb:
            detected += 1
    # with b empty every corruption provably drops v_p(trace) to 0
    if detected < 100:
        failures.append(("negative-control", detected))
    report(6, "dominance chain on 1000 instances, corruption detected", failures)


def test_criterion_7_dimension_bound_consistency(chain_instances):
    failures = []
    params_cache = {}
    for inst, system, g in chain_instances:
        key = (system.s, g)
        if key not in params_cache:
            params_cache[key] = build_params(*key)
        M = params_cache[key].M
        for alpha in (0, Fraction(1, 2), 1, 2, M):
            result = verify_corollary(inst, system, g, alpha)
            if not result.holds:
                failures.append((inst.seed, system.label, g, alpha, result.dimension))
            if alpha >= M and result.sharp_bound is None:
                failures.append(("missing-sharp", inst.seed, alpha))
    report(7, "slope counts below m*alpha^s + n (sharp form past M)", failures)


def test_criterion_8_constants_spot_check():
    failures = []
    if build_params(1, 1).m != 16:
        failures.append(("m(1,1)", build_params(1, 1).m))
    for s in range(1, 9):
        for g in range(1, 6):
            params = build_params(s, g)
            if params.m * params.c_pow_s != 1:
                failures.append(("m*c^s", s, g))
            # the paper's constants, recomputed here rather than read back from build_params
            if params.c_pow_s != Fraction(s, g * 2 ** (3 * s + 1)):
                failures.append(("c^s", s, g))
            # 0 ** 0 == 1 gives the closed form's uncorrected value at s = 1
            if params.n != g * sum(h ** (s - 1) for h in range(params.M + 2)):
                failures.append(("n", s, g))
    report(8, "m = 16 at (1,1), c^s = s/(g*2^(3s+1)), m*c^s = 1 and n = g*sum h^(s-1) exactly", failures)
