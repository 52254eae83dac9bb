"""Positive roots, their heights, and the tuple-counting table N_h.

N_h counts the tuples (n_1, ..., n_s) of non-negative integers whose
height-weighted sum equals h. It only depends on the height multiset, obeys
N_h <= (h+1)^(s-1), and its generating function is the product of the
geometric series 1/(1 - x^ht) over the positive-root heights.
"""

from slopebound import build_root_system, count_nh, count_nh_bruteforce, truncation_divisors

for label in ("A1", "A2", "B2", "G2", "F4"):
    system = build_root_system(label[0], int(label[1]))
    print(f"{label}: s = {system.s} positive roots, heights = {list(system.heights)}")

print()
system = build_root_system("B", 2)
counts = count_nh(system, 10)
print(f"N_h for {system.label}, h = 0..10: {list(counts)}")
print(f"bound (h+1)^(s-1) at h=10: {(10 + 1) ** (system.s - 1)}")

# the brute-force enumerator agrees with the dynamic program
oracle = count_nh_bruteforce(system, 10)
print(f"independent enumeration agrees: {counts == oracle}")

# the divisor multiset built from the counts: exponent r-h with multiplicity g*N_h
seq = truncation_divisors(system, g=1, r=3)
print(f"\ntruncation divisors for g=1, r=3: exponents {list(seq.exponents)}")
print(f"length = g * (N_0 + N_1 + N_2) = {sum(counts[:3])}")
