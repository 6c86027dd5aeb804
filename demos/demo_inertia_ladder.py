#!/usr/bin/env python3
"""Inertia of a finite quotient and the Euler-characteristic ladder.

The quotient [X/G] of a finite G-set has three Euler characteristics:
coarse (orbit count), orbifold (orbits weighted by 1/|stabilizer|), and the
"physicists'" one (orbit count of the fixed-point pairs).  Iterating the
inertia construction threads them into an exact ladder.
"""

from stackyrr import (
    chi_m,
    chi_orb_gset,
    chi_phy_gset,
    chi_top_gset,
    euler_report,
    euler_series,
    inertia,
    iterated_inertia,
    ladder_check,
    natural_gset,
    orbits,
    trivial_gset,
)
from stackyrr.smallgroups import symmetric

s3 = symmetric(3)

# S3 permuting three points: one orbit, stabilizers of order 2.
nat = natural_gset(s3)
print("S3 on 3 points: chi_top =", chi_top_gset(nat),
      " chi_orb =", chi_orb_gset(nat),
      " chi_phy =", chi_phy_gset(nat))

# The inertia set is all pairs (point, stabilizing element): here the three
# identity pairs plus one transposition per point, in two orbits.
iner = inertia(nat)
print("inertia points:", iner.labels)
print("inertia orbits:", orbits(iner).count)

# Iterating inertia = tuples of commuting stabilizing elements.  Building
# level m directly agrees with applying inertia m times.
for m in range(4):
    level = iterated_inertia(nat, m)
    print(f"I^{m} has {level.size} points")

# The one-point quotient [pt/S3]: its series counts commuting tuples.
pt = trivial_gset(s3, 1)
print("series of [pt/S3]:", euler_series(pt, 3))   # 1/6, 1, 3, 8

# The ladder: chi_phy(I^m) = chi_top(I^(m+1)) = chi_orb(I^(m+2)), exactly.
for m in range(3):
    ladder_check(pt, m)
    print(f"ladder at m={m}:",
          chi_phy_gset(iterated_inertia(pt, m)),
          "=", chi_top_gset(iterated_inertia(pt, m + 1)),
          "=", chi_m(pt, m + 2))

# Everything at once, with the ladder re-verified:
print(euler_report(nat, 3))
