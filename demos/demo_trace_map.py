#!/usr/bin/env python3
"""The trace map from equivariant bundles to functions on inertia.

A bundle on [X/G] is one virtual character per orbit, living on the orbit's
stabilizer.  Its trace transports the character along the group action and
evaluates at each stabilizing element, giving a G-invariant cyclotomic
function on the fixed-point pairs.  In the indicator bases this map is a
square matrix of full exact rank, and pushing a bundle forward to the point
can be done on either side of it -- with the same answer.
"""

from stackyrr import (
    ClassFunction,
    VirtualEqBundle,
    devissage_phi,
    devissage_summary,
    inertia,
    natural_gset,
    orbits,
    pushforward_to_point,
    regular_character,
    structure_bundle,
    trivial_gset,
)
from stackyrr.smallgroups import cyclic, symmetric

# On [pt/Z2] a bundle is just a character of Z2.  The sign character traces
# to +1 on the identity pair and -1 on the involution pair.
z2 = cyclic(2)
pt = trivial_gset(z2, 1)
stab, _ = pt.stabilizer(0).as_group()
sign = ClassFunction(stab, (1, -1), genuine=True)
phi = devissage_phi(VirtualEqBundle(pt, (sign,)))
for pair in phi.inertia_set.labels:
    print("trace of sign at", pair, "=", phi.value_at_pair(pair))

# Its global sections: none.  Both computations below agree exactly (the
# call would raise if they did not).
print("chi of sign bundle on [pt/Z2] =", pushforward_to_point(VirtualEqBundle(pt, (sign,))))

# The trace-map matrix of a quotient is square and invertible; for S3
# permuting three points there are two inertia orbits and a 2x2 matrix.
nat = natural_gset(symmetric(3))
summary = devissage_summary(nat)
print("S3-natural trace matrix:", summary["matrix"])
print("rank", summary["rank"], "of", summary["inertia_orbits"], "inertia orbits ->",
      "isomorphism" if summary["invertible"] else "NOT an isomorphism")

# The structure sheaf pushes forward to the number of orbits...
print("chi(O) on [X/S3], X = 3 points:", pushforward_to_point(structure_bundle(nat)))

# ...and the bundle whose local character is the regular character of the
# stabilizer is the one whose invariants are the functions on the quotient.
rep = orbits(nat).representatives[0]
stab, _ = nat.stabilizer(rep).as_group()
natural_bundle = VirtualEqBundle(nat, (regular_character(stab),))
print("chi of the point-module bundle:", pushforward_to_point(natural_bundle))
print("inertia of the base has", inertia(nat).size, "points")
