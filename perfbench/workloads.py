"""The five seeded workloads.

Each workload builds its groups and candidate inputs in its constructor
(this is what `setup_s` times, together with the package import) and then
hands out rounds of cases.  A round holds one case per slot; each slot
draws from a `Stratum`, so every run sees the same mix of input sizes and
the seed changes only which inputs fill it.  Every case checks its result
against an independent route and raises `CheckFailed` on disagreement.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import zlib
from fractions import Fraction

from harness import (
    NULL, OUT, Case, Stratum, Tracer, case_rng, check, child_env, interpreter_start_s,
)

from stackyrr import chartheory as ct
from stackyrr import cyclonum as cn
from stackyrr import eulerlab as el
from stackyrr import exactlinalg as xl
from stackyrr import groupoidstack as gs
from stackyrr import grouptheory as gt
from stackyrr import orbicurve as oc
from stackyrr import presets, smallgroups


def _build(t, g, pieces):
    """The disjoint union of the coset actions G/H for H in `pieces`."""
    parts = [t.call("groupoidstack.coset_gset", gs.coset_gset, g, h) for h in pieces]
    if len(parts) == 1:
        return parts[0]
    return t.call("groupoidstack.disjoint_union", gs.disjoint_union, *parts)


def _coset_unions(g, subgroups, max_pieces, max_points):
    """Unions of 1..max_pieces coset actions with at most max_points points."""
    out = []
    for k in range(1, max_pieces + 1):
        for combo in itertools.combinations_with_replacement(subgroups, k):
            if sum(g.order // h.order for h in combo) <= max_points:
                out.append(combo)
    return out


# -- ladder ---------------------------------------------------------------------

# Cases are binned by a work estimate (see Ladder.__init__) into tiers
# [2^k, 2^(k+1)); a round takes LADDER_SLOTS[k] cases from tier k.  Tier 17
# cases take about 0.1-0.2 s on a 2-vCPU Xeon; heavier towers (up to Z16 on
# a point, whose I^4 has 196,608 points and takes seconds) are left out so
# that a run holds enough cases.  The 17 slots put p50 inside tier 13 and
# p90 inside tier 17, each among many cases of similar cost.
LADDER_SLOTS = {7: 1, 8: 1, 9: 1, 10: 1, 11: 2, 12: 2, 13: 2, 14: 2, 15: 1, 16: 1, 17: 3}


class Ladder:
    """Catalog groups of order <= 16 on unions of 1-3 cosets of index <= 6.

    Each case builds I^1..I^4 directly and again as inertia of the level
    below, checks the flattening bijections, and checks
    chi_phy(I^m) = chi_top(I^(m+1)) = chi_m(X, m+2) for m = 0..3.
    """

    name = "ladder"

    def __init__(self, seed: int, t=None):
        t = t or NULL
        self.seed = seed
        rng = case_rng(seed, self.name)
        catalog = t.call("smallgroups.group_catalog", smallgroups.group_catalog, 16)
        tiers = {k: [] for k in LADDER_SLOTS}
        for name, g in catalog:
            reps = t.call("grouptheory.subgroup_conjugacy_reps", gt.subgroup_conjugacy_reps, g)
            pieces = [h for h in reps if g.order // h.order <= 6]
            # |I^k| of G/H is [G:H] times the commuting k-tuples of H
            sizes = {
                h.elements: [g.order // h.order * t.call(
                    "grouptheory.count_commuting_tuples",
                    gt.count_commuting_tuples, h.as_group()[0], k) for k in range(5)]
                for h in pieces
            }
            for k in (1, 2, 3):
                for combo in itertools.combinations_with_replacement(pieces, k):
                    s = [sum(sizes[h.elements][j] for h in combo) for j in range(5)]
                    # action-table entries built for I^1..I^4 plus the base's
                    # orbit work; fitted to case times within 30%
                    work = (g.order + 7) * sum(s[1:]) + 12 * s[0] * g.order
                    tier = work.bit_length() - 1
                    if tier in tiers:
                        tiers[tier].append((name, g, combo, work))
        self.strata = [(Stratum(tiers[k], lambda c: c[3], rng), n) for k, n in LADDER_SLOTS.items()]

    def round(self, r: int) -> list[Case]:
        cases = []
        for stratum, n in self.strata:
            for i in range(n):
                name, g, combo, work = stratum.pick(n * r + i)
                label = f"{name} on {'+'.join(str(g.order // h.order) for h in combo)} work {work}"
                cases.append(Case("tower", label,
                                  lambda t, g=g, combo=combo: self.case(t, g, combo)))
        return cases

    @staticmethod
    def case(t, g, combo):
        base = _build(t, g, combo)
        direct = [base] + [
            t.call("groupoidstack.iterated_inertia", gs.iterated_inertia, base, k)
            for k in range(1, 5)
        ]
        for m in range(4):
            nested = t.call("groupoidstack.inertia", gs.inertia, direct[m])
            bij = t.call("groupoidstack.flattening_bijection",
                         gs.flattening_bijection, nested, direct[m + 1])
            check(bij.is_bijective(), f"flattening not bijective at m={m}")
            phy = t.call("eulerlab.chi_top_gset", el.chi_top_gset, nested)
            top = t.call("eulerlab.chi_top_gset", el.chi_top_gset, direct[m + 1])
            orb = t.call("eulerlab.chi_m", el.chi_m, base, m + 2)
            check(phy == top == orb, f"ladder m={m}: phy={phy} top={top} orb={orb}")
            t.count("groupoidstack.points_built", nested.size + direct[m + 1].size)
            t.count("eulerlab.tuples_counted", int(orb * g.order))


# -- symmetric --------------------------------------------------------------------

# (number of conjugacy classes of subgroups, number of subgroups)
SUBGROUP_COUNTS = {"S4": (11, 30), "A5": (9, 59)}


def _perm_generators(name: str):
    n = int(name[1])
    cycle = tuple((i + 1) % n for i in range(n))
    if name[0] == "S":
        return [(1, 0) + tuple(range(2, n)), cycle]
    return [(1, 2, 0) + tuple(range(3, n)), cycle]  # A5: a 3-cycle and a 5-cycle


def _action_points(kind: str, n: int):
    """Points and the image map of the S_n actions used as inputs."""
    if kind == "natural":
        return list(range(n)), lambda p, x: p[x]
    if kind in ("2-subsets", "3-subsets"):
        k = int(kind[0])
        return (list(itertools.combinations(range(n), k)),
                lambda p, x: tuple(sorted(p[i] for i in x)))
    if kind == "ordered-pairs":
        return list(itertools.permutations(range(n), 2)), lambda p, x: tuple(p[i] for i in x)
    raise ValueError(kind)


def _generator_columns(g, kinds):
    """gen_columns for gset_from_generator_action: a disjoint union of kinds."""
    n = len(g.perms[0])
    columns = [[] for _ in g.generators]
    offset = 0
    for kind in kinds:
        points, image = _action_points(kind, n)
        index = {x: i for i, x in enumerate(points)}
        for col, gen in zip(columns, g.generators):
            col.extend(offset + index[image(g.perms[gen], x)] for x in points)
        offset += len(points)
    return columns


def _relabel(columns, rng):
    size = len(columns[0])
    perm = list(range(size))
    rng.shuffle(perm)
    out = []
    for col in columns:
        new = [0] * size
        for x, y in enumerate(col):
            new[perm[x]] = perm[y]
        out.append(new)
    return out


S5_ACTIONS = [("natural",), ("2-subsets",), ("3-subsets",), ("ordered-pairs",),
              ("natural", "2-subsets")]


def _fingerprint(obj) -> str:
    return f"{zlib.crc32(repr(obj).encode()):08x}"


class Symmetric:
    """S4, A5, S5 and S6, numbered by seeded conjugates of their generators.

    A round holds 7 cases: commuting pairs of S4, A5 or S5 (recursion
    against brute force), S4 subgroup classes, two S5 ladders at m = 0 and
    two at m = 1 on actions passed as generator columns, and one S6 case in
    turn: the natural ladder at m = 0, commuting pairs.  Every third round
    adds A5 subgroup classes.  p50 then falls among the m = 0 ladders and
    p90 among the S6 cases, each inside a cluster of similar cost.
    """

    name = "symmetric"

    def __init__(self, seed: int, t=None):
        t = t or NULL
        self.seed = seed
        rng = case_rng(seed, self.name)
        self.groups = {}
        for name in ("S4", "A5", "S5", "S6"):
            n = int(name[1])
            relabel = list(range(n))
            rng.shuffle(relabel)
            inv = [relabel.index(i) for i in range(n)]
            gens = [tuple(relabel[p[inv[i]]] for i in range(n)) for p in _perm_generators(name)]
            self.groups[name] = t.call("grouptheory.group_from_permutations",
                                       gt.group_from_permutations, gens)
        s5 = self.groups["S5"]
        self.s5_actions = [(kinds, _generator_columns(s5, kinds)) for kinds in S5_ACTIONS]
        self.s6_natural = _generator_columns(self.groups["S6"], ("natural",))
        # the sequence of actions and groups is fixed; the seed numbers the
        # group elements and relabels the points
        sizes = case_rng(0, self.name)
        size = lambda a: len(a[1][0])  # noqa: E731
        self.ladder0 = Stratum(self.s5_actions, size, sizes)
        self.ladder1 = Stratum(self.s5_actions, size, sizes)
        self.pairs = Stratum(["S4", "A5", "S5"], lambda n: self.groups[n].order, sizes)
        self._tower_points = {}

    def fill_caches(self):
        """Run the S6 ladder once: the warm-up round holds only S6 commuting pairs."""
        self.round(1)[-1].run(NULL)

    def _group_label(self, name):
        g = self.groups[name]
        return f"{name} #{_fingerprint([g.perms[s] for s in g.generators])}"

    def _ladder(self, r, slot, name, kinds, cols, m):
        cols = _relabel(cols, case_rng(self.seed, self.name, r, slot))
        return Case(f"ladder_m{m}", f"{name} {'+'.join(kinds)} #{_fingerprint(cols)}",
                    lambda t: self.ladder_case(t, name, kinds, cols, m))

    def round(self, r: int) -> list[Case]:
        name = self.pairs.pick(r)
        cases = [
            Case("commuting_pairs", self._group_label(name), lambda t: self.pairs_case(t, name)),
            Case("subgroup_classes", self._group_label("S4"), lambda t: self.reps_case(t, "S4")),
        ]
        if r % 3 == 0:
            cases.append(Case("subgroup_classes", self._group_label("A5"),
                              lambda t: self.reps_case(t, "A5")))
        for m, stratum in ((0, self.ladder0), (1, self.ladder1)):
            for i in range(2):
                kinds, cols = stratum.pick(2 * r + i)
                cases.append(self._ladder(r, (m, i), "S5", kinds, cols, m))
        if r % 2:
            cases.append(self._ladder(r, "S6", "S6", ("natural",), self.s6_natural, 0))
        else:
            cases.append(Case("commuting_pairs", self._group_label("S6"),
                              lambda t: self.pairs_case(t, "S6")))
        return cases

    def reps_case(self, t, name):
        g = self.groups[name]
        reps = t.call("grouptheory.subgroup_conjugacy_reps", gt.subgroup_conjugacy_reps, g)
        total = 0
        for h in reps:
            conjugates = {frozenset(g.conj(x, e) for e in h.elements) for x in range(g.order)}
            total += len(conjugates)
        check((len(reps), total) == SUBGROUP_COUNTS[name],
              f"{name}: {len(reps)} classes, {total} subgroups")

    def pairs_case(self, t, name):
        g = self.groups[name]
        fast = t.call("grouptheory.count_commuting_tuples", gt.count_commuting_tuples, g, 2)
        slow = t.call("grouptheory.count_commuting_tuples", gt.count_commuting_tuples,
                      g, 2, "brute")
        check(fast == slow, f"{name}: recursive {fast} != brute {slow}")

    def ladder_case(self, t, name, kinds, cols, m):
        g = self.groups[name]
        x = t.call("groupoidstack.gset_from_generator_action",
                   gs.gset_from_generator_action, g, cols)
        ok = t.call("eulerlab.ladder_check", el.ladder_check, x, m)
        check(ok is True, "ladder_check did not confirm")
        if t.counting:
            t.count("groupoidstack.points_built", x.size + self.tower_points(name, kinds, x, m))

    def tower_points(self, name, kinds, x, m):
        """|I^m| + |I^(m+1)|, the points ladder_check builds (same for any relabeling)."""
        key = (name, kinds, m)
        if key not in self._tower_points:
            dec = gs.orbits(x)
            total = 0
            for rep, orbit in zip(dec.representatives, dec.orbits):
                stab = x.stabilizer(rep).as_group()[0]
                total += len(orbit) * sum(
                    gt.count_commuting_tuples(stab, j) for j in (m, m + 1))
            self._tower_points[key] = total
        return self._tower_points[key]


# -- characters ---------------------------------------------------------------------


def _criterion1_grid(t):
    """Groups Z1..Z8, S3, S4, D4, Q8, A4 with their <=3-orbit actions on <=8 points."""
    groups = [(f"Z{n}", smallgroups.cyclic(n)) for n in range(1, 9)]
    groups += [("S3", smallgroups.symmetric(3)), ("S4", smallgroups.symmetric(4)),
               ("D4", smallgroups.dihedral(4)), ("Q8", smallgroups.dicyclic(2)),
               ("A4", smallgroups.alternating(4))]
    grid = []
    for name, g in groups:
        reps = t.call("grouptheory.subgroup_conjugacy_reps", gt.subgroup_conjugacy_reps, g)
        subs = [h for h in reps if g.order // h.order <= 8]
        grid.extend((name, g, combo) for combo in _coset_unions(g, subs, 3, 8))
    return grid


# Work estimates per case kind, fitted to case times on the grid (within
# 15% for the first and last; pushforward also depends on the seeded bundle).
# n = |G|, p = points, d = trace-map matrix size, s = subgroup classes of
# the stabilizers.
CHARACTER_WORK = {
    "devissage": lambda n, p, d, s: 4 * d ** 3 + 10 * d ** 2 + 40,
    "pushforward": lambda n, p, d, s: n * s + 20,
    "character": lambda n, p, d, s: n * n * p * p + 4 * n * n + 40,
}


class Characters:
    """The criterion-1 grid (<= 3 orbits, <= 8 points) through chartheory.

    Slots per round, two each: the trace-map matrix with its exact rank,
    the pushforward of a seeded coset-character bundle, and the permutation
    representation's character against the permutation character.
    """

    name = "characters"

    def __init__(self, seed: int, t=None):
        t = t or NULL
        self.seed = seed
        rng = case_rng(seed, self.name)
        grid = []
        subgroup_classes = {}
        for name, g, combo in _criterion1_grid(t):
            stabs = [h.as_group()[0] for h in combo]
            for s in stabs:
                if id(s) not in subgroup_classes:
                    subgroup_classes[id(s)] = len(gt.subgroup_conjugacy_reps(s))
            size = (g.order, sum(g.order // h.order for h in combo),
                    sum(gt.conjugacy_classes(s).count for s in stabs),
                    sum(subgroup_classes[id(s)] for s in stabs))
            grid.append((name, g, combo, size))
        self.strata = {kind: Stratum(grid, lambda item, w=work: w(*item[3]), rng)
                       for kind, work in CHARACTER_WORK.items()}

    def round(self, r: int) -> list[Case]:
        cases = []
        for slot in range(2):
            for kind, stratum in self.strata.items():
                item = stratum.pick(2 * r + slot)
                run = getattr(self, f"{kind}_case")
                rng = case_rng(self.seed, self.name, r, slot)
                name, g, combo, _ = item
                label = f"{name} on {'+'.join(str(g.order // h.order) for h in combo)}"
                cases.append(Case(kind, label,
                                  lambda t, i=item, run=run, rng=rng: run(t, i, rng)))
        return cases

    @staticmethod
    def devissage_case(t, item, rng):
        _, g, combo, _ = item
        base = _build(t, g, combo)
        matrix = t.call("chartheory.devissage_matrix", ct.devissage_matrix, base)
        rank = t.call("exactlinalg.exact_rank", xl.exact_rank, matrix)
        rows, cols = len(matrix), len(matrix[0])
        check(rows == cols == rank, f"trace map {rows}x{cols} of rank {rank}")
        t.count("exactlinalg.entries", rows * cols)
        t.peak("cyclonum.max_conductor", max(v.conductor for row in matrix for v in row))

    @staticmethod
    def pushforward_case(t, item, rng):
        _, g, combo, _ = item
        base = _build(t, g, combo)
        chars = []
        for rep in t.call("groupoidstack.orbits", gs.orbits, base).representatives:
            stab = base.stabilizer(rep).as_group()[0]
            chi = t.call("chartheory.trivial_character", ct.trivial_character, stab)
            chi = chi * rng.randint(0, 2)
            for h in t.call("grouptheory.subgroup_conjugacy_reps", gt.subgroup_conjugacy_reps, stab):
                if rng.random() < 0.5:
                    psi = t.call("chartheory.coset_character", ct.coset_character, stab, h)
                    chi = chi + psi * rng.randint(1, 2)
            chars.append(chi)
        bundle = ct.VirtualEqBundle(base, tuple(chars))
        # raises ConsistencyError unless the source and inertia routes agree
        value = t.call("chartheory.pushforward_to_point", ct.pushforward_to_point, bundle)
        check(value.is_rational and value.rational_value().denominator == 1
              and value.rational_value() >= 0, f"pushforward {value!r}")
        t.peak("cyclonum.max_conductor", value.conductor)

    @staticmethod
    def character_case(t, item, rng):
        _, g, combo, _ = item
        base = _build(t, g, combo)
        rep = t.call("chartheory.permutation_rep", ct.permutation_rep, base)
        chi = t.call("chartheory.character_of", ct.character_of, rep)
        expected = t.call("chartheory.permutation_character", ct.permutation_character, base)
        check(chi.values == expected.values, "trace of the permutation rep != fixed-point count")
        t.peak("cyclonum.max_conductor", max(v.conductor for v in chi.values))


# -- cyclotomic ------------------------------------------------------------------

# Canonical conductors (never 2 mod 4) dividing 840.
CONDUCTORS = [n for n in range(1, 841) if 840 % n == 0 and n % 4 != 2]
# Field inverse costs 0.4 s at phi = 48 and 3.5-4.5 s at phi = 96 (280,
# 420); at 840 (phi = 192) it does not finish in minutes.  Divisors are
# kept to phi <= 48, and in products to phi <= 24 so the (a*b)/b check
# stays cheap; conductor 840 is reached through products and sums.
DIV_MAX_PHI = 48
MUL_DIVISOR_MAX_PHI = 24
TODD_R = range(2, 61)
EIGEN_GROUP_MAX_ORDER = 8


def _element(rng, n):
    while True:
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                  for _ in range(cn.euler_phi(n))]
        value = cn.canonicalize(n, coeffs)
        if value:
            return value


def _embed(x) -> complex:
    """x under zeta_n -> exp(2 pi i / n): an independent floating-point route."""
    n = x.conductor
    return sum(float(c) * cmath.exp(2j * math.pi * i / n) for i, c in enumerate(x.coeffs))


def _scale(*xs) -> float:
    return 1.0 + sum(abs(float(c)) for x in xs for c in x.coeffs)


class Cyclotomic:
    """Q(zeta_n) arithmetic for n | 840, unit sums and eigenspace dimensions.

    Slots per round: two unit sums stacky_todd_sum(r, k), r in [2, 60],
    against the closed form; one sum, one product and one quotient, each
    checked through the complex embedding and, for products and quotients,
    by the exact round trip; two eigenspace decompositions of a permutation
    representation, checked against dim - rank(rho(h) - zeta) and against
    the total dimension.
    """

    name = "cyclotomic"

    def __init__(self, seed: int, t=None):
        t = t or NULL
        self.seed = seed
        # The conductors, orders and actions follow one fixed sequence, and
        # the seed draws the field elements, weights and point labels: the
        # costs here span four decades over few candidates, so letting the
        # seed pick sizes would move a run's speed more than the noise does.
        sizes = case_rng(0, self.name)
        lcm_phi = lambda p: cn.euler_phi(math.lcm(*p))  # noqa: E731
        self.todd = Stratum(list(TODD_R), lambda r: r, sizes)
        self.add = Stratum(list(itertools.product(CONDUCTORS, CONDUCTORS)), lcm_phi, sizes)
        self.mul = Stratum(
            [(a, b) for a in CONDUCTORS for b in CONDUCTORS
             if b > 1 and cn.euler_phi(b) <= MUL_DIVISOR_MAX_PHI], lcm_phi, sizes)
        self.div = Stratum([n for n in CONDUCTORS if cn.euler_phi(n) <= DIV_MAX_PHI],
                           cn.euler_phi, sizes)
        grid = [item for item in _criterion1_grid(t) if item[1].order <= EIGEN_GROUP_MAX_ORDER]
        relabel = case_rng(seed, self.name)
        reps = []
        for name, g, combo in sizes.sample(grid, 6):
            base = _build(t, g, combo)
            perm = list(range(base.size))
            relabel.shuffle(perm)
            act = [None] * base.size
            for x, row in enumerate(base.act):
                act[perm[x]] = [perm[y] for y in row]
            base = t.call("groupoidstack.gset_from_table", gs.gset_from_table, g, act)
            rep = t.call("chartheory.permutation_rep", ct.permutation_rep, base)
            reps.extend((f"{name} #{_fingerprint(perm)}", rep, h) for h in range(1, g.order))
        self.eigen = Stratum(reps, lambda item: (item[1].dim, item[1].group.element_order(item[2])),
                             sizes)

    def fill_caches(self):
        """Fill stackyrr's lru caches for every conductor and unit sum used.

        The first stacky_todd_sum at an order r computes r - 1 field inverses
        (up to 0.3 s) that later calls find cached; without this, a run's
        speed would depend on how many orders it had time to repeat.
        """
        rng = case_rng(self.seed, self.name, "fill")
        for n in CONDUCTORS:
            x = _element(rng, n)
            x * x
        for r in TODD_R:
            cn.stacky_todd_sum(r, 0)

    def round(self, r: int) -> list[Case]:
        cases = []
        for slot in range(2):
            rr = self.todd.pick(2 * r + slot)
            k = case_rng(self.seed, self.name, r, slot).randrange(rr)
            cases.append(Case("todd", f"r={rr} k={k}", lambda t, rr=rr, k=k: self.todd_case(t, rr, k)))
        for op in ("add", "mul", "div"):
            pair = getattr(self, op).pick(r)
            na, nb = pair if op != "div" else (pair, pair)
            rng = case_rng(self.seed, self.name, r, op)
            a, b = _element(rng, na), _element(rng, nb)
            cases.append(Case(op, f"Q(z{na}) {op} Q(z{nb})",
                              lambda t, op=op, a=a, b=b: getattr(self, f"{op}_case")(t, a, b)))
        for slot in range(2):
            name, rep, h = self.eigen.pick(2 * r + slot)
            cases.append(Case("eigen", f"{name} dim {rep.dim} h={h}",
                              lambda t, rep=rep, h=h: self.eigen_case(t, rep, h)))
        return cases

    @staticmethod
    def todd_case(t, r, k):
        value = t.call("cyclonum.stacky_todd_sum", cn.stacky_todd_sum, r, k)
        closed = cn.stacky_todd_closed_form(r, k)
        check(value == closed, f"unit sum r={r} k={k}: {value} != {closed}")
        t.peak("cyclonum.max_conductor", r)

    @staticmethod
    def add_case(t, a, b):
        s = t.call("cyclonum.add", operator.add, a, b)
        check(abs(_embed(s) - (_embed(a) + _embed(b))) < 1e-9 * _scale(a, b, s), "embedded sum")
        t.peak("cyclonum.max_conductor", math.lcm(a.conductor, b.conductor))

    @staticmethod
    def mul_case(t, a, b):
        p = t.call("cyclonum.mul", operator.mul, a, b)
        check(abs(_embed(p) - _embed(a) * _embed(b)) < 1e-9 * _scale(a, b, p) ** 2,
              "embedded product")
        back = t.call("cyclonum.div", operator.truediv, p, b)
        check(back == a, "(a*b)/b != a")
        t.peak("cyclonum.max_conductor", math.lcm(a.conductor, b.conductor))

    @staticmethod
    def div_case(t, a, b):
        q = t.call("cyclonum.div", operator.truediv, a, b)
        check(abs(_embed(q) * _embed(b) - _embed(a)) < 1e-9 * _scale(a, b, q) ** 2,
              "embedded quotient")
        back = t.call("cyclonum.mul", operator.mul, q, b)
        check(back == a, "(a/b)*b != a")
        t.peak("cyclonum.max_conductor", a.conductor)

    @staticmethod
    def eigen_case(t, rep, h):
        order = rep.group.element_order(h)
        matrix = rep.matrices[h]
        total = 0
        for j in range(order):
            zeta = t.call("cyclonum.root_of_unity", cn.root_of_unity, order, j)
            dim = t.call("chartheory.eigencomponent_dim", ct.eigencomponent_dim, rep, h, zeta)
            shifted = [[v - zeta if i == c else v for c, v in enumerate(row)]
                       for i, row in enumerate(matrix)]
            rank = t.call("exactlinalg.exact_rank", xl.exact_rank, shifted)
            check(dim == rep.dim - rank, f"eigenspace of zeta_{order}^{j}: {dim} vs kernel")
            total += dim
            t.count("exactlinalg.entries", rep.dim * rep.dim)
        check(total == rep.dim, f"eigenspaces sum to {total}, not {rep.dim}")
        t.peak("cyclonum.max_conductor", order)


# -- cli --------------------------------------------------------------------------

# The acceptance suite's CLI fixtures, each run with --oracle.
CLI_FIXTURES = [
    ("classes", "--group", "S4"),
    ("classes", "--group", "Q8"),
    ("inertia", "--gset", "s3-natural"),
    ("inertia", "--gset", "s3-mixed"),
    ("euler", "--gset", "pt-s3", "--max-m", "3"),
    ("euler", "--gset", "d4-vertices", "--max-m", "3"),
    ("series", "--gset", "pt-z2", "--max-m", "5"),
    ("rr", "--curve", "p237", "--divisor", "zero"),
    ("rr", "--curve", "p23", "--divisor", "weight12"),
    ("devissage", "--gset", "s3-natural"),
    ("devissage", "--gset", "a4-natural"),
    ("weighted", "--curve", "p23", "--weights", "p23-weights"),
    ("report", "--gset", "s3-natural", "--curve", "p237", "--divisor", "canonical"),
]

CLI_POOL = 12  # seeded inputs per input kind
NOMINAL_START_S = 0.055  # a bare interpreter start while the loop takes NOMINAL_LOOP_S
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
CLI_SPAN_TAG = "PERFBENCH_SPANS "


def _frac_json(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else [str(q.numerator), str(q.denominator)]


def _expected_gset(command, gset, m_max):
    """The fields of a report on `gset` that the library computes directly."""
    if command == "inertia":
        iner = gs.inertia(gset)
        return {"inertia_points": iner.size, "inertia_orbits": gs.orbits(iner).count}
    if command == "devissage":
        summary = ct.devissage_summary(gset)
        return {"rank": summary["rank"], "square": summary["square"], "ok": summary["invertible"]}
    if command in ("euler", "series"):
        series = [_frac_json(v) for v in el.euler_series(gset, m_max)]
        if command == "series":
            return {"series": series}
        return {"chi_top": el.chi_top_gset(gset), "chi_orb": _frac_json(el.chi_orb_gset(gset)),
                "chi_phy": el.chi_phy_gset(gset), "series": series}
    raise ValueError(command)


def _regular_perms(g):
    """Left multiplication by each recorded generator, as permutations."""
    return [list(g.mul[s]) for s in g.generators]


class Cli:
    """`python -m stackyrr.cli ... --oracle`, one fresh process per case.

    Slots per round: two acceptance fixtures; euler on a seeded catalog
    action given as a table; inertia on one given by group permutations;
    devissage on one given by generator columns; rr on a seeded curve and
    divisor; weighted on a seeded curve and weights.  Reports are parsed
    and compared with the library's own values after the timed loop.
    """

    name = "cli"
    # A case here is mostly a fresh interpreter's start, whose speed drifts
    # apart from the in-process loop's on a shared host.  So each case is
    # scaled by a bare interpreter start timed right before it.  In eight
    # seeded runs that timed both, this cut the seed-to-seed spread of p90
    # from 0.10 (scaled by the loop) to 0.04 and of cases_per_s from 0.10
    # to 0.03.  The bare interpreter does not import stackyrr, so no change
    # to stackyrr can move its start.
    host_clock = (lambda: interpreter_start_s(1), NOMINAL_START_S)

    def __init__(self, seed: int, t=None):
        self.t_setup = t or NULL
        self.seed = seed
        self.child_peak_kib = 0
        rng = case_rng(seed, self.name)
        self.dir = OUT / f"cli-inputs-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        catalog = [(name, g) for name, g in smallgroups.group_catalog(12)
                   if g.generators is not None and g.order > 1]
        self.fixtures = Stratum(list(CLI_FIXTURES), lambda f: 0, rng)
        pools = {"table": [], "permutations": [], "generators": [], "rr": [], "weighted": []}
        for i in range(CLI_POOL):
            for kind in ("table", "permutations", "generators"):
                pools[kind].append(self._gset_input(kind, i, catalog, rng))
            pools["rr"].append(self._curve_input("rr", i, rng))
            pools["weighted"].append(self._curve_input("weighted", i, rng))
        self.strata = {kind: Stratum(items, lambda it: it[2], rng) for kind, items in pools.items()}

    # inputs --------------------------------------------------------------

    def _write(self, stem, doc):
        path = self.dir / f"{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _gset_input(self, kind, i, catalog, rng):
        name, g = rng.choice(catalog)
        if kind != "table":
            # the CLI closes these permutations itself, in the same order
            g = self.t_setup.call("grouptheory.group_from_permutations",
                                  gt.group_from_permutations, _regular_perms(g))
        subs = [h for h in gt.subgroup_conjugacy_reps(g) if g.order // h.order <= 6]
        combo = rng.choice(_coset_unions(g, subs, 2, 8))
        gset = _build(self.t_setup, g, combo)
        if kind == "table":
            doc = {"group": {"table": [list(row) for row in g.mul]},
                   "points": gset.size, "action": [list(row) for row in gset.act]}
            command, extra = "euler", ("--max-m", "2")
        elif kind == "permutations":
            doc = {"group": {"permutations": [list(g.perms[s]) for s in g.generators]},
                   "points": gset.size, "action": [list(row) for row in gset.act]}
            command, extra = "inertia", ()
        else:
            doc = {"group": {"permutations": [list(g.perms[s]) for s in g.generators]},
                   "points": gset.size,
                   "action_generators": [[gset.act[x][s] for x in range(gset.size)]
                                         for s in g.generators]}
            command, extra = "devissage", ()
        path = self._write(f"{kind}-{i}", doc)
        argv = (command, "--gset", path, *extra)
        m_max = 2
        return (argv, lambda: _expected_gset(command, gset, m_max),
                g.order * gset.size, f"{name} on {gset.size} points as {kind}")

    def _curve_input(self, kind, i, rng):
        genus = rng.randint(0, 3)
        orders = [rng.randint(2, 12) for _ in range(rng.randint(0, 5))]
        stacky = [{"label": f"s{j}", "order": r} for j, r in enumerate(orders)]
        curve = oc.OrbifoldCurve(genus, tuple((p["label"], p["order"]) for p in stacky))
        curve_path = self._write(f"{kind}-curve-{i}", {"genus": genus, "stacky": stacky})
        if kind == "rr":
            entries = [{"label": f"s{j}", "num": rng.randint(-3 * r, 3 * r), "den": r}
                       for j, r in enumerate(orders)]
            entries += [{"label": "q0", "num": rng.randint(-5, 5), "den": 1}]
            divisor = oc.FracDivisor.from_pairs(
                curve, [(e["label"], Fraction(e["num"], e["den"])) for e in entries])
            path = self._write(f"rr-divisor-{i}", entries)
            argv = ("rr", "--curve", curve_path, "--divisor", path)
            expected = lambda: {"chi": oc.euler_char_rr(divisor)}  # noqa: E731
        else:
            weights = {f"s{j}": rng.choice([w for w in range(-4, 7) if w]) for j in range(len(orders))}
            open_w = rng.choice([w for w in range(-4, 7) if w])
            strata = el.CurveStrata(curve, Fraction(open_w),
                                    tuple((k, Fraction(w)) for k, w in weights.items()))
            path = self._write(f"weights-{i}", {"open": open_w, "points": weights})
            argv = ("weighted", "--curve", curve_path, "--weights", path)
            expected = lambda: {"chi": el.weighted_chi(strata, "top")}  # noqa: E731
        return argv, expected, len(orders), f"genus {genus} orders {orders}"

    @staticmethod
    def fixture_expected(argv):
        command = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        m_max = int(opts.get("--max-m", 3))
        if command == "classes":
            g = presets.GROUP_BUILDERS[opts["--group"]]()
            return {"order": g.order, "class_count": gt.conjugacy_classes(g).count}
        if command == "rr":
            curve = presets.curve_preset(opts["--curve"])
            return {"chi": oc.euler_char_rr(presets.divisor_preset(opts["--divisor"], curve))}
        if command == "weighted":
            curve = presets.curve_preset(opts["--curve"])
            return {"chi": el.weighted_chi(presets.weights_preset(opts["--weights"], curve), "top")}
        gset = presets.gset_preset(opts["--gset"])
        if command == "report":
            curve = presets.curve_preset(opts["--curve"])
            divisor = presets.divisor_preset(opts["--divisor"], curve)
            return {"gset": {"points": gset.size, "orbits": gs.orbits(gset).count,
                             "euler": {"chi_top": el.chi_top_gset(gset),
                                       "chi_phy": el.chi_phy_gset(gset)}},
                    "curve": {"divisor": {"chi": oc.euler_char_rr(divisor)}}}
        return _expected_gset(command, gset, m_max)

    # cases ---------------------------------------------------------------

    def round(self, r: int) -> list[Case]:
        cases = []
        for slot in range(2):
            argv = self.fixtures.pick(2 * r + slot)
            cases.append(Case("fixture", " ".join(argv),
                              lambda t, a=argv: self.case(t, a, lambda: self.fixture_expected(a))))
        for kind, stratum in self.strata.items():
            argv, expected, _, label = stratum.pick(r)
            cases.append(Case(kind, label, lambda t, a=argv, e=expected: self.case(t, a, e)))
        return cases

    def case(self, t, argv, expected):
        report, peak_kib = run_cli(t, argv, self.dir)
        self.child_peak_kib = max(self.child_peak_kib, peak_kib)
        t.count("cli.report_bytes", len(report))

        def verify():
            doc = json.loads(report)
            check(doc.get("schema") == "1", "report schema")
            _match(doc["result"], expected(), " ".join(argv))
        return verify


def run_cli(t, argv, workdir):
    """Run one CLI command with --oracle in a fresh interpreter.

    Returns the report bytes and the child's peak RSS in KiB.  Traced runs
    go through cli_child.py, which times the import and main() inside the
    child and hands the spans back on stderr.
    """
    traced = isinstance(t, Tracer)
    cmd = [sys.executable, CLI_CHILD] if traced else [sys.executable, "-m", "stackyrr.cli"]
    cmd += [*argv, "--oracle"]
    out_path, err_path = workdir / "report.json", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        # wait4, not wait: it also returns this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    check(proc.returncode == 0, f"exit status {proc.returncode}: {stderr[-300:]}")
    if traced:
        case_span = t.stack[-1]
        for line in stderr.splitlines():
            if line.startswith(CLI_SPAN_TAG):
                ids = {}
                for name, start, end, parent in json.loads(line[len(CLI_SPAN_TAG):]):
                    ids[name] = t.add_span(name, start, end, ids.get(parent, case_span))
    return out_path.read_bytes(), usage.ru_maxrss


def _match(actual, expected, where):
    for key, value in expected.items():
        check(key in actual, f"{where}: report lacks {key!r}")
        if isinstance(value, dict):
            _match(actual[key], value, where)
        else:
            check(actual[key] == value, f"{where}: {key} = {actual[key]!r}, library {value!r}")


WORKLOADS = {w.name: w for w in (Ladder, Symmetric, Characters, Cyclotomic, Cli)}


# -- calibration -------------------------------------------------------------------


def calibrate(t) -> None:
    """One small call into each traced function, under case id "calibration".

    Traced runs end with this pass so that every layer metric is a measured,
    non-zero time or count on every workload, including layers the workload
    never reaches.
    """
    t.case_id = "calibration"
    t.counting = True
    s3 = t.call("grouptheory.group_from_permutations", gt.group_from_permutations,
                [(1, 0, 2), (1, 2, 0)])
    t.call("smallgroups.group_catalog", smallgroups.group_catalog, 4)
    t.call("grouptheory.subgroup_conjugacy_reps", gt.subgroup_conjugacy_reps, s3)
    t.call("grouptheory.count_commuting_tuples", gt.count_commuting_tuples, s3, 2)
    x = t.call("groupoidstack.gset_from_generator_action", gs.gset_from_generator_action,
               s3, [list(s3.perms[g]) for g in s3.generators])
    level1 = t.call("groupoidstack.iterated_inertia", gs.iterated_inertia, x, 1)
    nested = t.call("groupoidstack.inertia", gs.inertia, x)
    t.call("groupoidstack.flattening_bijection", gs.flattening_bijection, nested, level1)
    t.count("groupoidstack.points_built", nested.size + level1.size)
    t.call("eulerlab.chi_top_gset", el.chi_top_gset, level1)
    orb = t.call("eulerlab.chi_m", el.chi_m, x, 2)
    t.count("eulerlab.tuples_counted", int(orb * s3.order))
    t.call("eulerlab.ladder_check", el.ladder_check, x, 0)
    matrix = t.call("chartheory.devissage_matrix", ct.devissage_matrix, x)
    t.call("exactlinalg.exact_rank", xl.exact_rank, matrix)
    t.count("exactlinalg.entries", len(matrix) * len(matrix[0]))
    t.call("chartheory.coset_character", ct.coset_character, s3, gt.subgroup(s3, [0]))
    t.call("chartheory.pushforward_to_point", ct.pushforward_to_point, ct.structure_bundle(x))
    rep = t.call("chartheory.permutation_rep", ct.permutation_rep, x)
    t.call("chartheory.eigencomponent_dim", ct.eigencomponent_dim, rep, s3.generators[1],
           cn.root_of_unity(3, 1))
    t.call("cyclonum.stacky_todd_sum", cn.stacky_todd_sum, 5, 2)
    a, b = cn.root_of_unity(5, 1), cn.root_of_unity(3, 1) + 2
    t.call("cyclonum.add", operator.add, a, b)
    product = t.call("cyclonum.mul", operator.mul, a, b)
    t.peak("cyclonum.max_conductor", product.conductor)
    t.call("cyclonum.div", operator.truediv, a, b)
    workdir = OUT / "calibration"
    workdir.mkdir(parents=True, exist_ok=True)
    t.begin_case("calibration", "calibration_cli")
    try:
        report, _ = run_cli(t, ("inertia", "--gset", "s3-natural"), workdir)
        t.count("cli.report_bytes", len(report))
    finally:
        t.end_case()
