#!/usr/bin/env python3
"""Exact E_max of fully adaptive minimal routing on multiple linear placements.

Evaluates Definition 4 for the adaptive router pair by pair, as the
corridor walk of src/load/complete_exchange.cpp does: a pair with offset D
spreads one unit over its minimal paths, so the corridor link from node u
along dimension i carries paths_to(u) * paths_from(u + e_i) / paths(D) of
it, where each count is a multinomial of the remaining steps; a tied
dimension (k even, |D_i| = k/2) commits each direction with weight 1/2.
Everything is summed as exact Python integers and Fractions.

Two symmetries of T_k^d and P = {x : sum(x) mod k < t} shorten the sum:
translations by L_0 = {x : sum(x) = 0 mod k} (one source per residue class
of P) and permutations of the coordinates (one offset per multiset of
coordinates, weighted by its number of orderings; every dimension then
carries the same loads, so E(dim, dir, label) is the total over dimensions
divided by d).

Usage:
  tools/adaptive_exact.py                 print the analyze grid
                                          (d = 2..4, k = 2..12, t = 1..3,
                                          t <= k) as C++ initializers
  tools/adaptive_exact.py D K T           print one key's E_max
"""

import itertools
import math
import sys
from fractions import Fraction


def orderings(values):
    """Distinct permutations of a multiset."""
    n = math.factorial(len(values))
    for v in set(values):
        n //= math.factorial(values.count(v))
    return n


def corridor_loads(offset, k):
    """{(dir, label offset mod k): load} summed over dimensions, for one
    pair with this offset; dir is 0 (positive) or 1 (negative)."""
    d = len(offset)
    length, way, ties = [], [], []
    for i, fwd in enumerate(offset):
        bwd = (k - fwd) % k
        length.append(min(fwd, bwd))
        way.append(-1 if bwd < fwd else 1)
        if fwd != 0 and fwd == bwd:
            ties.append(i)
    total = sum(length)
    fact = [math.factorial(n) for n in range(total + 1)]
    paths = fact[total]
    for n in length:
        paths //= fact[n]
    numer = {}
    for commit in itertools.product((1, -1), repeat=len(ties)):
        sign = list(way)
        for i, s in zip(ties, commit):
            sign[i] = s
        for pos in itertools.product(*(range(n + 1) for n in length)):
            steps = sum(pos)
            to = fact[steps]
            for p in pos:
                to //= fact[p]
            label = sum(s * p for s, p in zip(sign, pos)) % k
            for i in range(d):
                if pos[i] == length[i]:
                    continue
                rest = [n - p for n, p in zip(length, pos)]
                rest[i] -= 1
                frm = fact[total - steps - 1]
                for r in rest:
                    frm //= fact[r]
                key = (0 if sign[i] > 0 else 1, label)
                numer[key] = numer.get(key, 0) + to * frm
    den = paths << len(ties)
    return {key: Fraction(n, den) for key, n in numer.items()}


def emax(d, k, t):
    """Exact E_max of adaptive routing on multiple_linear_placement(t)."""
    classes = set(range(t))
    load = [[Fraction(0)] * k for _ in range(2)]
    for offset in itertools.combinations_with_replacement(range(k), d):
        if not any(offset):
            continue
        shift = sum(offset) % k
        sources = [c for c in classes if (c + shift) % k in classes]
        if not sources:
            continue
        weight = orderings(list(offset))
        for (direction, label), value in corridor_loads(offset, k).items():
            for c in sources:
                load[direction][(c + label) % k] += weight * value
    return max(max(row) for row in load) / d


def main(argv):
    if len(argv) == 4:
        d, k, t = (int(a) for a in argv[1:])
        e = emax(d, k, t)
        print(f"{e.numerator}/{e.denominator} = {float(e)!r}")
        return 0
    for d in range(2, 5):
        for k in range(2, 13):
            for t in range(1, min(k, 3) + 1):
                e = emax(d, k, t)
                print(f"      {{{d}, {k}, {t}, {e.numerator}, {e.denominator}}},")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
