"""Shared helpers: a brute-force full-permutation oracle, rule builders and
a time-bounded child interpreter.

The oracle evolves the distribution over all n! arrangements directly and
projects it onto the tracked k-tuple, so the lumped chain can be checked
entrywise. Only usable for small n. ``untouched_law`` is a closed-form
envelope for the top and random worst-case curves at any n, and
``full_deck_chi2`` the exact chi-square distance of the random rule on the
whole deck, from its characters.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from shufflemix.deck import ShuffleKind, ShuffleRule
from shufflemix.indexing import KTupleIndexer


def make_rule(kind, n, phase=0, rows=None):
    """Build a rule by kind string; 'custom' gets a default 2-row sequence."""
    if kind == "custom":
        if rows is None:
            top_heavy = np.zeros(n)
            top_heavy[0] = 0.75
            top_heavy[1] = 0.25
            rows = (np.full(n, 1.0 / n), top_heavy)
        return ShuffleRule(ShuffleKind.CUSTOM_SEQUENCE, n, custom=rows, phase=phase)
    return ShuffleRule(kind=ShuffleKind(kind), n=n, phase=phase)


ALL_KINDS = ("top", "random", "cyclic", "custom")


def brute_force_marginals(rule, k, start, t_max):
    """k-tuple marginals of the full S_n chain at t = 0..t_max.

    ``start`` holds the 1-based positions of cards 1..k; the untracked cards
    fill the remaining positions in increasing order (the lumped chain does
    not depend on that choice). Returns an array (t_max + 1, count) over the
    indexer's tuple order.
    """
    n = rule.n
    perms = list(itertools.permutations(range(1, n + 1)))
    index_of = {p: i for i, p in enumerate(perms)}

    arrangement = [0] * n
    for card0, pos in enumerate(start):
        arrangement[pos - 1] = card0 + 1
    fill = iter(range(k + 1, n + 1))
    for p in range(n):
        if arrangement[p] == 0:
            arrangement[p] = next(fill)

    dist = np.zeros(len(perms))
    dist[index_of[tuple(arrangement)]] = 1.0

    # swap_maps[(l0, r0)] sends each arrangement to its index after swapping
    # the cards at positions l0+1 and r0+1; a transposition is an involution
    swap_maps = {}
    for l0 in range(n):
        for r0 in range(l0, n):
            if l0 == r0:
                swap_maps[(l0, r0)] = np.arange(len(perms))
                continue
            tgt = np.empty(len(perms), dtype=np.int64)
            for i, p in enumerate(perms):
                q = list(p)
                q[l0], q[r0] = q[r0], q[l0]
                tgt[i] = index_of[tuple(q)]
            swap_maps[(l0, r0)] = tgt

    indexer = KTupleIndexer(n, k)
    proj = np.empty(len(perms), dtype=np.int64)
    for i, p in enumerate(perms):
        positions = tuple(p.index(c) + 1 for c in range(1, k + 1))
        proj[i] = indexer.encode(positions)

    out = np.empty((t_max + 1, indexer.count))
    out[0] = np.bincount(proj, weights=dist, minlength=indexer.count)
    for t in range(1, t_max + 1):
        lvec = rule.left_distribution(t)
        new = np.zeros_like(dist)
        for l0 in range(n):
            if lvec[l0] == 0.0:
                continue
            for r0 in range(n):
                key = (min(l0, r0), max(l0, r0))
                new += (lvec[l0] / n) * dist[swap_maps[key]]
        dist = new
        out[t] = np.bincount(proj, weights=dist, minlength=indexer.count)
    return out


def untouched_law(n, k, r, times):
    """D(t) = 1 - (1 - u_t)^k with u_t = (1 - 1/n)^(r t), r = 1 for top and
    2 for random: the chance that some tracked card is still untouched at t,
    counting a card off position 1 for top. The exact worst-case k-card TV
    lies in [D - k/n, D] (a touched card sits nearly uniformly)."""
    untouched = (1.0 - 1.0 / n) ** (r * np.asarray(times, dtype=float))
    return 1.0 - (1.0 - untouched) ** k


def _partitions(n, largest):
    """The partitions of n into parts of at most ``largest``, parts descending."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def full_deck_chi2(n, t):
    """n! sum (p_t - 1/n!)^2 for the random rule on all n cards after t steps,
    from any start (Diaconis & Shahshahani 1981): the sum over partitions
    lambda != (n) of (f^lambda)^2 (1/n + 2 c(lambda)/n^2)^(2t). Here f^lambda
    is the hook-length count of standard tableaux, an exact int, and
    c(lambda) the sum of the contents, column minus row, of its cells. The
    eigenvalue is 1/n, the chance the hands meet, plus (n - 1)/n times a
    transposition's character ratio 2 c(lambda) / (n (n - 1))."""
    total = 0.0
    for shape in _partitions(n, n):
        if shape == (n,):
            continue
        cells = [(row, col) for row, part in enumerate(shape) for col in range(part)]
        below = [sum(part > col for part in shape) for col in range(shape[0])]
        hooks = math.prod(shape[row] - col + below[col] - row - 1 for row, col in cells)
        content = sum(col - row for row, col in cells)
        total += (math.factorial(n) // hooks) ** 2 * (1 / n + 2 * content / n**2) ** (2 * t)
    return total


def run_bounded(code: str) -> str:
    """Run ``code`` in a child interpreter that is killed after 60 s."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
