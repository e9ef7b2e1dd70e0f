"""Entropy rate estimation for state sequences via shortest-unseen-substring lengths.

For a sequence s of length n, position i (1-based) gets the length of the
shortest substring starting at i that never occurs inside the prefix
s[1..i-1]. When every substring that fits in the remaining tail already
occurs, the length is tail+1 (the unseen substring would extend one past the
end). The entropy rate estimate is log2(n) divided by the mean of these
lengths; it converges to the true entropy rate of a stationary source and, in
bits, plugs directly into the Fano-style predictability bound (the estimator
of Kontoyiannis et al., IEEE Trans. IT 1998).

Two implementations with identical output. ``match_lengths`` is the
reference: it scans candidate occurrence positions directly, in Python.
``match_lengths_fast`` computes every position at once with numpy in
O(n log n) time and memory: each length is one more than the longest previous
non-overlapping factor (Crochemore & Tischler, IPL 2011), read off a suffix
array built by prefix doubling (Manber & Myers, SIAM J. Comput. 1993), its lcp
array, and binary lifting over the two trees of nearest earlier suffixes.
No step loops in Python over positions; the loops run over doubling rounds
and powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantize import state_array

_SHORT_DESCENT = 4  # levels every rank descends first; the few longer runs descend again with all


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy rate estimate for one state sequence."""

    s_est: float  # bits per symbol
    mean_match_length: float
    n: int
    match_length_values: np.ndarray | None = None  # per-position diagnostic

    @property
    def s_est_nats(self) -> float:
        """The same estimate with a natural-log numerator."""
        return math.log(self.n) / self.mean_match_length


def match_lengths(states) -> np.ndarray:
    """Shortest-unseen-substring length at every position (reference implementation).

    For each start position the set of candidate occurrence positions in the
    prefix is refined one extension character at a time until it empties.
    """
    s = state_array(states)
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")
    lam = np.empty(n, dtype=np.int64)
    lam[0] = 1
    lst = s.tolist()
    for i in range(1, n):
        tail = n - i
        # candidate start positions of a length-1 occurrence inside s[:i]
        occ = np.flatnonzero(s[:i] == lst[i]).tolist()
        if not occ:
            lam[i] = 1
            continue
        result = tail + 1
        for k in range(2, tail + 1):
            last = i + k - 1
            cut = i - k
            occ = [j for j in occ if j <= cut and lst[j + k - 1] == lst[last]]
            if not occ:
                result = k
                break
        lam[i] = result
    return lam


def match_lengths_fast(states) -> np.ndarray:
    """Same contract as ``match_lengths``, for every position at once in O(n log n).

    The length at i is one more than the longest previous non-overlapping
    factor, LPnF[i] = max over j < i of min(lcp(i, j), i - j): the longest
    substring at i that also starts at some j < i and ends by i. The steps:

    1. Suffix array by prefix doubling, keeping each round's rank table.
    2. The lcp of suffixes adjacent in it, lifted greedily over those tables.
    3. For each suffix, the nearest one before it and the nearest one after
       it in suffix array order that starts earlier in the text. Each choice
       links every suffix to a parent and so forms a tree; an edge carries
       the lcp of its two ends, a range minimum of the lcp array.
    4. Up a suffix's path in either tree the lcp never rises and the
       distance i - j always does, and every earlier suffix off the paths is
       dominated by one on them. Binary lifting over jump tables with path
       minima finds where distance meets lcp: LPnF is the larger of the last
       distance below the lcp and the first lcp at or below the distance.
    """
    s = state_array(states)
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")
    if n == 1:
        return np.ones(1, dtype=np.int64)
    tables, floor, width = _prefix_doubling(s)
    sa = np.empty(n, dtype=np.int32)
    sa[tables[-1]] = np.arange(n, dtype=np.int32)
    lcp = _adjacent_lcp(sa, tables, floor, width)
    del tables, floor
    sa_min, lcp_min = _sparse_min(sa), _sparse_min(lcp)
    lam = np.empty(n, dtype=np.int64)
    lam[sa] = np.maximum(_lpnf_over_tree(sa, sa_min, lcp_min, -1), _lpnf_over_tree(sa, sa_min, lcp_min, 1))
    lam += 1
    return lam


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts."""
    starts = np.empty(len(values), dtype=bool)
    starts[0] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _first_in_run(starts: np.ndarray) -> np.ndarray:
    """For each index, the index where its run starts."""
    return np.maximum.accumulate(np.where(starts, np.arange(len(starts), dtype=np.int32), np.int32(0)))


def _prefix_doubling(s: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Suffix ranks by prefix doubling (Manber & Myers, SIAM J. Comput. 1993).

    Returns ``(tables, floor, width)``. ``tables[t][p] == tables[t][q]`` for
    p != q exactly when ``s[p:p+2**t] == s[q:q+2**t]`` and both lie inside s;
    the last table holds distinct ranks, the suffix array's inverse. The
    first tables pack the symbols into int64, as many as fit (``width``);
    each later round sorts only the suffixes whose rank is still shared and
    ranks each group by the suffix array index of its first member.
    ``floor[r]`` is h when suffix array ranks r-1 and r split in the round
    that compared 2h symbols, so h <= lcp < 2h, and 0 when they split on the
    packed table, where lcp < width.
    """
    n = len(s)
    sym = np.unique(s, return_inverse=True)[1].reshape(-1).astype(np.int64) + 1  # 0 pads past the end
    bits = int(sym.max()).bit_length()
    tables = [sym]
    h = 1
    while 2 * h * bits <= 62 and h < n:
        wider = tables[-1] << (h * bits)
        wider[: n - h] |= tables[-1][h:]
        tables.append(wider)
        h *= 2
    width = h
    todo = np.argsort(tables[-1]).astype(np.int32)  # the suffixes whose rank may be shared, in key order
    key = tables[-1][todo]
    group = np.zeros(n, dtype=np.int32)  # rank before this round, in todo's order
    rank = np.empty(n, dtype=np.int32)
    tables[-1] = rank
    floor = np.zeros(n, dtype=np.int32)
    while True:
        new_key, new_group = _run_starts(key), _run_starts(group)
        split = group + (_first_in_run(new_key) - _first_in_run(new_group))
        if h > width:  # the packed table's splits keep floor 0
            floor[split[new_key & ~new_group]] = h // 2
        rank[todo] = split
        shared = ~new_key
        shared[:-1] |= ~new_key[1:]
        todo = todo[shared]
        if not len(todo):
            return tables, floor, width
        # (rank of the first h symbols, rank of the next h) as one int64; past the end ranks lowest
        key = rank[todo].astype(np.int64) * (n + 1)
        inside = todo < n - h
        key[inside] += rank[todo[inside] + h] + 1
        order = np.argsort(key)
        todo, key = todo[order], key[order]
        group = rank[todo]
        rank = rank.copy()
        tables.append(rank)
        h *= 2


def _adjacent_lcp(sa: np.ndarray, tables: list[np.ndarray], floor: np.ndarray, width: int) -> np.ndarray:
    """lcp[r] = lcp of the suffixes at suffix array ranks r and r+1, from the equality tables.

    Greedy over the tables, largest length first: a pair gains 2**t while
    its next 2**t symbols agree. Each pair lifts only below its split bound.
    """
    n = len(sa)
    a, b = sa[:-1], sa[1:]
    lcp = floor[1:].copy()
    bound = np.where(lcp > 0, lcp, np.int32(width))
    for t in range(len(tables) - 2, -1, -1):
        sel = np.flatnonzero(bound > (1 << t))
        ia = a[sel] + lcp[sel]
        ib = b[sel] + lcp[sel]
        ok = (ia < n) & (ib < n)
        np.minimum(ia, n - 1, out=ia)
        np.minimum(ib, n - 1, out=ib)
        ok &= tables[t][ia] == tables[t][ib]
        lcp[sel] += ok.astype(np.int32) << t
    return lcp


def _sparse_min(a: np.ndarray) -> np.ndarray:
    """table[t, r] = min(a[r : r + 2**t]); past the end a shorter window."""
    n = len(a)
    table = np.empty((max(1, n.bit_length()), n), dtype=a.dtype)
    table[0] = a
    for t in range(1, len(table)):
        h = 1 << (t - 1)
        np.minimum(table[t - 1][:-h], table[t - 1][h:], out=table[t][:-h])
        table[t][-h:] = table[t - 1][-h:]
    return table


def _larger_run(sa: np.ndarray, sa_min: np.ndarray, nodes: np.ndarray, levels: int, side: int) -> np.ndarray:
    """How many ranks next to each node on one side hold later text positions, up to 2**levels - 1.

    A descent over the sparse min table: a block of 2**t ranks is passed
    while its smallest position is later than the node's.
    """
    n = len(sa)
    mine = sa[nodes]
    run = np.zeros(len(nodes), dtype=np.int32)
    for t in range(levels - 1, -1, -1):
        w = 1 << t
        if side < 0:
            start = nodes - run - w
            ok = start >= 0
            block = sa_min[t][np.maximum(start, 0)]
        else:
            start = nodes + run + 1
            ok = start + w <= n
            block = sa_min[t][np.minimum(start, n - w)]
        run += np.where(ok & (block > mine), np.int32(w), np.int32(0))
    return run


def _lpnf_over_tree(sa: np.ndarray, sa_min: np.ndarray, lcp_min: np.ndarray, side: int) -> np.ndarray:
    """max of min(lcp(i, j), i - j) over the j up i's path in one tree, per suffix array rank.

    A node's parent is the nearest rank on ``side`` (-1 left, 1 right) whose
    text position is earlier. An earlier position on that side but off the
    path lies, in rank order, between two path nodes; against the one nearer
    i it has no larger lcp and a smaller distance, so it never wins.
    """
    n = len(sa)
    ranks = np.arange(n, dtype=np.int32)
    levels = len(sa_min)
    short = min(_SHORT_DESCENT, levels)
    run = _larger_run(sa, sa_min, ranks, short, side)
    if short < levels:  # redo the few runs that may be longer with every level
        beyond = ranks + side * (run + 1)
        longer = np.flatnonzero((run == (1 << short) - 1) & (beyond >= 0) & (beyond < n))
        longer = longer[sa[beyond[longer]] > sa[longer]].astype(np.int32)
        run[longer] = _larger_run(sa, sa_min, longer, levels, side)
    parent = ranks + side * (run + 1)
    root = (parent < 0) | (parent >= n)
    parent[root] = 0
    # lcp(node, parent): the min of the adjacent lcps between them
    lo = np.where(root, 0, parent if side < 0 else ranks)
    span = np.where(root, 1, run + 1)
    t = np.frexp(span.astype(np.float64))[1] - 1
    weight = np.minimum(lcp_min[t, lo], lcp_min[t, lo + span - (1 << t)])
    weight[root] = 0
    # A node climbs when its parent's distance is below their lcp; else the answer is that lcp.
    # Climbing from i past an ancestor p to p's parent q needs i - q below lcp(i, q), hence
    # p - q below lcp(p, q): p climbs too. So paths run through climbing nodes only.
    climbs = ~root & ((sa - sa[parent]) < weight)
    best = np.where(climbs, 0, weight)
    start = np.flatnonzero(climbs)
    if not len(start):
        return best
    # jump tables over the climbing nodes and the parents they stop at; index k is a root
    nodes = np.union1d(start, parent[start])
    k = len(nodes)
    live = climbs[nodes]
    up = [np.full(k + 1, k, dtype=np.int32)]
    low = [np.zeros(k + 1, dtype=np.int32)]  # path minimum of the edge weights
    up[0][:k][live] = np.searchsorted(nodes, parent[nodes[live]])
    low[0][:k][live] = weight[nodes[live]]
    at = np.searchsorted(nodes, start).astype(np.int32)
    while (up[-1][at] != k).any():
        u, m = up[-1], low[-1]
        up.append(u[u])
        low.append(np.minimum(m, m[u]))
    pos = np.append(sa[nodes], np.int32(-1))
    i = sa[start]
    # binary lifting to the last ancestor whose distance is below the path's lcp
    path_lcp = np.full(len(start), np.iinfo(np.int32).max, dtype=np.int32)
    for t in range(len(up) - 1, -1, -1):
        up_lcp = np.minimum(path_lcp, low[t][at])
        go = (i - pos[up[t][at]]) < up_lcp
        at = np.where(go, up[t][at], at)
        path_lcp = np.where(go, up_lcp, path_lcp)
    # the last distance below the lcp, or the first lcp at or below the distance
    best[start] = np.maximum(i - pos[at], np.minimum(path_lcp, weight[nodes[at]]))
    return best


def estimate_entropy(states, keep_match_lengths: bool = False) -> EntropyEstimate:
    """Entropy rate estimate in bits per symbol: log2(n) / mean match length."""
    s = state_array(states)
    n = len(s)
    if n < 2:
        raise ValueError(f"need at least 2 observations to estimate entropy, got {n}")
    lam = match_lengths_fast(s)
    mean = float(lam.mean())
    return EntropyEstimate(
        s_est=math.log2(n) / mean,
        mean_match_length=mean,
        n=n,
        match_length_values=lam if keep_match_lengths else None,
    )
