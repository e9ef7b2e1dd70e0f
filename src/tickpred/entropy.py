"""Entropy rate estimation for state sequences via shortest-unseen-substring lengths.

For a sequence s of length n, position i (1-based) gets the length of the
shortest substring starting at i that never occurs inside the prefix
s[1..i-1]. When every substring that fits in the remaining tail already
occurs, the length is tail+1 (the unseen substring would extend one past the
end). The entropy rate estimate is log2(n) divided by the mean of these
lengths; it converges to the true entropy rate of a stationary source and, in
bits, plugs directly into the Fano-style predictability bound.

Two implementations with identical output: ``match_lengths`` scans candidate
occurrence positions directly, ``match_lengths_fast`` walks an online
substring index and runs in near-linear time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _as_state_array(states) -> np.ndarray:
    arr = getattr(states, "states", states)
    return np.asarray(arr, dtype=np.int64)


def match_lengths(states) -> np.ndarray:
    """Shortest-unseen-substring length at every position (reference implementation).

    For each start position the set of candidate occurrence positions in the
    prefix is refined one extension character at a time until it empties.
    """
    s = _as_state_array(states)
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
    """Same contract as ``match_lengths`` in sub-quadratic expected time.

    Builds a suffix automaton of the whole sequence that records the earliest
    end position of each state's substrings (a clone keeps that of the state
    it copies: cloning adds only the current, later end position to its set),
    then sweeps a matching window across the sequence. A substring starting
    at i lies entirely inside the prefix s[:i] exactly when its earliest end
    position is < i, so the sweep extends while that holds and inherits the
    match across window shifts via suffix links, which keeps the total work
    near linear.
    """
    s = _as_state_array(states).tolist()
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")

    # -- build the automaton over the full sequence ------------------------
    length = [0]
    link = [-1]
    trans: list[dict[int, int]] = [{}]
    first_end = [-1]  # earliest end position of each state's substrings
    last = 0
    for pos, c in enumerate(s):
        cur = len(length)
        length.append(length[last] + 1)
        link.append(-1)
        trans.append({})
        first_end.append(pos)
        v = last
        while v != -1 and c not in trans[v]:
            trans[v][c] = cur
            v = link[v]
        if v == -1:
            link[cur] = 0
        else:
            q = trans[v][c]
            if length[q] == length[v] + 1:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[v] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                first_end.append(first_end[q])
                while v != -1 and trans[v].get(c) == q:
                    trans[v][c] = clone
                    v = link[v]
                link[q] = clone
                link[cur] = clone
        last = cur

    # -- sweep ---------------------------------------------------------------
    lam = np.empty(n, dtype=np.int64)
    v = 0
    l = 0
    for i in range(n):
        while i + l < n:
            u = trans[v].get(s[i + l])
            if u is None or first_end[u] >= i:
                break
            v = u
            l += 1
        lam[i] = l + 1
        if l > 0:
            l -= 1
            if l == 0:
                v = 0
            else:
                while v != 0 and length[link[v]] >= l:
                    v = link[v]
    return lam


def estimate_entropy(states, keep_match_lengths: bool = False) -> EntropyEstimate:
    """Entropy rate estimate in bits per symbol: log2(n) / mean match length."""
    s = _as_state_array(states)
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
