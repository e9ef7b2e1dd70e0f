"""Online next-state predictors and the train-one-day-then-update protocol.

Both models condition on the previous two states. The Markov chain predicts
the modal continuation of the context so far, with a two-stage fallback for
unseen contexts, for all ticks at once. The diffusion-kernel model embeds
states and contexts in Euclidean space and nudges coordinates with
margin-gated steps so each context drifts toward its typical continuation;
prediction is nearest-state lookup.

The protocol trains on the first trading day, then alternates predict and
update on every later tick, so the train/test split ratio has no effect
beyond where testing starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Context = tuple[int, int]


@dataclass(frozen=True)
class PredictionTrace:
    """Aligned predicted/actual state pairs from the online test phase."""

    stock_code: str
    model: str  # "mc" or "dk"
    predicted: np.ndarray
    actual: np.ndarray
    start_index: int

    def __len__(self) -> int:
        return len(self.predicted)


def _argbest(items):
    """Key with the highest count; ties go to the smallest key."""
    best_key, best_count = None, None
    for key, count in items:
        if best_count is None or count > best_count or (count == best_count and key < best_key):
            best_key, best_count = key, count
    return best_key


# Steps whose margin gates one vectorised pass checks. About one step in 25
# fires in day-one training; below 16 the per-pass overhead dominates, and
# 16 to 128 train equally fast within the timing noise.
GATE_WINDOW = 16


class _Rows:
    """Append-only matrix of embedding rows with capacity doubling."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.data = np.empty((16, dim), dtype=np.float64)
        self.n = 0

    def append(self, vector: np.ndarray) -> int:
        if self.n == self.data.shape[0]:
            grown = np.empty((2 * self.n, self.dim), dtype=np.float64)
            grown[: self.n] = self.data
            self.data = grown
        self.data[self.n] = vector
        self.n += 1
        return self.n - 1

    def view(self) -> np.ndarray:
        return self.data[: self.n]


class DiffusionKernelModel:
    """Embedding predictor trained with margin-gated coordinate steps.

    States and ordered-pair contexts each own a coordinate vector, initialised
    uniformly in [-0.5, 0.5]^dim. For a context with positive continuation i
    and a sampled negative j, squared distances d_i and d_j from the context
    are compared; while d_j - d_i falls short of the margin, one step moves
    the positive toward the context, pushes the negative away and shifts the
    context along the positive-minus-negative direction, all scaled by twice
    the learning rate. Training sweeps the day-one prefix for a fixed number
    of epochs with a linearly decaying rate; online updates use a tenth of
    the initial rate.

    Each (context, positive) pair takes ``negatives_per_step`` steps, each
    against a negative drawn uniformly from the other registered states: a
    draw in 0..n-2 is shifted up by one at or past the positive's row (rows
    follow registration order), so the positive is never drawn and no draw
    is rejected. One block of draws covers a training epoch or an online
    update. Steps apply in order, but their gates are checked
    ``GATE_WINDOW`` steps at a time in one vectorised pass: the first step
    that fires is applied, and checking resumes right after it. Nothing
    changes before the first firing step, so every gate sees the embeddings
    it would see one step at a time. ``gate_checks`` and ``gate_fires``
    count the gates checked and fired.
    """

    def __init__(
        self,
        dim: int = 16,
        epochs: int = 20,
        alpha0: float = 0.1,
        margin: float = 1.0,
        negatives_per_step: int = 5,
        seed: int = 0,
    ) -> None:
        if dim < 2:
            raise ValueError("embedding dimension must be >= 2")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if alpha0 < 0:
            raise ValueError("learning rate must be >= 0")
        if negatives_per_step < 0:
            raise ValueError("negatives per step must be >= 0")
        self.dim = dim
        self.epochs = epochs
        self.alpha0 = alpha0
        self.margin = margin
        self.negatives_per_step = negatives_per_step
        self.rng = np.random.default_rng(seed)
        self._zs = _Rows(dim)  # state embeddings, rows in registration order
        self._zc = _Rows(dim)  # context embeddings
        self.state_rows: dict[int, int] = {}
        self.context_rows: dict[Context, int] = {}
        self._state_ids: list[int] = []  # state id of each row
        self.obs_counts: dict[int, int] = {}
        self._gate_checks = 0
        self._gate_fires = 0

    # -- registry ----------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.state_rows)

    @property
    def gate_checks(self) -> int:
        return self._gate_checks

    @property
    def gate_fires(self) -> int:
        return self._gate_fires

    def _ensure_state(self, state: int) -> int:
        row = self.state_rows.get(state)
        if row is None:
            row = self._zs.append(self.rng.uniform(-0.5, 0.5, self.dim))
            self.state_rows[state] = row
            self._state_ids.append(state)
        return row

    def _ensure_context(self, context: Context, vector: np.ndarray | None = None) -> int:
        row = self.context_rows.get(context)
        if row is None:
            if vector is None:
                vector = self.rng.uniform(-0.5, 0.5, self.dim)
            row = self._zc.append(vector)
            self.context_rows[context] = row
        return row

    def state_embedding(self, state: int) -> np.ndarray:
        return self._zs.data[self.state_rows[state]].copy()

    def context_embedding(self, context: Context) -> np.ndarray:
        return self._zc.data[self.context_rows[context]].copy()

    def set_state_embedding(self, state: int, vector) -> None:
        self._zs.data[self._ensure_state(int(state))] = np.asarray(vector, dtype=np.float64)

    def set_context_embedding(self, context: Context, vector) -> None:
        row = self._ensure_context((int(context[0]), int(context[1])))
        self._zc.data[row] = np.asarray(vector, dtype=np.float64)

    # -- learning ----------------------------------------------------------

    def _sweep(self, ctx: np.ndarray, pos: np.ndarray, rate: float) -> None:
        """Gated steps in order, at one rate: step s moves context row ctx[s],
        positive row pos[s] and a negative drawn for it here."""
        n = self._zs.n
        if n < 2 or len(pos) == 0:
            return
        pair = np.empty((len(pos), 2), dtype=np.int64)  # (positive, negative) row of each step
        pair[:, 0] = pos
        pair[:, 1] = self.rng.integers(0, n - 1, size=len(pos))
        pair[:, 1] += pair[:, 1] >= pos
        zs, zc = self._zs.data, self._zc.data
        step, margin = 2.0 * rate, self.margin
        checks = fires = p = 0
        while p < len(pos):
            c, ij = ctx[p : p + GATE_WINDOW], pair[p : p + GATE_WINDOW]
            d = zc[c][:, None, :] - zs[ij]  # context minus positive, context minus negative
            sq = np.einsum("abk,abk->ab", d, d)
            held = sq[:, 1] - sq[:, 0] >= margin
            f = int(held.argmin())
            if held[f]:
                checks += len(c)
                p += len(c)
                continue
            checks += f + 1
            fires += 1
            p += f + 1
            i, j = ij[f]
            move = zs[i] - zs[j]
            zs[i] += step * d[f, 0]
            zs[j] -= step * d[f, 1]
            zc[c[f]] += step * move
        self._gate_checks += checks
        self._gate_fires += fires

    def train(self, states) -> "DiffusionKernelModel":
        seq = np.asarray(getattr(states, "states", states), dtype=np.int64).tolist()
        if len(seq) < 3:
            raise ValueError(f"need at least 3 states to train, got {len(seq)}")
        for s in seq:
            self._ensure_state(s)
            self.obs_counts[s] = self.obs_counts.get(s, 0) + 1
        k = self.negatives_per_step
        ctx = np.repeat([self._ensure_context(c) for c in zip(seq[:-2], seq[1:-1])], k)
        pos = np.repeat([self.state_rows[s] for s in seq[2:]], k)
        for epoch in range(self.epochs):
            self._sweep(ctx, pos, self.alpha0 * (1.0 - epoch / self.epochs))
        return self

    def update(self, context: Context, actual: int) -> None:
        context = (int(context[0]), int(context[1]))
        actual = int(actual)
        pos_row = self._ensure_state(actual)
        self.obs_counts[actual] = self.obs_counts.get(actual, 0) + 1
        ctx_row = self._ensure_context(context)
        k = self.negatives_per_step
        self._sweep(np.full(k, ctx_row), np.full(k, pos_row), self.alpha0 / 10.0)

    # -- prediction --------------------------------------------------------

    def predict(self, context: Context) -> int:
        if not self.state_rows:
            raise ValueError("model has no state embeddings")
        context = (int(context[0]), int(context[1]))
        ctx_row = self.context_rows.get(context)
        if ctx_row is None:
            a = self.state_rows.get(context[0])
            b = self.state_rows.get(context[1])
            if a is None or b is None:
                # nothing to anchor the context: fall back to the global mode
                return _argbest(self.obs_counts.items())
            ctx_row = self._ensure_context(context, 0.5 * (self._zs.data[a] + self._zs.data[b]))
        zc = self._zc.data[ctx_row]
        diff = self._zs.view() - zc
        dist = np.einsum("ij,ij->i", diff, diff)
        best = dist.min()
        tied = np.flatnonzero(dist == best)
        if len(tied) == 1:
            return self._state_ids[tied[0]]
        return min(self._state_ids[r] for r in tied)


def _stable_order(values: np.ndarray) -> np.ndarray:
    # numpy's stable sort of 16-bit ints is a radix sort, several times faster than its timsort
    return np.argsort(values.astype(np.uint16) if values.max() < 1 << 16 else values, kind="stable")


def _running_mode(key: np.ndarray, nxt: np.ndarray, n_ids: int) -> np.ndarray:
    """For each row, the modal ``nxt`` among the strictly earlier rows with its key.

    Rows are in time order, keys are non-negative and ``nxt`` lies in [0,
    n_ids). Ties go to the smallest ``nxt``; -1 marks a row whose key has no
    earlier row. With count the rows so far of its (key, nxt) pair, a row's
    code is ``(count + c) * n_ids + (n_ids - 1 - nxt)``, where c, the key's
    first position plus its index, lifts every key's codes above those of the
    keys before it. So the running maximum of the codes in (key, time) order
    codes each key's mode so far. Codes stay below ``2 * len(key) * n_ids``.
    """
    m = len(key)
    rows = np.arange(m)
    order = _stable_order(key)  # rows by (key, time)
    first = np.diff(key[order], prepend=-1) != 0  # first row of its key
    group = np.cumsum(first) - 1
    x = nxt[order]
    pair = group * n_ids + x
    within = _stable_order(pair)  # positions by (key, nxt, time)
    new = np.diff(pair[within], prepend=-1) != 0  # first row of its (key, nxt) pair
    count = np.empty(m, dtype=np.int64)
    count[within] = rows + 1 - np.maximum.accumulate(np.where(new, rows, 0))
    best = np.maximum.accumulate((count + np.flatnonzero(first)[group] + group) * n_ids + (n_ids - 1 - x))
    mode = np.full(m, -1)
    mode[order[~first]] = n_ids - 1 - best[:-1][~first[1:]] % n_ids
    return mode


def run_protocol(
    states,
    day_boundaries,
    model_kind: str,
    seed: int = 0,
    dk_params: dict | None = None,
    stock_code: str = "",
) -> PredictionTrace:
    """Train on day one, then predict-then-update every tick from day two on.

    Deterministic given the seed: the diffusion-kernel model draws all its
    randomness from one generator seeded here. The Markov chain takes at
    most 2**31 states, so that its codes fit in int64.
    """
    kind = model_kind.lower()
    if kind not in ("mc", "dk"):
        raise ValueError(f"unknown model kind {model_kind!r} (expected 'mc' or 'dk')")
    seq = np.asarray(getattr(states, "states", states), dtype=np.int64)
    boundaries = list(day_boundaries)
    if len(boundaries) < 2:
        raise ValueError("protocol needs at least 2 trading days")
    start = int(boundaries[1])
    if start < 3:
        raise ValueError(f"need at least 3 states to train, got day two at {start}")
    if start > len(seq):
        raise ValueError(f"day two starts at {start}, past the {len(seq)} states")
    if kind == "mc":
        if len(seq) > 2**31:
            raise ValueError(f"the Markov chain takes at most 2**31 states, got {len(seq)}")
        ids, dense = np.unique(seq, return_inverse=True)  # dense ids keep the order of the states
        n = len(ids)
        prev2, prev1, nxt = dense[:-2], dense[1:-1], dense[2:]  # transition r happens at tick r + 2
        keys = (prev2 * n + prev1, prev1, np.zeros_like(prev1))  # pair context, last state, none
        pair, last, every = (_running_mode(k, nxt, n)[start - 2 :] for k in keys)
        predicted = ids[np.where(pair >= 0, pair, np.where(last >= 0, last, every))]
    else:
        model = DiffusionKernelModel(seed=seed, **(dk_params or {})).train(seq[:start])
        lst = seq.tolist()
        predicted = np.empty(len(lst) - start, dtype=np.int64)
        for t in range(start, len(lst)):
            context = (lst[t - 2], lst[t - 1])
            predicted[t - start] = model.predict(context)
            model.update(context, lst[t])
    return PredictionTrace(
        stock_code=stock_code,
        model=kind,
        predicted=predicted,
        actual=seq[start:].copy(),
        start_index=start,
    )
