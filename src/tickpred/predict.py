"""Online next-state predictors and the train-one-day-then-update protocol.

Both models condition on the previous two states. The Markov chain keeps
transition counts with a two-stage fallback for unseen contexts. The
diffusion-kernel model embeds states and contexts in Euclidean space and
nudges coordinates with margin-gated steps so each context drifts toward its
typical continuation; prediction is nearest-state lookup.

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


class MarkovChainModel:
    """Second-order transition-count predictor.

    Each observed transition increments one entry in each of three tables:
    pair-context counts, single-state context counts, and global next-state
    counts. Prediction is the modal continuation of the pair context, falling
    back to the single-state context and then to the global mode, with ties
    broken toward the smallest state id.
    """

    order = 2

    def __init__(self) -> None:
        self.counts2: dict[Context, dict[int, int]] = {}
        self.counts1: dict[int, dict[int, int]] = {}
        self.global_counts: dict[int, int] = {}

    def train(self, states) -> "MarkovChainModel":
        seq = np.asarray(getattr(states, "states", states), dtype=np.int64).tolist()
        if len(seq) < 3:
            raise ValueError(f"need at least 3 states to train, got {len(seq)}")
        for t in range(2, len(seq)):
            self.update((seq[t - 2], seq[t - 1]), seq[t])
        return self

    def update(self, context: Context, actual: int) -> None:
        actual = int(actual)
        row2 = self.counts2.setdefault((int(context[0]), int(context[1])), {})
        row2[actual] = row2.get(actual, 0) + 1
        row1 = self.counts1.setdefault(int(context[1]), {})
        row1[actual] = row1.get(actual, 0) + 1
        self.global_counts[actual] = self.global_counts.get(actual, 0) + 1

    def predict(self, context: Context) -> int:
        row2 = self.counts2.get((int(context[0]), int(context[1])))
        if row2:
            return _argbest(row2.items())
        row1 = self.counts1.get(int(context[1]))
        if row1:
            return _argbest(row1.items())
        if not self.global_counts:
            raise ValueError("model has no observations")
        return _argbest(self.global_counts.items())


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
        self.dim = dim
        self.epochs = epochs
        self.alpha0 = alpha0
        self.margin = margin
        self.negatives_per_step = negatives_per_step
        self.rng = np.random.default_rng(seed)
        self._zs = _Rows(dim)  # state embeddings
        self._zc = _Rows(dim)  # context embeddings
        self.state_rows: dict[int, int] = {}
        self.context_rows: dict[Context, int] = {}
        self._state_ids: list[int] = []  # registration order, drives negative sampling
        self.obs_counts: dict[int, int] = {}

    # -- registry ----------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.state_rows)

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

    def _sample_negatives(self, positive: int) -> list[int]:
        candidates = self._state_ids
        if len(candidates) < 2:
            return []
        out: list[int] = []
        while len(out) < self.negatives_per_step:
            pick = candidates[int(self.rng.integers(0, len(candidates)))]
            if pick != positive:
                out.append(pick)
        return out

    def _step(self, ctx_row: int, pos_row: int, neg_row: int, rate: float) -> None:
        zs, zc_all = self._zs.data, self._zc.data
        zc = zc_all[ctx_row]
        zi = zs[pos_row]
        zj = zs[neg_row]
        di = zc - zi
        dj = zc - zj
        if float(dj @ dj) - float(di @ di) >= self.margin:
            return
        step = 2.0 * rate
        new_zi = zi + step * di
        new_zj = zj - step * dj
        new_zc = zc + step * (zi - zj)
        zs[pos_row] = new_zi
        zs[neg_row] = new_zj
        zc_all[ctx_row] = new_zc

    def _learn_one(self, context: Context, actual: int, rate: float) -> None:
        ctx_row = self._ensure_context(context)
        pos_row = self._ensure_state(actual)
        for neg in self._sample_negatives(actual):
            self._step(ctx_row, pos_row, self.state_rows[neg], rate)

    def train(self, states) -> "DiffusionKernelModel":
        seq = np.asarray(getattr(states, "states", states), dtype=np.int64).tolist()
        if len(seq) < 3:
            raise ValueError(f"need at least 3 states to train, got {len(seq)}")
        for s in seq:
            self._ensure_state(s)
            self.obs_counts[s] = self.obs_counts.get(s, 0) + 1
        for t in range(2, len(seq)):
            self._ensure_context((seq[t - 2], seq[t - 1]))
        for epoch in range(self.epochs):
            rate = self.alpha0 * (1.0 - epoch / self.epochs)
            for t in range(2, len(seq)):
                self._learn_one((seq[t - 2], seq[t - 1]), seq[t], rate)
        return self

    def update(self, context: Context, actual: int) -> None:
        context = (int(context[0]), int(context[1]))
        actual = int(actual)
        self._ensure_state(actual)
        self.obs_counts[actual] = self.obs_counts.get(actual, 0) + 1
        self._learn_one(context, actual, self.alpha0 / 10.0)

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


def make_model(model_kind: str, seed: int = 0, dk_params: dict | None = None):
    kind = model_kind.lower()
    if kind == "mc":
        return MarkovChainModel()
    if kind == "dk":
        return DiffusionKernelModel(seed=seed, **(dk_params or {}))
    raise ValueError(f"unknown model kind {model_kind!r} (expected 'mc' or 'dk')")


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
    randomness from one generator seeded here.
    """
    seq = np.asarray(getattr(states, "states", states), dtype=np.int64)
    boundaries = list(day_boundaries)
    if len(boundaries) < 2:
        raise ValueError("protocol needs at least 2 trading days")
    start = int(boundaries[1])
    model = make_model(model_kind, seed=seed, dk_params=dk_params)
    model.train(seq[:start])
    lst = seq.tolist()
    predicted = np.empty(len(lst) - start, dtype=np.int64)
    for t in range(start, len(lst)):
        context = (lst[t - 2], lst[t - 1])
        predicted[t - start] = model.predict(context)
        model.update(context, lst[t])
    return PredictionTrace(
        stock_code=stock_code,
        model=model_kind.lower(),
        predicted=predicted,
        actual=seq[start:].copy(),
        start_index=start,
    )
