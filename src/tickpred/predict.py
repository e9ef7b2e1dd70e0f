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

import math
from dataclasses import dataclass

import numpy as np

from .quantize import state_array

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


# Steps whose margin gates one vectorised pass checks, in ``_sweep`` and in
# each round of ``train_together``. Day-one training fires 0.023-0.041 gates
# per step on the 12 ``market_cold`` units (seed 1), so most windows end at a
# fire. An earlier finding that 16 to 128 train equally fast was measured on
# one unit. On those 12 units 32 beat 16: ``train`` alone took 610 ms against
# 823, two lockstep batches of 6 took 328 against 397, and at 36 units per
# batch 16, 24 and 32 were even (medians on a 2-core host).
GATE_WINDOW = 32


def _sq_lengths(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared length along the last axis, written into ``out`` when given.
    Prediction, the margin gates and ``run_online`` all measure distance with
    this one expression, so that a gate reads the same bits from any of them."""
    return np.einsum("...k,...k->...", d, d, out=out)


def _fire(zs: np.ndarray, zc: np.ndarray, c: int, i: int, j: int, d: np.ndarray, step: float) -> None:
    """One fired step on context row c, positive row i and negative row j;
    ``d`` holds context minus positive and context minus negative from before it."""
    move = zs[i] - zs[j]
    zs[i] += step * d[0]
    zs[j] -= step * d[1]
    zc[c] += step * move


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

    ``predict`` and ``update`` take one tick each. ``run_online`` runs the
    online phase over a whole sequence with the same result, bit for bit and
    draw for draw, from one distance pass per tick. Both need each context's
    members registered before it is first seen: train on day one first.
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
        if not (math.isfinite(alpha0) and alpha0 >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {alpha0}")
        if not math.isfinite(margin):
            raise ValueError(f"margin must be finite, got {margin}")
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
        self.state_rows: dict[int, int] = {}  # in row order: a state's row is the count registered before it
        self.context_rows: dict[Context, int] = {}
        self.gate_checks = 0
        self.gate_fires = 0

    # -- registry ----------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.state_rows)

    def _ensure_state(self, state: int) -> int:
        row = self.state_rows.get(state)
        if row is None:
            row = self._zs.append(self.rng.uniform(-0.5, 0.5, self.dim))
            self.state_rows[state] = row
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
            sq = _sq_lengths(d)
            held = sq[:, 1] - sq[:, 0] >= margin
            f = int(held.argmin())
            if held[f]:
                checks += len(c)
                p += len(c)
                continue
            checks += f + 1
            fires += 1
            p += f + 1
            _fire(zs, zc, c[f], *ij[f], d[f], step)
        self.gate_checks += checks
        self.gate_fires += fires

    def _register(self, states) -> tuple[np.ndarray, np.ndarray]:
        """Register the states of a training sequence, then its contexts; the context row and positive
        row of each training step, ``negatives_per_step`` steps per transition."""
        seq = state_array(states).tolist()
        if len(seq) < 3:
            raise ValueError(f"need at least 3 states to train, got {len(seq)}")
        for s in seq:
            self._ensure_state(s)
        k = self.negatives_per_step
        ctx = np.repeat([self._ensure_context(c) for c in zip(seq[:-2], seq[1:-1])], k)
        pos = np.repeat([self.state_rows[s] for s in seq[2:]], k)
        return ctx, pos

    def _epoch_rate(self, epoch: int) -> float:
        return self.alpha0 * (1.0 - epoch / self.epochs)

    def train(self, states) -> "DiffusionKernelModel":
        ctx, pos = self._register(states)
        for epoch in range(self.epochs):
            self._sweep(ctx, pos, self._epoch_rate(epoch))
        return self

    def update(self, context: Context, actual: int) -> None:
        context = (int(context[0]), int(context[1]))
        actual = int(actual)
        pos_row = self._ensure_state(actual)
        ctx_row = self._ensure_context(context)
        k = self.negatives_per_step
        self._sweep(np.full(k, ctx_row), np.full(k, pos_row), self._online_rate)

    @property
    def _online_rate(self) -> float:
        return self.alpha0 / 10.0

    def run_online(self, states, start: int) -> np.ndarray:
        """``predict`` then ``update`` on every tick from ``start`` on, with the
        tick's context the two states before it; the predicted states.

        One row of distances from the context to every state, kept in buffers
        that a run of ticks reuses, gives the prediction and also answers the
        update's gates, which move nothing until one fires; after a fire the
        row is computed again. The negatives of a run of ticks come from one
        draw, which numpy streams exactly as one draw per tick. The first sight
        of a state registers a vector drawn from the generator, so its tick
        cuts the run and goes through ``predict`` and ``update`` themselves,
        keeping the draws in order; the cuts depend only on the sequence and
        are found before the loop. Each context needs a row or both members
        registered, as ``predict`` does, which ``train(states[:start])`` gives;
        otherwise ValueError names the missing state before anything changes.
        """
        seq = state_array(states).tolist()
        if not 2 <= start <= len(seq):
            raise ValueError(f"online start {start} is outside 2..{len(seq)}")
        known = set(self.state_rows)
        cuts = []
        for t in range(start, len(seq)):
            context, s = (seq[t - 2], seq[t - 1]), seq[t]
            if context not in self.context_rows and not (context[0] in known and context[1] in known):
                raise _unanchorable(context, known)
            if s not in known:
                cuts.append(t)
                known.add(s)
        predicted = np.empty(len(seq) - start, dtype=np.int64)
        t = start
        for cut in [*cuts, len(seq)]:
            self._fused_run(seq, t, cut, predicted[t - start : cut - start])
            if cut < len(seq):
                context = (seq[cut - 2], seq[cut - 1])
                predicted[cut - start] = self.predict(context)
                self.update(context, seq[cut])
            t = cut + 1
        return predicted

    def _fused_run(self, seq: list[int], t0: int, t1: int, out: np.ndarray) -> None:
        """Ticks t0..t1-1 of ``run_online``, none of which registers a drawn vector.

        The run works on a copy of the state table in state-id order, written
        back at its end, so the first minimum of a distance row is the
        prediction with ties going to the smallest id. Each tick writes its
        context minus every state into one buffer and the squared lengths of
        the buffer's rows into one distance row, and reads the distances its
        gates compare once, as Python floats. A fire steps the context, the
        positive and the negative in place from the buffer's rows, the bits of
        ``zc[c] - zs[[i, j]]``; the buffer and the row are then computed again,
        or, after the tick's last gate, at the next tick. A tick whose context
        is the one the buffer holds, with no fire since, reuses the row.
        """
        if t0 >= t1:
            return
        n, k = self._zs.n, self.negatives_per_step
        margin, step = float(self.margin), 2.0 * self._online_rate
        ids, rows = sorted(self.state_rows), self.state_rows
        order = np.argsort(list(rows))  # the registration row of each id-order row
        zs = self._zs.view()[order]
        at = np.empty(n, dtype=np.int64)  # the id-order row of each registration row
        at[order] = np.arange(n)
        gated = n >= 2 and k > 0  # as in _sweep, which draws nothing otherwise
        if gated:  # the id-order rows of each tick's positive, then of its negatives
            pos = np.array([rows[s] for s in seq[t0:t1]])
            neg = self.rng.integers(0, n - 1, size=(t1 - t0) * k).reshape(-1, k)
            neg += neg >= pos[:, None]
            gates = at[np.concatenate((pos[:, None], neg), axis=1)]
        buf, dist = np.empty((n, self.dim)), np.empty(n)
        contexts, zc = self.context_rows, self._zc.data
        fires = 0
        held = -1  # the context row whose distances buf and dist hold; -1 when a fire has moved a row since
        for r in range(t1 - t0):
            t = t0 + r
            context = (seq[t - 2], seq[t - 1])
            c = contexts.get(context)
            if c is None:  # anchored at the midpoint of its members, as in _anchored
                c = self._ensure_context(context, 0.5 * (zs[at[rows[context[0]]]] + zs[at[rows[context[1]]]]))
                zc = self._zc.data
            if c != held:
                np.subtract(zc[c], zs, out=buf)
                _sq_lengths(buf, out=dist)
                held = c
            nearest = dist.argmin()
            if dist[nearest] != dist[nearest]:  # argmin's first NaN, where predict raises too
                raise ValueError(f"a distance is NaN at tick {t}: the embeddings overflowed")
            out[r] = ids[nearest]
            if not gated:
                continue
            g = gates[r]
            d = dist.take(g).tolist()
            for q in range(1, k + 1):
                if d[q] - d[0] >= margin:
                    continue
                fires += 1
                i, j = int(g[0]), int(g[q])
                _fire(zs, zc, c, i, j, (buf[i], buf[j]), step)
                if q < k:
                    np.subtract(zc[c], zs, out=buf)
                    _sq_lengths(buf, out=dist)
                    d = dist.take(g).tolist()
                else:
                    held = -1
        self._zs.data[order] = zs
        if gated:
            self.gate_checks += (t1 - t0) * k  # a gate that holds and a gate that fires are each checked once
            self.gate_fires += fires

    # -- prediction --------------------------------------------------------

    def _anchored(self, context: Context) -> int:
        """The context's row; an unseen context is registered at the midpoint
        of its members, or refused, unchanged, when a member is not registered."""
        row = self.context_rows.get(context)
        if row is None:
            a = self.state_rows.get(context[0])
            b = self.state_rows.get(context[1])
            if a is None or b is None:
                raise _unanchorable(context, self.state_rows)
            row = self._ensure_context(context, 0.5 * (self._zs.data[a] + self._zs.data[b]))
        return row

    def predict(self, context: Context) -> int:
        """The state nearest the context, the smallest id on ties; an unseen context is anchored at the
        midpoint of its members, or refused by a ValueError naming the one not registered, changing nothing."""
        if not self.state_rows:
            raise ValueError("model has no state embeddings")
        row = self._anchored((int(context[0]), int(context[1])))  # before reading the table it may grow
        dist = _sq_lengths(self._zc.data[row] - self._zs.view())
        tied = (dist == dist.min()).nonzero()[0]  # rows, in registration order
        if len(tied) == 0:  # the minimum is NaN, as run_online refuses it
            raise ValueError("a distance is NaN: the embeddings overflowed")
        ids = list(self.state_rows)  # the state of each row
        return min(ids[r] for r in tied)


def _unanchorable(context: Context, known) -> ValueError:
    """The error for a context that has no row and a member not in ``known``, the first one named."""
    missing = next(s for s in context if s not in known)
    return ValueError(f"state {missing} of context {context} is not registered: train on day one first")


def train_together(models: list[DiffusionKernelModel], day_ones: list) -> None:
    """Train each model on its day one, as ``model.train(day_one)`` would, with all models in lockstep.

    Each model registers its states and contexts as ``train`` does. Then the models run their gated sweeps
    together, one epoch at a time: each draws that epoch's negatives from its own generator as ``_sweep``
    does, and each round checks the next ``GATE_WINDOW`` gates of every model still in the epoch in one
    pass and applies each model's first firing step, all in one scatter. The rows of all models sit in
    one table, so no two models share a row. Every model ends with the embeddings, counters and generator
    state that ``train`` alone gives it, bit for bit, since a row's squared length from ``_sq_lengths``
    does not depend on the rows computed with it.

    The models are distinct and share their dimension, epochs, learning rate and margin; their
    ``negatives_per_step`` may differ.
    """
    if len(models) != len(day_ones):
        raise ValueError(f"{len(models)} models and {len(day_ones)} training sequences")
    if len({id(m) for m in models}) < len(models):
        raise ValueError("a model is given twice")
    if len({(m.dim, m.epochs, m.alpha0, m.margin) for m in models}) > 1:
        raise ValueError("the models must share their dimension, epochs, learning rate and margin")
    short = [len(d) for d in map(state_array, day_ones) if len(d) < 3]
    if short:  # before any model changes
        raise ValueError(f"need at least 3 states to train, got {short[0]}")
    steps = [m._register(day_one) for m, day_one in zip(models, day_ones)]
    # a model with one state or no steps draws nothing and checks no gate, as in _sweep
    live = [(m, ctx, pos) for m, (ctx, pos) in zip(models, steps) if m._zs.n >= 2 and len(pos)]
    if not live:
        return
    lead, window = live[0][0], GATE_WINDOW
    # the table: each model's state rows then its context rows, then a zero row and a +inf row; a padding
    # step runs from the zero row to itself and to the +inf row, so its gate always holds
    sizes = np.array([[m._zs.n, m._zc.n] for m, _, _ in live])
    zs_at = np.concatenate(([0], np.cumsum(sizes.sum(axis=1))))
    table = np.empty((zs_at[-1] + 2, lead.dim))
    for (m, _, _), at, (ns, nc) in zip(live, zs_at, sizes):
        table[at : at + ns] = m._zs.view()
        table[at + ns : at + ns + nc] = m._zc.view()
    table[-2], table[-1] = 0.0, np.inf
    # the context, positive and negative row of each model's steps, then of a window of padding steps
    lengths = np.array([len(pos) for _, _, pos in live])
    first = np.concatenate(([0], np.cumsum(lengths + window)))
    rows = np.empty((3, first[-1]), dtype=np.int64)
    rows.T[:] = len(table) - 2, len(table) - 2, len(table) - 1
    for (_, ctx, pos), at, z, n in zip(live, first, zs_at, sizes[:, 0]):
        rows[0, at : at + len(pos)] = ctx + z + n
        rows[1, at : at + len(pos)] = pos + z
    fires = np.zeros(len(live), dtype=np.int64)
    for epoch in range(lead.epochs):
        for (m, _, pos), at, z in zip(live, first, zs_at):
            neg = m.rng.integers(0, m._zs.n - 1, size=len(pos))
            neg += neg >= pos
            rows[2, at : at + len(pos)] = neg + z
        step = 2.0 * lead._epoch_rate(epoch)
        fires += _lockstep_sweep(table, rows, first[:-1], first[:-1] + lengths, lead.margin, step)
    for (m, _, pos), at, (ns, nc), f in zip(live, zs_at, sizes, fires.tolist()):
        m._zs.data[:ns] = table[at : at + ns]
        m._zc.data[:nc] = table[at + ns : at + ns + nc]
        m.gate_checks += lead.epochs * len(pos)  # every step is checked once: a window stops at its first fire
        m.gate_fires += f


# the factors of a fired step's moves: the context's by step, the positive's by step, the negative's by -step
_FIRE_SIGNS = np.array([1.0, 1.0, -1.0])[:, None, None]


def _lockstep_sweep(table, rows, p, end, margin: float, step: float) -> np.ndarray:
    """One sweep of several models' gated steps, as each model's ``_sweep`` at rate ``step / 2``; the
    steps each model fired.

    Model k's steps are ``rows[:, p[k]:end[k]]``, the context, positive and negative rows of ``table``,
    and ``GATE_WINDOW`` padding steps follow them.
    """
    fires = np.zeros(len(p), dtype=np.int64)
    active = np.arange(len(p))
    offsets = np.arange(GATE_WINDOW)
    factors = _FIRE_SIGNS * step
    p = p.copy()
    while len(active):
        r = rows.take(p[:, None] + offsets, axis=1)  # (3, models, steps)
        z = table.take(r, axis=0)
        d = z[:1] - z[1:]  # context minus positive, context minus negative
        sq = _sq_lengths(d)
        held = sq[1] - sq[0] >= margin
        f = held.argmin(axis=1)
        fired = (~np.logical_and.reduce(held, axis=1)).nonzero()[0]
        p += len(offsets)
        if len(fired):
            at = f[fired]
            old = z[:, fired, at]
            move = np.concatenate(((old[1] - old[2])[None], d[:, fired, at]))
            move *= factors
            old += move
            table[r[:, fired, at]] = old
            fires[active[fired]] += 1
            p[fired] += at + 1 - len(offsets)
        going = p < end
        if not going.all():
            p, end, active = p[going], end[going], active[going]
    return fires


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


def _mode_before(key: np.ndarray, nxt: np.ndarray, n_ids: int, rows: np.ndarray) -> np.ndarray:
    """``_running_mode(key, nxt, n_ids)[rows]`` for keys in [0, n_ids), without a running mode at every row.

    The (key, nxt) codes are sorted once into blocks of equal code, each in time order; a key's blocks
    are its next states. A query row counts its earlier rows in each block of its key with one
    ``searchsorted``, over the block index times ``len(key) + 1`` plus the row, which stays below 2**63
    for up to 2**31 rows. Its mode is the first maximum of ``count * n_ids + (n_ids - 1 - nxt)`` over
    those blocks, or -1 when every count is 0. Where those visits would outnumber the rows (many query
    rows whose keys have many next states), it returns ``_running_mode``'s answer instead, so time and
    memory stay linear in the rows, past two sorts.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        return rows
    m = len(key)
    code = np.asarray(key, dtype=np.int64) * n_ids + nxt
    order = _stable_order(code)  # rows by (key, nxt, time)
    new = np.diff(code[order], prepend=-1) != 0  # first row of its block
    starts = np.flatnonzero(new)
    degree = np.bincount(key[order[starts]], minlength=n_ids)  # blocks, so next states, of each key
    asked = key[rows]
    size = degree[asked]  # at least 1: the row's own block
    visits = size.sum()
    if visits > m:
        return _running_mode(key, nxt, n_ids)[rows]
    lo = (np.cumsum(degree) - degree)[asked]  # a query row's key owns blocks lo..lo+size-1
    before = np.cumsum(new, dtype=np.int64) * (m + 1) + order  # increasing: by block, then by row
    first = np.cumsum(size) - size
    b = np.arange(visits, dtype=np.int64) + np.repeat(lo - first, size)
    count = np.searchsorted(before, (b + 1) * (m + 1) + np.repeat(rows, size)) - starts[b]
    best = np.maximum.reduceat(count * n_ids + (n_ids - 1 - nxt[order[starts[b]]]), first)
    return np.where(best >= n_ids, n_ids - 1 - best % n_ids, -1)


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
    randomness from one generator seeded here, and its online phase is
    ``DiffusionKernelModel.run_online``. The Markov chain takes at most
    2**31 states, so that ``_running_mode``'s codes fit in int64.
    """
    kind = model_kind.lower()
    if kind not in ("mc", "dk"):
        raise ValueError(f"unknown model kind {model_kind!r} (expected 'mc' or 'dk')")
    seq = state_array(states)
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
        mode = _running_mode(prev2 * n + prev1, nxt, n)[start - 2 :]  # the pair context's
        for key in (prev1, np.zeros_like(prev1)):  # where it is unseen, the last state's, then any state's
            unseen = np.flatnonzero(mode < 0)
            mode[unseen] = _mode_before(key, nxt, n, unseen + (start - 2))
        predicted = ids[mode]
    else:
        model = DiffusionKernelModel(seed=seed, **(dk_params or {})).train(seq[:start])
        predicted = model.run_online(seq, start)
    return PredictionTrace(
        stock_code=stock_code,
        model=kind,
        predicted=predicted,
        actual=seq[start:].copy(),
        start_index=start,
    )
