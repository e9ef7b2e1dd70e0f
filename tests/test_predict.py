import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickpred import predict
from tickpred.entropy import estimate_entropy
from tickpred.evaluate import accuracy
from tickpred.predict import DiffusionKernelModel, run_protocol, train_together
from tickpred.predictability import fano_solve
from tickpred.synthetic import markov2_entropy_rate, markov2_source


# -- Markov chain -----------------------------------------------------------


class MarkovChainModel:
    """Incremental second-order transition counts: the oracle for run_protocol's "mc".

    Each observed transition increments one entry in each of three tables:
    pair-context counts, single-state context counts, and global next-state
    counts. Prediction is the modal continuation of the pair context, falling
    back to the single-state context and then to the global mode, with ties
    broken toward the smallest state id.
    """

    def __init__(self) -> None:
        self.counts2: dict[tuple[int, int], dict[int, int]] = {}
        self.counts1: dict[int, dict[int, int]] = {}
        self.global_counts: dict[int, int] = {}

    def train(self, seq) -> "MarkovChainModel":
        seq = [int(s) for s in seq]
        if len(seq) < 3:
            raise ValueError(f"need at least 3 states to train, got {len(seq)}")
        for t in range(2, len(seq)):
            self.update((seq[t - 2], seq[t - 1]), seq[t])
        return self

    def update(self, context, actual: int) -> None:
        for table, key in ((self.counts2, tuple(context)), (self.counts1, context[1])):
            row = table.setdefault(key, {})
            row[actual] = row.get(actual, 0) + 1
        self.global_counts[actual] = self.global_counts.get(actual, 0) + 1

    def predict(self, context) -> int:
        row = self.counts2.get(tuple(context)) or self.counts1.get(context[1]) or self.global_counts
        if not row:
            raise ValueError("model has no observations")
        return min(row, key=lambda state: (-row[state], state))


def _oracle_trace(seq, split) -> np.ndarray:
    """Train the oracle on seq[:split], then predict and update every later tick."""
    model = MarkovChainModel().train(seq[:split])
    predicted = []
    for t in range(split, len(seq)):
        predicted.append(model.predict((seq[t - 2], seq[t - 1])))
        model.update((seq[t - 2], seq[t - 1]), seq[t])
    return np.asarray(predicted, dtype=np.int64)


def test_mc_train_counts_cycle():
    model = MarkovChainModel().train([1, 2, 3, 1, 2, 3, 1])
    assert model.counts2[(1, 2)][3] == 2
    assert model.counts2[(2, 3)][1] == 2


def test_mc_train_counts_constant():
    model = MarkovChainModel().train([1, 1, 1, 1])
    assert model.counts2[(1, 1)][1] == 2


def test_mc_train_rejects_short_prefix():
    with pytest.raises(ValueError, match="at least 3"):
        MarkovChainModel().train([])
    with pytest.raises(ValueError, match="at least 3"):
        MarkovChainModel().train([1, 2])


def test_mc_predict_seen_context():
    model = MarkovChainModel().train([1, 2, 3, 1, 2, 3, 1])
    assert model.predict((1, 2)) == 3


def test_mc_fallback_chain():
    model = MarkovChainModel()
    model.update((1, 2), 3)
    model.update((2, 3), 1)
    model.update((3, 1), 1)
    # context unseen, its second state unseen anywhere: global mode wins
    assert model.predict((9, 9)) == 1
    # context unseen but second state seen as an order-1 context
    assert model.predict((9, 2)) == 3


def test_mc_tie_breaks_to_smallest_id():
    model = MarkovChainModel()
    for nxt in (4, 7, 4, 7):
        model.update((0, 0), nxt)
    assert model.counts2[(0, 0)] == {4: 2, 7: 2}
    assert model.predict((0, 0)) == 4


def test_mc_update_then_predict_prefers_new_mode():
    model = MarkovChainModel().train([1, 2, 3, 1, 2, 3, 1])
    model.update((1, 2), 5)
    model.update((1, 2), 5)
    model.update((1, 2), 5)
    assert model.predict((1, 2)) == 5


def test_mc_repeated_updates_accumulate():
    model = MarkovChainModel()
    for _ in range(7):
        model.update((3, 4), 5)
    assert model.counts2[(3, 4)][5] == 7


def test_mc_tables_are_consistent_marginals():
    rng = np.random.default_rng(0)
    seq = rng.integers(0, 4, 500).tolist()
    model = MarkovChainModel().train(seq)
    total = len(seq) - 2
    assert sum(c for row in model.counts2.values() for c in row.values()) == total
    assert sum(c for row in model.counts1.values() for c in row.values()) == total
    assert sum(model.global_counts.values()) == total


@settings(max_examples=300, deadline=None)
@given(
    seq=st.lists(st.integers(0, 4), min_size=3, max_size=80),
    split=st.integers(3, 80),
    scale=st.sampled_from([1, 7, 1000, -1, -3, 2**40]),
    shift=st.integers(-50, 50),
)
def test_mc_vectorised_matches_incremental_oracle(seq, split, scale, shift):
    # small alphabets give ties and 1-state inputs; scale and shift make ids sparse or negative
    seq = [s * scale + shift for s in seq]
    split = min(split, len(seq))  # split == len(seq) leaves an empty trace
    trace = run_protocol(seq, [0, split], "mc")
    expected = _oracle_trace(seq, split)
    assert trace.predicted.dtype == np.int64
    assert trace.predicted.tobytes() == expected.tobytes()
    assert trace.actual.tobytes() == np.asarray(seq[split:], dtype=np.int64).tobytes()


@pytest.mark.parametrize("source", ["markov2", "wide"])
def test_mc_vectorised_matches_oracle_on_long_sequences(source):
    if source == "markov2":
        seq = markov2_source(n_states=12, length=6_000, seed=5)[0]
    else:  # 300 states: sort keys past 16 bits, and many fallbacks
        seq = np.random.default_rng(6).integers(0, 300, 6_000)
    trace = run_protocol(seq, [0, 500], "mc")
    assert trace.predicted.tobytes() == _oracle_trace(seq.tolist(), 500).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 299)), min_size=1, max_size=60),
    n_ids=st.sampled_from([1, 2, 5, 300]),
    picks=st.lists(st.integers(0, 10**6), max_size=12),
)
@example(pairs=[(0, 0)], n_ids=1, picks=[0])  # query row 0: no earlier row
@example(pairs=[(299, 7), (1, 2), (299, 7), (9, 1), (299, 3)], n_ids=300, picks=[1, 3, 2, 4, 0])
# 4 query rows of a key with 5 next states: 20 visits over 5 rows, so _mode_before takes the running maximum
@example(pairs=[(0, 4), (0, 3), (0, 2), (0, 1), (0, 0)], n_ids=300, picks=[4, 3, 2, 1])
def test_mode_before_matches_running_mode(pairs, n_ids, picks):
    # 300 ids put the (key, next) codes past 16 bits, off the radix sort; keys 1 and 9 above have one row each
    key, nxt = (np.array(column, dtype=np.int64) % n_ids for column in zip(*pairs))
    rows = np.array([p % len(key) for p in picks], dtype=np.int64)
    expected = predict._running_mode(key, nxt, n_ids)[rows]
    assert predict._mode_before(key, nxt, n_ids, rows).tolist() == expected.tolist()
    expected = predict._running_mode(np.zeros_like(key), nxt, n_ids)[rows]
    assert predict._global_mode_before(nxt, n_ids, rows).tolist() == expected.tolist()


def test_mc_falls_back_to_the_last_state_then_to_any_on_day_two():
    # day two brings states 2, 5, 6 and 7 and pair contexts day one never saw
    seq = [0, 1, 0, 1, 0, 1, 0, 2, 0, 5, 1, 6, 7, 6, 7, 1, 0]
    with (
        mock.patch.object(predict, "_mode_before", wraps=predict._mode_before) as last,
        mock.patch.object(predict, "_global_mode_before", wraps=predict._global_mode_before) as every,
    ):
        trace = run_protocol(seq, [0, 6], "mc")
    last_rows, every_rows = last.call_args.args[3], every.call_args.args[2]
    assert len(every_rows) and set(every_rows) < set(last_rows)  # some rows fall through both
    assert trace.predicted.tobytes() == _oracle_trace(seq, 6).tobytes()


@pytest.mark.parametrize("shape", ["trend", "star"])
def test_mc_fallbacks_stay_linear_when_many_states_are_new_online(shape):
    # trend: a drift through ~1.2k levels, so each new high is a new last state and falls back to the
    # mode over all earlier rows, which have nearly every level as next state. star: 0 between ~1.5k
    # new states, so each (k, 0) is a new pair context and falls back to state 0, which has ~1.5k next
    # states. tracemalloc (numpy 2.4) read peaks of 0.3 and 0.5 MB here. Visiting every next state of
    # the key at every such row read 55 MB (trend) and 90 MB (star).
    if shape == "trend":
        seq = np.cumsum(np.where(np.random.default_rng(7).random(3_000) < 0.7, 1, -1))
    else:
        seq = np.zeros(3_000, dtype=np.int64)
        seq[1::2] = np.arange(1, 1_501)
    tracemalloc.start()
    try:
        trace = run_protocol(seq, [0, 10], "mc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert trace.predicted.tobytes() == _oracle_trace(seq.tolist(), 10).tobytes()


def test_mc_rejects_sequences_past_its_int64_limit():
    # a zero-stride view: 2**31 + 1 states without the memory
    seq = np.broadcast_to(np.int64(0), (2**31 + 1,))
    with pytest.raises(ValueError, match="at most 2\\*\\*31 states"):
        run_protocol(seq, [0, 3], "mc")


def test_mc_perfect_on_deterministic_cycle():
    cycle = [1, 2, 3, 4] * 60
    trace = run_protocol(cycle, [0, 120], "mc")
    assert accuracy(trace) == 1.0


# -- diffusion kernel -------------------------------------------------------


def _two_state_model(alpha0=1.0, margin=1.0):
    """Model with hand-placed coordinates: context (7, 8) at x=1, states at the origin."""
    model = DiffusionKernelModel(dim=2, alpha0=alpha0, margin=margin, negatives_per_step=1, seed=0)
    model.set_state_embedding(1, [0.0, 0.0])
    model.set_state_embedding(2, [0.0, 0.0])
    model.set_context_embedding((7, 8), [1.0, 0.0])
    return model


def test_dk_single_update_arithmetic():
    # one gated step at rate 0.1 moves the positive 0.2 of the way to the context
    model = _two_state_model(alpha0=1.0)  # online rate is alpha0/10 = 0.1
    model.update((7, 8), 1)
    assert model.state_embedding(1) == pytest.approx([0.2, 0.0])
    # the negative is pushed away and the context shifts along positive-minus-negative
    assert model.state_embedding(2) == pytest.approx([-0.2, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.0, 0.0])


def test_dk_margin_gate_blocks_updates():
    model = _two_state_model(alpha0=1.0)
    model.set_state_embedding(2, [10.0, 0.0])  # negative already far: gap >= margin
    model.update((7, 8), 1)
    assert model.state_embedding(1) == pytest.approx([0.0, 0.0])
    assert model.state_embedding(2) == pytest.approx([10.0, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.0, 0.0])


def test_dk_zero_learning_rate_changes_nothing():
    model = _two_state_model(alpha0=0.0)
    model.update((7, 8), 1)
    assert model.state_embedding(1) == pytest.approx([0.0, 0.0])
    assert model.state_embedding(2) == pytest.approx([0.0, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.0, 0.0])


def test_dk_update_registers_new_state():
    model = _two_state_model()
    before = model.n_states
    model.update((7, 8), 42)
    assert model.n_states == before + 1
    assert 42 in model.state_rows


def test_dk_repeated_updates_shrink_positive_distance():
    model = DiffusionKernelModel(dim=4, alpha0=0.5, negatives_per_step=2, seed=3)
    model.set_state_embedding(1, [1.0, 0.0, 0.0, 0.0])
    model.set_state_embedding(2, [0.0, 1.0, 0.0, 0.0])
    model.set_state_embedding(3, [0.0, 0.0, 1.0, 1.0])
    # at the origin the negatives are nearer than the positive: the gate fires
    model.set_context_embedding((1, 2), [0.0, 0.0, 0.0, 0.0])
    distances = []
    for _ in range(50):
        model.update((1, 2), 3)
        gap = model.context_embedding((1, 2)) - model.state_embedding(3)
        distances.append(float(gap @ gap))
    assert all(a >= b - 1e-9 for a, b in zip(distances, distances[1:]))
    assert distances[-1] < distances[0]


def test_dk_gate_counters():
    model = _two_state_model(alpha0=1.0)
    model.negatives_per_step = 3
    # steps against state 2: gaps 0 and 0.8 fire, then 1.792 >= margin does not
    model.update((7, 8), 1)
    assert (model.gate_checks, model.gate_fires) == (3, 2)
    assert model.state_embedding(1) == pytest.approx([0.36, 0.0])
    assert model.state_embedding(2) == pytest.approx([-0.44, 0.0])
    assert model.context_embedding((7, 8)) == pytest.approx([1.08, 0.0])
    model.update((7, 8), 1)
    assert (model.gate_checks, model.gate_fires) == (6, 2)
    # a gap equal to the margin holds
    edge = _two_state_model(alpha0=1.0, margin=0.0)
    edge.update((7, 8), 1)
    assert (edge.gate_checks, edge.gate_fires) == (1, 0)
    # one state: nothing to draw, nothing checked
    lone = DiffusionKernelModel(dim=2, seed=0)
    lone.update((1, 1), 1)
    assert (lone.gate_checks, lone.gate_fires) == (0, 0)


@pytest.mark.parametrize("positive", [10, 11, 13])
def test_dk_negatives_skip_positive_and_reach_every_other_state(positive):
    # margin 0 and rate 0: a step fires exactly when its negative sits nearer the
    # context than the positive does, and nothing moves, so fires count draws
    ids = [10, 11, 12, 13]
    draws = 200
    fires = {}
    for near in ids:
        if near == positive:
            continue
        model = DiffusionKernelModel(dim=2, alpha0=0.0, margin=0.0, negatives_per_step=draws, seed=4)
        for s in ids:
            model.set_state_embedding(s, [1.0 if s == positive else 0.5 if s == near else 2.0, 0.0])
        model.set_context_embedding((10, 11), [0.0, 0.0])
        model.update((10, 11), positive)
        assert model.gate_checks == draws
        fires[near] = model.gate_fires
    # same seed, same stream: the draws split among the other states alone
    assert sum(fires.values()) == draws
    assert all(n > 0 for n in fires.values())


def _dk_model_state(model):
    """Everything that the online phase can change, as bytes and plain values."""
    return (
        {s: model.state_embedding(s).tobytes() for s in model.state_rows},
        {c: model.context_embedding(c).tobytes() for c in model.context_rows},
        dict(model.state_rows),
        dict(model.context_rows),
        (model.gate_checks, model.gate_fires),
        model.rng.bit_generator.state,
    )


def _predict_then_update(model, seq, start):
    """The online phase one tick at a time: the oracle for run_online."""
    predicted = []
    for t in range(start, len(seq)):
        predicted.append(model.predict((seq[t - 2], seq[t - 1])))
        model.update((seq[t - 2], seq[t - 1]), seq[t])
    return predicted


def _dk_run(seq, split, params, seed):
    """Train on seq[:split], then predict and update online; the trace and the model's state."""
    model = DiffusionKernelModel(seed=seed, **params).train(seq[:split])
    predicted = _predict_then_update(model, seq, split)
    trace = run_protocol(seq, [0, split], "dk", seed=seed, dk_params=params).predicted
    return predicted, _dk_model_state(model), trace.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seq=st.lists(st.integers(0, 3), min_size=4, max_size=120),
    split=st.integers(3, 120),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 20),
    negatives=st.integers(0, 6),
    margin=st.sampled_from([0.25, 1.0, 4.0]),
)
def test_dk_windowed_gate_matches_one_step_at_a_time(seq, split, seed, dim, negatives, margin):
    split = min(split, len(seq))
    params = dict(dim=dim, epochs=2, alpha0=0.3, margin=margin, negatives_per_step=negatives)
    windowed = _dk_run(seq, split, params, seed)
    with mock.patch.object(predict, "GATE_WINDOW", 1):
        reference = _dk_run(seq, split, params, seed)
    assert windowed == reference


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 2**32, 2**40 + 3])
def test_integers_draws_the_same_stream_in_one_call_or_many(bound):
    # run_online draws a run of ticks' negatives at once where update draws k per tick;
    # numpy does not promise that the two agree, so pin it, generator state included
    k, calls = 5, 9
    many, one = np.random.Generator(np.random.PCG64(11)), np.random.Generator(np.random.PCG64(11))
    drawn = np.concatenate([many.integers(0, bound, size=k) for _ in range(calls)])
    assert drawn.tobytes() == one.integers(0, bound, size=calls * k).tobytes()
    assert many.bit_generator.state == one.bit_generator.state
    if bound == 1:  # nothing to draw, nothing consumed
        assert one.bit_generator.state == np.random.Generator(np.random.PCG64(11)).bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    day_one=st.lists(st.integers(0, 3), min_size=3, max_size=60),
    online=st.lists(st.integers(0, 40), max_size=150),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 20),
    negatives=st.integers(0, 6),
    margin=st.sampled_from([0.25, 1.0, 4.0]),
)
@example(day_one=[2, 2, 2], online=[2, 2, 3, 2, 3, 3], seed=1, dim=4, negatives=5, margin=1.0)  # n = 1 at the start
@example(day_one=[0, 1, 2, 0, 1], online=[2, 5, 0, 1, 5], seed=2, dim=3, negatives=0, margin=1.0)  # no negatives
@example(day_one=[0, 1, 0, 1], online=[*range(4, 30)] * 2, seed=3, dim=5, negatives=5, margin=4.0)  # rows grow
@example(day_one=[0, 1, 2, 3], online=[], seed=4, dim=2, negatives=5, margin=1.0)  # start == len(seq)
@example(  # runs of one state, whose ticks reuse the distance row until a last gate fires
    day_one=[0, 1, 2, 0, 1], online=[2] * 40 + [0] * 25 + [1, 2] * 5 + [1] * 30, seed=5, dim=3, negatives=4, margin=4.0
)
def test_dk_run_online_matches_predict_then_update(day_one, online, seed, dim, negatives, margin):
    seq = day_one + online
    params = dict(dim=dim, epochs=2, alpha0=0.3, margin=margin, negatives_per_step=negatives)
    oracle = DiffusionKernelModel(seed=seed, **params).train(day_one)
    predicted = _predict_then_update(oracle, seq, len(day_one))
    fused = DiffusionKernelModel(seed=seed, **params).train(day_one)
    assert fused.run_online(seq, len(day_one)).tobytes() == np.array(predicted, dtype=np.int64).tobytes()
    assert _dk_model_state(fused) == _dk_model_state(oracle)


def test_sq_lengths_of_a_window_do_not_depend_on_the_batch_around_it():
    # train_together checks many models' gate windows in one pass and must read the bits that _sweep
    # reads from one window alone; numpy does not promise that einsum's sums ignore the rows around them
    rng = np.random.default_rng(2012)
    for _ in range(2_000):
        k, dim = int(rng.integers(1, 65)), int(rng.integers(2, 21))
        scale = 10.0 ** rng.integers(-3, 4, size=(k, 1, 1, 1))
        batch = rng.uniform(-1.0, 1.0, (k, predict.GATE_WINDOW, 2, dim)) * scale  # (models, steps, pair, dim)
        lockstep = np.ascontiguousarray(batch.transpose(2, 0, 1, 3))  # the layout of train_together's rounds
        i = int(rng.integers(k))
        alone = predict._sq_lengths(batch[i].copy())
        assert alone.tobytes() == predict._sq_lengths(batch)[i].tobytes()
        assert alone.tobytes() == np.ascontiguousarray(predict._sq_lengths(lockstep)[:, i].T).tobytes()


def test_sq_lengths_of_a_distance_row_do_not_depend_on_out_or_row_order():
    # run_online writes each tick's distance row through out= into a buffer it reuses, over the state rows in
    # id order, and predict computes the row unbuffered over the rows in registration order; both must read
    # the same bits, and numpy does not promise that einsum's sums ignore the output or the rows around them
    rng = np.random.default_rng(2012)
    for _ in range(2_000):
        n, dim = int(rng.integers(1, 200)), int(rng.integers(2, 21))
        rows = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        order = rng.permutation(n)
        plain = predict._sq_lengths(rows)
        buf, dist = rng.uniform(-1.0, 1.0, (n, dim)), np.empty(n)
        predict._sq_lengths(buf, out=dist)  # the buffers as a previous tick leaves them
        np.copyto(buf, rows[order])
        assert predict._sq_lengths(buf, out=dist) is dist
        assert dist.tobytes() == plain[order].tobytes()
        assert predict._sq_lengths(rows[order]).tobytes() == plain[order].tobytes()


@st.composite
def _dk_units(draw):
    """Units for one batch, mixed by length, state count, seed and negatives, some of which draw nothing."""
    units = []
    for _ in range(draw(st.integers(1, 6))):
        n_states = draw(st.integers(1, 6))  # one state: n < 2, nothing to draw
        seq = draw(st.lists(st.integers(0, n_states - 1), min_size=3, max_size=90))
        units.append((seq, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 6))))  # 0 negatives: no steps
    return units


@settings(max_examples=80, deadline=None)
@given(
    units=_dk_units(),
    dim=st.integers(2, 20),
    epochs=st.integers(1, 3),
    margin=st.sampled_from([0.25, 1.0, 4.0]),
    window=st.sampled_from([1, 3, predict.GATE_WINDOW]),
)
@example(
    units=[([0, 0, 0, 0], 1, 5), ([0, 1, 2, 0, 1, 2], 2, 5), ([1, 0, 1], 3, 0)], dim=4, epochs=2, margin=1.0, window=32
)
def test_train_together_equals_train_alone(units, dim, epochs, margin, window):
    params = dict(dim=dim, epochs=epochs, alpha0=0.3, margin=margin)
    alone = [DiffusionKernelModel(seed=seed, negatives_per_step=k, **params).train(seq) for seq, seed, k in units]
    batch = [DiffusionKernelModel(seed=seed, negatives_per_step=k, **params) for seq, seed, k in units]
    with mock.patch.object(predict, "GATE_WINDOW", window):  # the window changes the rounds, not the result
        train_together(batch, [np.array(seq) for seq, _, _ in units])
    assert [_dk_model_state(m) for m in batch] == [_dk_model_state(m) for m in alone]


def test_train_together_rejects_what_it_cannot_batch():
    model = DiffusionKernelModel(seed=0)
    with pytest.raises(ValueError, match="1 models and 2"):
        train_together([model], [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError, match="given twice"):
        train_together([model, model], [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError, match="share"):
        train_together([model, DiffusionKernelModel(margin=2.0)], [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError, match="at least 3"):
        train_together([model, DiffusionKernelModel(seed=1)], [[1, 2, 3], [1, 2]])
    assert model.n_states == 0  # nothing registered before the check
    train_together([], [])


def test_dk_run_online_refuses_a_context_it_cannot_anchor_before_changing_anything():
    # states 1 and 2 are registered and the context (7, 8) has a row, so the first tick could run; the
    # second tick's context (8, 1) has no row and 8 is not registered, so no tick runs and nothing is drawn
    model = DiffusionKernelModel(dim=3, alpha0=0.3, negatives_per_step=3, seed=5)
    model.set_state_embedding(1, [0.0, 0.0, 0.0])
    model.set_state_embedding(2, [1.0, 0.0, 0.0])
    model.set_context_embedding((7, 8), [0.5, 0.0, 0.0])
    before = _dk_model_state(model)
    with pytest.raises(ValueError, match=r"^state 8 of context \(8, 1\) is not registered"):
        model.run_online([7, 8, 1, 2, 1, 2], 2)
    assert _dk_model_state(model) == before
    with pytest.raises(ValueError, match=r"^state 9 of context \(9, 1\)"):  # at the first tick
        model.run_online([9, 1, 2, 9, 1], 2)
    assert _dk_model_state(model) == before
    # a state first seen online is registered by its tick's update, so later contexts may hold it
    assert model.run_online([1, 2, 9, 1, 9], 2).shape == (3,)


def test_dk_run_online_ties_go_to_the_smallest_id_whatever_the_row_order():
    # run_online finds the nearest state on a copy of the state table in id order; here the rows are registered
    # in descending id order and every distance ties, and at a learning rate of zero nothing moves
    seq = [9, 7, 5, 3, 9, 5, 3, 7, 7, 3, 5]
    models = []
    for _ in range(2):
        model = DiffusionKernelModel(dim=3, alpha0=0.0, negatives_per_step=3, seed=5)
        for state in (9, 7, 5, 3):
            model.set_state_embedding(state, [0.5, -0.25, 1.0])
        models.append(model)
    oracle, fused = models
    predicted = _predict_then_update(oracle, seq, 2)
    assert fused.run_online(seq, 2).tolist() == predicted == [3] * (len(seq) - 2)
    assert _dk_model_state(fused) == _dk_model_state(oracle)


def test_dk_run_online_refuses_nan_distances_as_predict_does():
    # a finite but huge learning rate overflows the embeddings, and inf - inf makes a distance NaN
    seq = [0, 1, 2, 0, 1, 2, 0, 2, 1, 0, 1, 2, 2, 1, 0] * 3
    params = dict(dim=2, epochs=2, alpha0=1e308, negatives_per_step=2, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = DiffusionKernelModel(**params).train(seq[:6])
        with pytest.raises(ValueError, match="NaN"):
            _predict_then_update(oracle, seq, 6)
        with pytest.raises(ValueError, match="NaN"):
            DiffusionKernelModel(**params).train(seq[:6]).run_online(seq, 6)


def test_dk_run_online_rejects_a_start_without_context():
    model = DiffusionKernelModel(seed=0).train([1, 2, 3, 1])
    for start in (1, 5):
        with pytest.raises(ValueError, match="outside 2..4"):
            model.run_online([1, 2, 3, 1], start)


def test_dk_single_state_model_predicts_it_and_refuses_an_unregistered_member():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(9, [1.0, 1.0])
    before = _dk_model_state(model)
    with pytest.raises(ValueError, match=r"^state 0 of context \(0, 9\) is not registered"):
        model.predict((0, 9))
    assert _dk_model_state(model) == before
    assert model.predict((9, 9)) == 9


def test_dk_predict_nearest_state():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(1, [1.0, 0.0])
    model.set_state_embedding(2, [0.0, 2.0])
    model.set_context_embedding((5, 5), [0.0, 0.0])
    assert model.predict((5, 5)) == 1


def test_dk_predict_tie_breaks_to_smallest_id():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(5, [1.0, 0.0])
    model.set_state_embedding(3, [-1.0, 0.0])
    model.set_context_embedding((0, 0), [0.0, 0.0])
    assert model.predict((0, 0)) == 3


def test_dk_unseen_context_uses_member_midpoint():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(1, [0.0, 0.0])
    model.set_state_embedding(2, [4.0, 0.0])
    model.set_state_embedding(3, [2.1, 0.0])
    # context (1, 2) is new: anchored at the mean of members, nearest is state 3
    assert model.predict((1, 2)) == 3
    assert (1, 2) in model.context_rows


def test_dk_predict_refuses_an_unseen_context_with_one_member_unregistered():
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(4, [0.0, 0.0])
    model.set_state_embedding(6, [1.0, 0.0])
    before = _dk_model_state(model)
    for context in ((4, 200), (200, 6)):
        with pytest.raises(ValueError, match="^" + re.escape(f"state 200 of context {context} is not registered")):
            model.predict(context)
    assert _dk_model_state(model) == before


def test_dk_predict_refuses_an_unseen_context_of_unregistered_members():
    # the first missing member is named
    model = DiffusionKernelModel(dim=2, seed=0)
    model.set_state_embedding(7, [0.0, 0.0])
    model.set_state_embedding(3, [1.0, 0.0])
    before = _dk_model_state(model)
    with pytest.raises(ValueError, match=r"^state 100 of context \(100, 200\) is not registered"):
        model.predict((100, 200))
    assert _dk_model_state(model) == before


def test_dk_learns_deterministic_cycle():
    model = DiffusionKernelModel(dim=8, seed=1).train([1, 2, 3] * 50)
    zc = model.context_embedding((1, 2))
    d = {s: float((zc - model.state_embedding(s)) @ (zc - model.state_embedding(s))) for s in (1, 2, 3)}
    assert d[3] < d[1]
    assert d[3] < d[2]
    assert model.predict((1, 2)) == 3


def test_dk_train_rejects_short_prefix():
    with pytest.raises(ValueError, match="at least 3"):
        DiffusionKernelModel(seed=0).train([1, 2])


def test_dk_parameter_validation():
    with pytest.raises(ValueError, match="dimension"):
        DiffusionKernelModel(dim=1)
    with pytest.raises(ValueError, match="epochs"):
        DiffusionKernelModel(epochs=0)
    for alpha0 in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rate"):
            DiffusionKernelModel(alpha0=alpha0)
    for margin in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="margin"):
            DiffusionKernelModel(margin=margin)
    with pytest.raises(ValueError, match="negatives"):
        DiffusionKernelModel(negatives_per_step=-1)


# -- protocol ---------------------------------------------------------------


def test_protocol_trace_length_and_start():
    seq = np.tile([1, 2, 3, 4], 50)
    trace = run_protocol(seq, [0, 80], "mc", stock_code="s")
    assert trace.start_index == 80
    assert len(trace) == len(seq) - 80
    assert trace.stock_code == "s"
    assert (trace.actual == seq[80:]).all()


def test_protocol_requires_two_days():
    with pytest.raises(ValueError, match="2 trading days"):
        run_protocol([1, 2, 3, 4], [0], "mc")


@pytest.mark.parametrize("kind", ["mc", "dk"])
def test_protocol_train_end_bounds(kind):
    for start in (2, -1):
        with pytest.raises(ValueError, match="at least 3"):
            run_protocol([1, 2, 3, 4], [0, start], kind)
    with pytest.raises(ValueError, match="past the 4 states"):
        run_protocol([1, 2, 3, 4], [0, 5], kind)
    trace = run_protocol([1, 2, 3, 4], [0, 4], kind)
    assert len(trace) == 0 and trace.start_index == 4


def test_protocol_deterministic_given_seed():
    rng = np.random.default_rng(8)
    seq = rng.integers(0, 5, 1200)
    a = run_protocol(seq, [0, 400], "dk", seed=77)
    b = run_protocol(seq, [0, 400], "dk", seed=77)
    assert (a.predicted == b.predicted).all()
    c = run_protocol(seq, [0, 400], "dk", seed=78)
    assert (a.predicted != c.predicted).any()


def test_protocol_predictions_are_registered_states():
    rng = np.random.default_rng(9)
    seq = rng.integers(0, 6, 900)
    for kind in ("mc", "dk"):
        trace = run_protocol(seq, [0, 300], kind, seed=5)
        assert set(trace.predicted.tolist()) <= set(seq.tolist())


def test_unknown_model_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        run_protocol([1, 2, 3, 4, 5, 6], [0, 3], "lstm")
    # checked before the sequence or the day boundaries
    with pytest.raises(ValueError, match="unknown model kind"):
        run_protocol([], [0], "lstm")


def test_mc_beats_uniform_guessing_on_structured_source():
    seq, _ = markov2_source(n_states=5, length=50_000, seed=41)
    trace = run_protocol(seq, [0, 3800], "mc")
    assert accuracy(trace) >= 1.0 / 5 + 0.2


def test_models_respect_true_entropy_bound():
    seq, tensor = markov2_source(n_states=5, length=20_000, seed=17)
    bound = fano_solve(markov2_entropy_rate(tensor), len(np.unique(seq)))
    for kind in ("mc", "dk"):
        trace = run_protocol(seq, [0, 2000], kind, seed=13)
        assert accuracy(trace) <= bound + 0.02
