"""Online next-state prediction: count-based vs embedding-based.

Generates an order-2 Markov source with a known entropy rate, trains both
predictors on the first "day", then runs the predict-then-update loop over
the rest. Neither model should cross the theoretical accuracy ceiling.
"""

import numpy as np

from tickpred.entropy import estimate_entropy
from tickpred.evaluate import accuracy
from tickpred.predict import DiffusionKernelModel, run_protocol
from tickpred.predictability import fano_solve
from tickpred.synthetic import markov2_entropy_rate, markov2_source

LENGTH = 20_000
TRAIN_END = 2_000

print("=" * 72)
print("1. A synthetic source with known structure")
print("=" * 72)
seq, tensor = markov2_source(n_states=5, length=LENGTH, dominant=0.8, seed=11)
h_true = markov2_entropy_rate(tensor)
est = estimate_entropy(seq)
n_states = len(np.unique(seq))
print(f"5-state order-2 source, {LENGTH} symbols; each context continues to its")
print(f"favourite state with probability 0.8")
print(f"true entropy rate:      {h_true:.4f} bits")
print(f"estimated entropy rate: {est.s_est:.4f} bits")

print()
print("=" * 72)
print("2. Train on the first segment, then predict-then-update")
print("=" * 72)
bound = fano_solve(est.s_est, n_states)
for kind in ("mc", "dk"):
    trace = run_protocol(seq, [0, TRAIN_END], kind, seed=3)
    print(f"{kind.upper():>3} accuracy over {len(trace)} online steps: {accuracy(trace):.4f}")
print(f"theoretical ceiling from the estimated entropy: {bound:.4f}")
print("both models approach the source's 0.8 modal probability but stay under the ceiling")

print()
print("=" * 72)
print("3. What the models learned")
print("=" * 72)
train = seq[:TRAIN_END]
ctx = (int(train[-2]), int(train[-1]))  # the context of the first online tick
follows = train[2:][(train[:-2] == ctx[0]) & (train[1:-1] == ctx[1])]
values, counts = np.unique(follows, return_counts=True)
print(f"markov counts for context {ctx}: {dict(zip(values.tolist(), counts.tolist()))}")
print(f"markov prediction: {run_protocol(seq, [0, TRAIN_END], 'mc').predicted[0]}")

dk = DiffusionKernelModel(dim=8, seed=3).train(seq[:TRAIN_END])
zc = dk.context_embedding(ctx)
dists = {s: float((zc - dk.state_embedding(s)) @ (zc - dk.state_embedding(s))) for s in range(5)}
print("embedding distances from that context:")
for s, d in sorted(dists.items(), key=lambda kv: kv[1]):
    print(f"  state {s}: {d:8.4f}")
print(f"embedding prediction: {dk.predict(ctx)} (nearest state)")
