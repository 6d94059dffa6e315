"""
Change detection over an ordered sample
=======================================

Observations arrive indexed by time.  Cutting the sample at a candidate
split point s turns change detection into a two-sample problem: points
before s against points after.  Scanning s and bounding the TV distance
at each split localizes the change; the bound peaks at the true change
point.  Each split's bound holds at level alpha on its own, so the peak,
chosen over K splits, is a lower bound on how much of the distribution
moved only at level K alpha.
"""

import numpy as np

from hplb import (
    BoundSpec,
    ExampleSpec,
    RngStream,
    bayes_projection,
    example_model,
    split_scan,
)

# One change at t = 0.4: before it the mirrored-uniform pair's P law,
# after it the Q law; the true TV across the change is 0.5.
model, true_tv = example_model(ExampleSpec(example_id=0, n_total=4, gamma=None, c=0.5))
rng = RngStream(11, 0)
n = 1500
t = np.sort(rng.random(n))
x = np.where(t <= 0.4, model.p.sample(n, rng.child("p")), model.q.sample(n, rng.child("q")))
scores = bayes_projection(model, x)

result = split_scan(
    t, scores, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    BoundSpec(alpha=0.05, band_kind="simulated", sims=500, seed=0),
)

print(f"true TV across the change: {true_tv:.2f} (change point at t = 0.40)\n")
print("split   bound   (m, n)")
for s, b, mn in zip(result.splits, result.bounds, result.m_n):
    bar = "#" * int(40 * b.value) if b else ""
    val = f"{b.value:.3f}" if b else "  -  "
    print(f" {s:.2f}   {val}   {mn}   {bar}")
for note in result.skipped:
    print("note:", note)
