"""
A pairwise alternative to the confusion matrix
==============================================

For a K-class problem with per-observation class probabilities, every
class pair i < j yields a two-sample problem scored by p_i - p_j, bounded
once for both entries (i, j) and (j, i) of the matrix.  The
matrix of pairwise TV lower bounds says not only *whether* classes are
distinguishable but *how much* of their distributions provably differ;
unbalanced class sizes are handled by construction.
"""

import math

import numpy as np

from hplb import BoundSpec, RngStream, pairwise_matrix

# Three classes on the line: 0 and 1 share a law, 2 sits 3 sigmas away.
rng = RngStream(21, 0)
mus = [0.0, 0.0, 3.0]
sizes = [400, 250, 400]  # deliberately unbalanced
xs = np.concatenate([rng.normal(mu, 1.0, k) for mu, k in zip(mus, sizes)])
labels = np.repeat([0, 1, 2], sizes)

# oracle posterior probabilities as the per-class scores
dens = np.column_stack([np.exp(-0.5 * (xs - mu) ** 2) / math.sqrt(2 * math.pi) for mu in mus])
probs = dens / dens.sum(axis=1, keepdims=True)

matrix = pairwise_matrix(probs, labels, BoundSpec(alpha=0.05, band_kind="simulated", sims=500, seed=0))

true_02 = 2 * 0.5 * (1 + math.erf(1.5 / math.sqrt(2))) - 1  # TV of N(0,1) vs N(3,1)
print("pairwise TV lower bounds (classes 0 and 1 identical, class 2 shifted):\n")
print("      " + "  ".join(f"cls{j}" for j in range(3)))
for i in range(3):
    print(f"cls{i}  " + "  ".join(f"{matrix[i, j]:.2f}" for j in range(3)))
print(f"\ntrue TV between class 0/1 and class 2: {true_02:.2f}")
print("the identical pair stays at zero; the shifted pair is certified apart")
