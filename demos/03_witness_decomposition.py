"""
Distributional witnesses
========================

Any pair (P, Q) splits into a shared component and two private ones:

    P = tv * H_P + (1 - tv) * H_PQ,     Q = tv * H_Q + (1 - tv) * H_PQ.

A draw from the private component is a *witness* of the difference; the
witness probability IS the total variation distance.  The sampler below
tags each draw with its latent witness flag, which is how the simulation
studies know the ground truth.
"""

import numpy as np

from hplb import Gaussian, MixtureModel, RngStream, decompose, sample_with_witness, tv_exact

model = MixtureModel(Gaussian(0.0, 0.5), Gaussian(1.0, 0.75))
tv = tv_exact(model)
print(f"TV(N(0, 0.5), N(1, 0.75)) = {tv:.4f}")

parts = decompose(model)
xs = np.linspace(-1.5, 3.0, 7)
print("\ncomponent densities on a small grid:")
print("x     :", "  ".join(f"{x:6.2f}" for x in xs))
print("H_P   :", "  ".join(f"{v:6.3f}" for v in parts.h_p.pdf(xs)))
print("H_Q   :", "  ".join(f"{v:6.3f}" for v in parts.h_q.pdf(xs)))
print("H_PQ  :", "  ".join(f"{v:6.3f}" for v in parts.h_pq.pdf(xs)))

# Latent-flag sampling: the witness frequency estimates TV itself.
n = 50_000
for source in ("P", "Q"):
    x, w = sample_with_witness(model, source, n, RngStream(1, 0).child(source))
    print(f"\nwitness frequency from {source}: {w.mean():.4f}  (target {tv:.4f})")
    xs = x[w == 1]
    print(f"mean of witness draws     : {xs.mean():+.3f}  "
          f"({'left' if source == 'P' else 'right'} bump of the pair)")
