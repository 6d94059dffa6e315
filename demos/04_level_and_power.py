"""
Level and detection-rate studies
================================

Two Monte-Carlo habits worth keeping: first check the level (how often a
bound overshoots the truth; must stay below alpha), then map detection
power over signal strength gamma and sample size N.  The 50%-power
contour's log-log slope is the estimator's detection-rate exponent:
about -1 for the adaptive bound and -1/2 for the fixed-cutoff bound on
the two-sided contamination family.
"""

from hplb import BoundSpec, ExampleSpec, RngStream, run_level_study, run_power_grid

bound = BoundSpec(alpha=0.05, band_kind="simulated", sims=500, seed=0)

print("level check (exceedance must stay below alpha = 0.05 + MC slack):")
for lam in (0.0, 0.2):
    spec = ExampleSpec(example_id=1, n_total=400, gamma=None, c=lam)
    for method in ("bayes", "adapt"):
        freq = run_level_study(spec, method, 300, RngStream(5, 0), bound)
        print(f"  true TV {lam:.1f}  {method:6s}: exceedance {freq:.3f}")

print("\nmini power grid on the two-sided contamination family:")
gammas = [-0.4, -0.55, -0.7, -0.85]
ns = [500, 2000, 8000]
for method in ("adapt", "bayes"):
    grid = run_power_grid(
        example=2, method=method, gammas=gammas, ns=ns, reps=50,
        epsilon=1.0, rng=RngStream(6, 0), bound=bound, c=2.0,
    )
    print(f"  {method}: detection frequency by (gamma, N)")
    for g in gammas:
        row = "   ".join(f"{grid.freq[(g, N)]:.2f}" for N in ns)
        print(f"    gamma={g:+.1f}:  {row}")
    print(f"    fitted boundary slope: {grid.slope:.2f}")
