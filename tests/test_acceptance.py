"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each criterion is one test function that prints a [PASS]/[FAIL] line per
subcheck (run with -s to see them live).  Budgets: criterion 1 targets
under ten minutes, criteria 2+3 under thirty; on this implementation the
whole module runs in a few minutes.

Criterion 4's fixed-cutoff subcheck is expected to fail: with oracle
posterior scores the in-class accuracy variances are tiny (about 2e-3),
so the fixed-cutoff bound detects the toy contamination at roughly 4.7
standard errors and is positive in essentially every seed.  The zero
values reported for that setup arise from weak learned classifiers, not
from the oracle projection.  See the Notes section of README.md; the
assertion is kept as stated rather than loosened.
"""

import math

import numpy as np
import pytest
from scipy import stats

from hplb import (
    BoundSpec,
    ExampleSpec,
    LabeledScores,
    MixtureModel,
    Gaussian,
    RngStream,
    bayes_projection,
    binom_quantile,
    bounding_operation,
    decompose,
    gen_example,
    is_violated,
    lambda_adapt,
    lambda_bayes,
    lambda_c,
    run_power_grid,
    sample_with_witness,
    tv_exact,
)
from hplb.counting import build_counting_path
from hplb.mixtures import Mixture, PiecewiseUniform, accuracy_true, score_cdf

ALPHA = 0.05
GAMMAS = [round(-0.2 - 0.1 * i, 1) for i in range(8)]
NS = [500, 1000, 2000, 4000, 8000, 16000]

U_NEG = PiecewiseUniform([-1.0, 0.0], [1.0])
U_POS = PiecewiseUniform([0.0, 1.0], [1.0])
U_C = PiecewiseUniform([-2.0, -1.0], [1.0])
GAUSS_PAIR = MixtureModel(Gaussian(0.0, 0.5), Gaussian(1.0, 0.75))


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_1_level_guarantee():
    """P(bound > TV) <= alpha + 0.014 for c/bayes/adapt at m = n = 300."""
    reps = 1000
    tol = ALPHA + 0.014
    spec_a = BoundSpec(alpha=ALPHA, band_kind="analytic", seed=0)
    spec_s = BoundSpec(alpha=ALPHA, band_kind="simulated", sims=1000, seed=0)
    failures = []
    for lam in (0.0, 0.1, 0.3):
        ex = ExampleSpec(example_id=1, n_total=600, gamma=None, c=lam)
        exceed = {"c": 0, "bayes": 0, "adapt-analytic": 0, "adapt-simulated": 0}
        rng = RngStream(10_000, 0)
        for r in range(reps):
            data, lam_r = gen_example(ex, rng.child(lam, r))
            exceed["c"] += lambda_c(data, ALPHA).value > lam_r
            exceed["bayes"] += lambda_bayes(data, ALPHA).value > lam_r
            exceed["adapt-analytic"] += lambda_adapt(data, spec_a).value > lam_r
            exceed["adapt-simulated"] += lambda_adapt(data, spec_s).value > lam_r
        for method, count in exceed.items():
            freq = count / reps
            ok = report(f"1 level[lambda={lam}, {method}]", freq <= tol, f"{freq:.3f} <= {tol:.3f}")
            if not ok:
                failures.append((lam, method, freq))
    assert not failures, failures


def test_criterion_2_example2_rate_separation():
    """Boundary slopes -1 (adaptive) vs -1/2 (fixed cutoff), plus one pinned cell."""
    analytic = BoundSpec(alpha=ALPHA, band_kind="analytic", seed=0)
    adapt = run_power_grid(
        example=2, method="adapt", gammas=GAMMAS, ns=NS, reps=100, epsilon=1.0,
        rng=RngStream(20_000, 0), bound=analytic, c=2.0,
    )
    bayes = run_power_grid(
        example=2, method="bayes", gammas=GAMMAS, ns=NS, reps=100, epsilon=1.0,
        rng=RngStream(21_000, 0), bound=BoundSpec(alpha=ALPHA), c=2.0,
    )
    ok_a = report("2 adapt slope", abs(adapt.slope - (-1.0)) <= 0.15, f"{adapt.slope:.3f}")
    ok_b = report("2 bayes slope", abs(bayes.slope - (-0.5)) <= 0.15, f"{bayes.slope:.3f}")

    # pinned cell at (gamma = -0.7, N = 8000); the simulated band is the
    # valid finite-sample choice and the sharper one
    simulated = BoundSpec(alpha=ALPHA, band_kind="simulated", sims=1000, seed=0)
    cell_adapt = run_power_grid(
        example=2, method="adapt", gammas=[-0.7], ns=[8000], reps=100, epsilon=1.0,
        rng=RngStream(22_000, 0), bound=simulated, c=2.0,
    ).freq[(-0.7, 8000)]
    cell_bayes = bayes.freq[(-0.7, 8000)]
    ok_c = report("2 adapt cell detection", cell_adapt >= 0.8, f"{cell_adapt:.2f} >= 0.8")
    ok_d = report("2 bayes cell detection", cell_bayes <= 0.25, f"{cell_bayes:.2f} <= 0.25")
    assert ok_a and ok_b and ok_c and ok_d


def test_criterion_3_example1_oracle_rate():
    """Both estimators reach the oracle boundary slope -1 on the contamination family."""
    analytic = BoundSpec(alpha=ALPHA, band_kind="analytic", seed=0)
    adapt = run_power_grid(
        example=1, method="adapt", gammas=GAMMAS, ns=NS, reps=100, epsilon=1.0,
        rng=RngStream(30_000, 0), bound=analytic, c=1.0,
    )
    bayes = run_power_grid(
        example=1, method="bayes", gammas=GAMMAS, ns=NS, reps=100, epsilon=1.0,
        rng=RngStream(31_000, 0), bound=BoundSpec(alpha=ALPHA), c=1.0,
    )
    ok_a = report("3 adapt slope", abs(adapt.slope - (-1.0)) <= 0.15, f"{adapt.slope:.3f}")
    ok_b = report("3 bayes slope", abs(bayes.slope - (-1.0)) <= 0.15, f"{bayes.slope:.3f}")
    assert ok_a and ok_b


def _toy_runs(seeds=50):
    spec = ExampleSpec(example_id="toy", n_total=20_000)
    analytic = BoundSpec(alpha=ALPHA, band_kind="analytic", seed=0)
    bayes_vals, adapt_vals, lam = [], [], None
    for seed in range(seeds):
        data, lam = gen_example(spec, RngStream(40_000 + seed, 0))
        bayes_vals.append(lambda_bayes(data, ALPHA).value)
        adapt_vals.append(lambda_adapt(data, analytic).value)
    return np.array(bayes_vals), np.array(adapt_vals), lam


@pytest.fixture(scope="module")
def toy_runs():
    return _toy_runs()


def test_criterion_4a_toy_fixed_cutoff_zero(toy_runs):
    # Spec defect, kept as stated: with oracle scores the fixed-cutoff bound
    # detects the contamination (signal/noise ~ 4.7), so it is positive in
    # essentially every seed.  README.md (Notes) has the full analysis.
    bayes_vals, _, _ = toy_runs
    frac_zero = float(np.mean(bayes_vals == 0.0))
    ok = report("4a toy bayes zero", frac_zero >= 0.9, f"{frac_zero:.2f} >= 0.9")
    assert ok


def test_criterion_4b_toy_adaptive_detects(toy_runs):
    _, adapt_vals, _ = toy_runs
    frac_pos = float(np.mean(adapt_vals > 0.0))
    ok = report("4b toy adapt positive", frac_pos >= 0.5, f"{frac_pos:.2f} >= 0.5")
    assert ok


def test_criterion_4c_toy_adaptive_stays_below_truth(toy_runs):
    _, adapt_vals, lam = toy_runs
    # true TV ~ 0.00966
    frac_ok = float(np.mean(adapt_vals <= lam))
    ok = report("4c toy adapt below truth", frac_ok >= 0.95, f"{frac_ok:.2f} >= 0.95")
    assert ok


def test_criterion_5_witness_machinery():
    lam = tv_exact(GAUSS_PAIR)
    n = 100_000
    x, w = sample_with_witness(GAUSS_PAIR, "P", n, RngStream(50_000, 0))
    freq = float(np.mean(w))
    ok_freq = report("5 witness frequency", abs(freq - 0.590) <= 0.005, f"{freq:.4f}")

    d = decompose(GAUSS_PAIR)
    xs = x[w == 0]
    stat = stats.kstest(xs, lambda v: d.h_pq.cdf(v)).statistic
    crit = 1.63 / math.sqrt(len(xs))
    ok_ks = report("5 conditional KS", stat < crit, f"{stat:.5f} < {crit:.5f}")

    # bounding operation: pathwise dominance plus hypergeometric middle
    delta = 0.2
    model = MixtureModel(Mixture([1 - delta, delta], [U_POS, U_C]), U_POS)
    m = n_cls = 300
    bar_p = binom_quantile(1 - 1e-6, delta, m)
    bar_q = binom_quantile(1 - 1e-6, delta, n_cls)
    j = (m + n_cls - bar_p - bar_q) // 2
    reduced_pop = m + n_cls - bar_p - bar_q
    reduced_succ = m - bar_p
    rng = RngStream(51_000, 0)
    dominated = 0
    total = 0
    counts = {}
    for rep in range(1000):
        r = rng.child("rep", rep)
        xp, wp = sample_with_witness(model, "P", m, r.child("p"))
        xq, wq = sample_with_witness(model, "Q", n_cls, r.child("q"))
        if wp.sum() > bar_p or wq.sum() > bar_q:
            continue
        rho = bayes_projection(model, np.concatenate([xp, xq]))
        jitter = r.child("ties").random(m + n_cls)
        order = np.lexsort((jitter, rho))
        labels = np.repeat(np.array([0, 1], dtype=np.int8), [m, n_cls])[order]
        plain_v = np.cumsum(labels == 0)[:-1]
        witness = np.concatenate([wp, wq])[order]
        bounded = bounding_operation(labels, witness, bar_p, bar_q, r.child("op"))
        total += 1
        dominated += bool((bounded.v >= plain_v).all())
        k = int(bounded.v[bar_p + j - 1] - bar_p)
        counts[k] = counts.get(k, 0) + 1
    ok_dom = report("5 dominance", dominated == total, f"{dominated}/{total}")

    pmf = {
        k: math.comb(reduced_succ, k)
        * math.comb(reduced_pop - reduced_succ, j - k)
        / math.comb(reduced_pop, j)
        for k in range(max(0, j - (reduced_pop - reduced_succ)), min(j, reduced_succ) + 1)
    }
    ks = sorted(pmf, key=pmf.get, reverse=True)
    keep = [k for k in ks if pmf[k] * total >= 5]
    obs = np.array([counts.get(k, 0) for k in keep], dtype=float)
    exp = np.array([pmf[k] * total for k in keep])
    obs = np.append(obs, total - obs.sum())
    exp = np.append(exp, max(total - exp.sum(), 1e-9))
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    crit = stats.chi2.ppf(0.99, df=len(obs) - 1)
    ok_chi = report("5 middle segment chi-square", chi2 < crit, f"{chi2:.1f} < {crit:.1f}")
    assert ok_freq and ok_ks and ok_dom and ok_chi


def test_criterion_6_identities():
    def example0(p):
        return MixtureModel(Mixture([p, 1 - p], [U_NEG, U_POS]), Mixture([1 - p, p], [U_NEG, U_POS]))

    def example2(p1, p2):
        C1 = PiecewiseUniform([-3.0, -2.0], [1.0])
        C2 = PiecewiseUniform([2.0, 3.0], [1.0])
        P = Mixture([p1, (1 - p1) * p2, (1 - p1) * (1 - p2)], [C1, U_NEG, U_POS])
        Q = Mixture([p1, (1 - p1) * p2, (1 - p1) * (1 - p2)], [C2, U_POS, U_NEG])
        return MixtureModel(P, Q)

    example1 = MixtureModel(Mixture([0.8, 0.2], [U_POS, U_C]), U_POS)
    zoo = [example0(0.7), example0(0.55), example1, example2(0.1, 0.6), GAUSS_PAIR]

    # sigma identity over 100 random (t, model) pairs at 1e-12
    rng = RngStream(60_000, 0)
    worst = 0.0
    m, n = 173, 291
    for i in range(100):
        model = zoo[i % len(zoo)]
        t = float(rng.random())
        F = score_cdf(model, "p", t)
        G = score_cdf(model, "q", t)
        a0, a1 = accuracy_true(model, t)
        r1 = math.sqrt(F * (1 - F) / m + G * (1 - G) / n)
        r2 = math.sqrt(a0 * (1 - a0) / m + a1 * (1 - a1) / n)
        worst = max(worst, abs(r1 - r2))
    ok_sigma = report("6 sigma identity", worst <= 1e-12, f"max gap {worst:.2e}")

    # decomposition reconstruction at 1e-8
    worst_rec = 0.0
    for model in zoo:
        d = decompose(model)
        lo = min(model.p.support()[0], model.q.support()[0])
        hi = max(model.p.support()[1], model.q.support()[1])
        xs = np.linspace(lo, hi, 1000)
        h_p = d.h_p.pdf(xs) if d.h_p is not None else 0.0
        h_pq = d.h_pq.pdf(xs) if d.h_pq is not None else 0.0
        f_back = d.lam * h_p + (1 - d.lam) * h_pq
        worst_rec = max(worst_rec, float(np.max(np.abs(f_back - model.p.pdf(xs)))))
    ok_rec = report("6 reconstruction", worst_rec <= 1e-8, f"max gap {worst_rec:.2e}")

    # symmetry and threshold contraction at all example models
    ok_sym = True
    ok_contract = True
    for model in zoo:
        lam = tv_exact(model)
        ok_sym &= abs(lam - tv_exact(MixtureModel(model.q, model.p))) <= 1e-4
        for t in (0.15, 0.35, 0.5, 0.65, 0.85):
            gap = abs(score_cdf(model, "p", t) - score_cdf(model, "q", t))
            ok_contract &= gap <= lam + 1e-6
    report("6 tv symmetry", ok_sym)
    report("6 threshold contraction", ok_contract)

    # posterior projection preserves TV within 1e-4: exact atom masses for
    # the piecewise families, grid partition for the smooth pairs
    from hplb.mixtures import _flatten_piecewise

    def pushforward_tv(model):
        fp = _flatten_piecewise(model.p)
        fq = _flatten_piecewise(model.q)
        if fp is not None and fq is not None:
            breaks = np.unique(np.concatenate([fp[0], fq[0]]))
            mids = 0.5 * (breaks[1:] + breaks[:-1])
            widths = np.diff(breaks)
            f = model.p.pdf(mids) * widths
            g = model.q.pdf(mids) * widths
            rho = bayes_projection(model, mids)
            masses = {}
            for r, fm, gm in zip(np.round(rho, 12), f, g):
                pf, pg = masses.get(r, (0.0, 0.0))
                masses[r] = (pf + fm, pg + gm)
            return 0.5 * sum(abs(pf - pg) for pf, pg in masses.values())
        lo = min(model.p.support()[0], model.q.support()[0])
        hi = max(model.p.support()[1], model.q.support()[1])
        xs = np.linspace(lo, hi, 2 ** 17 + 1)
        mids = 0.5 * (xs[1:] + xs[:-1])
        h = xs[1] - xs[0]
        f = model.p.pdf(mids) * h
        g = model.q.pdf(mids) * h
        rho = bayes_projection(model, mids)
        pf, _ = np.histogram(rho, bins=np.linspace(0, 1, 4097), weights=f)
        pg, _ = np.histogram(rho, bins=np.linspace(0, 1, 4097), weights=g)
        return 0.5 * float(np.sum(np.abs(pf - pg)))

    ok_push = True
    for model in zoo + [
        MixtureModel(
            Gaussian(0.0, 1.0),
            Mixture([0.99, 0.01], [Gaussian(0.0, 1.0), Gaussian(math.sqrt(18.0), 1.0)]),
        )
    ]:
        lam = tv_exact(model)
        tv_scores = pushforward_tv(model)
        ok_push &= (tv_scores <= lam + 1e-6) and (tv_scores >= lam - 1e-4)
    report("6 posterior preserves tv", ok_push)
    assert ok_sigma and ok_rec and ok_sym and ok_contract and ok_push


def test_criterion_7_null_band_calibration():
    reps = 2000
    tol = ALPHA + 0.02
    failures = []
    for m in (50, 200):
        labels = np.concatenate([np.zeros(m, dtype=int), np.ones(m, dtype=int)])
        for kind in ("analytic", "simulated"):
            spec = BoundSpec(alpha=ALPHA, band_kind=kind, sims=1000, seed=1)
            rng = RngStream(70_000 + m, 0)
            viol = 0
            for rep in range(reps):
                data = LabeledScores(rng.random(2 * m), labels, tie_seed=rep)
                path = build_counting_path(data)
                hit, _ = is_violated(path, 0.0, spec)
                viol += hit
            freq = viol / reps
            ok = report(f"7 null calibration[m={m}, {kind}]", freq <= tol, f"{freq:.4f} <= {tol}")
            if not ok:
                failures.append((m, kind, freq))
    assert not failures, failures
