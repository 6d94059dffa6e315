"""Piecewise bounding envelope and the violation predicate."""

import numpy as np
import pytest

from hplb import (
    BoundSpec,
    CountingPath,
    LabeledScores,
    ParameterError,
    RngStream,
    band_constant,
    beta_threshold,
    binom_quantile,
    BinomialParams,
    build_counting_path,
    effective_sizes,
    is_violated,
    q_bound,
    w_scale,
)

ANALYTIC = BoundSpec(alpha=0.05, band_kind="analytic")
SIMULATED = BoundSpec(alpha=0.05, band_kind="simulated", sims=400, seed=0)


class TestEffectiveSizes:
    def test_zero_candidate(self):
        s = effective_sizes(0.0, 100, 300, ANALYTIC)
        assert (s.q_m, s.q_n, s.m_eff, s.n_eff) == (0, 0, 100, 300)

    def test_degenerate_candidate(self):
        s = effective_sizes(1.0, 100, 300, ANALYTIC)
        assert (s.q_m, s.q_n, s.m_eff, s.n_eff) == (100, 300, 0, 0)

    def test_workhorse_sizes(self):
        # exact-arithmetic oracle (test_distributions) pins the quantile at 119
        s = effective_sizes(0.2, 500, 500, ANALYTIC)
        assert s.q_m == s.q_n == 119
        assert s.m_eff == s.n_eff == 381


class TestQBound:
    def test_left_branch_is_identity(self):
        m = n = 200
        lam = 0.3
        q_m = effective_sizes(lam, m, n, ANALYTIC).q_m
        z = np.arange(1, q_m + 1)
        assert np.array_equal(q_bound(z, lam, m, n, ANALYTIC), z.astype(float))

    def test_right_branch_is_m(self):
        m = n = 200
        lam = 0.3
        sizes = effective_sizes(lam, m, n, ANALYTIC)
        z = np.arange(m + sizes.n_eff, m + n)
        assert np.array_equal(q_bound(z, lam, m, n, ANALYTIC), np.full(len(z), float(m)))

    def test_zero_candidate_reduces_to_plain_band(self):
        # Q(z, 0) = z m / N + beta_{alpha/3, m} w(z, m, n) in the interior
        m = n = 200
        z = np.arange(1, m + n)
        got = q_bound(z, 0.0, m, n, ANALYTIC)
        expected = z * m / (m + n) + beta_threshold(0.05 / 3, m) * w_scale(z, m, n)
        assert np.allclose(got, expected, atol=1e-12)

    def test_branch_boundary_continuity(self):
        # the envelope meets the identity branch exactly at q_m
        m, n = 100, 300
        for lam in (0.1, 0.25, 0.6):
            q_m = effective_sizes(lam, m, n, ANALYTIC).q_m
            if q_m >= 1:
                assert q_bound(q_m, lam, m, n, ANALYTIC) == float(q_m)

    def test_empty_middle_outer_envelope(self):
        # at candidate 1 the envelope is z below m and m above
        m, n = 50, 50
        z = np.arange(1, m + n)
        got = q_bound(z, 1.0, m, n, ANALYTIC)
        expected = np.where(z <= m, z, m).astype(float)
        assert np.array_equal(got, expected)

    def test_analytic_falls_back_below_guard(self):
        # m_eff < 8 transparently switches to the simulated band
        m, n = 10, 50
        lam = 0.35  # pushes q_m close to m
        sizes = effective_sizes(lam, m, n, ANALYTIC)
        assert 0 < sizes.m_eff < 8
        val = q_bound(sizes.q_m + 1, lam, m, n, ANALYTIC)
        assert np.isfinite(val)

    def test_z_domain(self):
        with pytest.raises(ParameterError):
            q_bound(0, 0.1, 10, 10, ANALYTIC)


def _path_from(v, m, n):
    return CountingPath(v=np.asarray(v, dtype=np.int64), m=m, n=n)


def _separated_path(m, n):
    z = np.arange(1, m + n)
    return _path_from(np.minimum(z, m), m, n)


def _balanced_path(m, n):
    z = np.arange(1, m + n)
    return _path_from(np.floor(z * m / (m + n)).astype(np.int64), m, n)


class TestIsViolated:
    def test_balanced_path_quiet_at_zero(self):
        hit, _ = is_violated(_balanced_path(200, 200), 0.0, ANALYTIC)
        assert not hit

    def test_separated_path_fires_at_zero(self):
        # V[m] = 200 against Q(m, 0) = 100 + beta w(200, 200, 200) ~ 121.4
        m = n = 200
        beta = beta_threshold(0.05 / 3, m)
        assert beta * w_scale(m, m, n) < 100
        hit, argz = is_violated(_separated_path(m, n), 0.0, ANALYTIC)
        assert hit
        assert argz == m

    def test_candidate_one_never_fires(self):
        for path in (_separated_path(50, 50), _balanced_path(40, 60)):
            hit, _ = is_violated(path, 1.0, ANALYTIC)
            assert not hit

    def test_tie_with_the_band_constant_is_not_a_violation(self):
        # The simulated constant c is one of its null rows' sup statistics,
        # and the rank rule bounds P(T > c): a data path whose statistic
        # equals c exactly is not violated, and one step above it is.  The
        # rows are rebuilt from each constant's seeded draw as 0/1 rows.
        spec = BoundSpec(alpha=0.05, band_kind="simulated", sims=1000, seed=2)
        a = spec.alpha / 3.0
        ties = raised = 0
        for m, n in [(10, 10), (20, 30), (60, 40), (8, 50), (50, 8), (100, 100)]:
            c = band_constant(a, m, n, "simulated", sims=spec.sims, seed=spec.seed).c
            rows = np.tile(np.repeat([1, 0], [m, n]), (spec.sims, 1))
            stream = RngStream(spec.seed, 0, ("null-band", m, n, spec.sims, round(a, 12)))
            rows = stream.generator.permuted(rows, axis=1)
            z = np.arange(1, m + n)

            def statistic(row):
                return (np.cumsum(row)[:-1] - z * (m / (m + n))) / w_scale(z, m, n)

            tied = [row for row in rows if statistic(row).max() == c]
            assert tied, (m, n)
            ties += len(tied)
            for row in tied:
                path = _path_from(np.cumsum(row)[:-1], m, n)
                assert is_violated(path, 0.0, spec) == (False, None)
                # move the first one after the argmax z* ahead of the last
                # zero at or before it: V rises by one on a run of z through z*
                top = int(np.argmax(statistic(row)))
                zeros = np.flatnonzero(row[:top + 1] == 0)
                ones = top + 1 + np.flatnonzero(row[top + 1:] == 1)
                if not (zeros.size and ones.size):
                    continue
                up = row.copy()
                up[zeros[-1]], up[ones[0]] = 1, 0
                stat = statistic(up)
                assert stat.max() > c
                path = _path_from(np.cumsum(up)[:-1], m, n)
                assert is_violated(path, 0.0, spec) == (True, int(np.argmax(stat)) + 1)
                raised += 1
        assert ties >= 30 and raised >= 10, (ties, raised)

    @pytest.mark.parametrize("spec", [ANALYTIC, SIMULATED], ids=["analytic", "simulated"])
    @pytest.mark.parametrize("mn", [(50, 50), (100, 300)])
    def test_violation_indicator_monotone_on_grid(self, spec, mn):
        # The adaptive search needs: once a candidate is admissible, all
        # larger candidates stay admissible.  Checked on the spec's grid for
        # null-like, separated, and fuzzed valid paths.
        m, n = mn
        rng = RngStream(77, m * 1000 + n)
        paths = [_separated_path(m, n), _balanced_path(m, n)]
        labels = np.concatenate([np.zeros(m, dtype=int), np.ones(n, dtype=int)])
        for rep in range(10):
            scores = rng.random(m + n)
            paths.append(build_counting_path(LabeledScores(scores, labels, tie_seed=rep)))
        grid = np.round(np.arange(0.0, 1.0001, 0.01), 2)
        for path in paths:
            admissible_seen = False
            for lam in grid:
                hit, _ = is_violated(path, float(lam), spec)
                if admissible_seen:
                    assert not hit, f"violation resumed at {lam} for (m, n)=({m}, {n})"
                elif not hit:
                    admissible_seen = True
            assert admissible_seen

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "Pointwise monotonicity of Q(z, .) fails at branch handovers: at "
            "(m, n) = (50, 50) the envelope at z = 34 drops when the candidate "
            "grows from 0.50 to 0.55 because z enters the identity branch. "
            "Only the violation indicator (previous test) is monotone, which "
            "is what the bisection relies on."
        ),
    )
    def test_pointwise_envelope_monotone_in_candidate(self):
        m = n = 50
        grid = np.round(np.arange(0.0, 1.0001, 0.01), 2)
        z = np.arange(1, m + n)
        prev = q_bound(z, float(grid[0]), m, n, ANALYTIC)
        for lam in grid[1:]:
            cur = q_bound(z, float(lam), m, n, ANALYTIC)
            assert (cur >= prev - 1e-9).all()
            prev = cur


def test_boundspec_validation():
    with pytest.raises(ParameterError):
        BoundSpec(alpha=0.0)
    with pytest.raises(ParameterError):
        BoundSpec(band_kind="magic")
    with pytest.raises(ParameterError):
        BoundSpec(band_kind="simulated", sims=10)
    # (alpha/3) * (sims + 1) < 1: the band would be the sample maximum
    with pytest.raises(ParameterError):
        BoundSpec(alpha=0.01, band_kind="simulated", sims=100)
    with pytest.raises(ParameterError):
        BoundSpec(alpha=0.001, band_kind="simulated", sims=1000)
    BoundSpec(alpha=0.01, band_kind="simulated", sims=300)
    # the analytic band simulates its constant below m_eff = 8, so it needs
    # the same budget up front rather than failing partway through a search
    with pytest.raises(ParameterError):
        BoundSpec(band_kind="analytic", sims=10)
    with pytest.raises(ParameterError):
        BoundSpec(band_kind="analytic", sims=99)
    BoundSpec(band_kind="analytic", sims=100)


def test_quantile_convention_shared_with_envelope():
    # the envelope's left corner is exactly the binomial quantile
    m, n = 120, 80
    lam = 0.22
    spec = ANALYTIC
    q_m = binom_quantile(1 - spec.alpha / 3, BinomialParams(lam, m))
    assert effective_sizes(lam, m, n, spec).q_m == q_m
