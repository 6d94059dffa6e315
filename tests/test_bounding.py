"""Piecewise bounding envelope and the violation predicate."""

from pathlib import Path

import numpy as np
import pytest

from conftest import count_null_rows
from hplb import (
    BoundSpec,
    CountingPath,
    LabeledScores,
    ParameterError,
    RngStream,
    band_constant,
    beta_threshold,
    binom_quantile,
    bounding,
    build_counting_path,
    counting,
    effective_sizes,
    io,
    is_violated,
    lambda_adapt,
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


TIE_SPEC = BoundSpec(alpha=0.05, band_kind="simulated", sims=1000, seed=2)


def _tie_rows():
    """Per (m, n): the constant c of TIE_SPEC at lam = 0, the null rows of its
    seeded draw (rebuilt as 0/1 rows) whose statistic equals c, and the statistic."""
    spec = TIE_SPEC
    a = spec.alpha / 3.0
    for m, n in [(10, 10), (20, 30), (60, 40), (8, 50), (50, 8), (100, 100), (700, 600)]:
        c = band_constant(a, m, n, "simulated", sims=spec.sims, seed=spec.seed).c
        rows = np.tile(np.repeat([1, 0], [m, n]), (spec.sims, 1))
        stream = RngStream(spec.seed, 0, ("null-band", m, n, spec.sims, round(a, 12)))
        rows = stream.generator.permuted(rows, axis=1)
        z = np.arange(1, m + n)

        def statistic(row, z=z, m=m, n=n):
            return (np.cumsum(row)[:-1] - z * (m / (m + n))) / w_scale(z, m, n)

        yield m, n, c, [row for row in rows if statistic(row).max() == c], statistic


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
        ties = raised = 0
        for m, n, c, tied, statistic in _tie_rows():
            assert tied, (m, n)
            ties += len(tied)
            for row in tied:
                path = _path_from(np.cumsum(row)[:-1], m, n)
                assert is_violated(path, 0.0, TIE_SPEC) == (False, None)
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
                assert is_violated(path, 0.0, TIE_SPEC) == (True, int(np.argmax(stat)) + 1)
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


class TestSequentialDecision:
    """is_violated decides T_obs > c from the null rows that settle it, and
    its verdict is always that of the completed constant."""

    @pytest.mark.parametrize("draw", ["stored", "over_budget"])
    @pytest.mark.parametrize("kind", ["analytic", "simulated"])
    def test_verdict_is_the_comparison_with_the_constant(self, monkeypatch, kind, draw):
        # Every pair the bisection reaches on seeded samples is decided on a
        # fresh record, then compared with T_obs > band_constant(...).c.  The
        # analytic samples reach m_eff < 8, where that band simulates above
        # its floor.  Over the draw budget a query still cuts only the rows
        # that settle it, from one fresh draw per queried pair.
        sims = 400
        monkeypatch.setattr(counting, "_CHUNK_IDS", 1500)  # chunks of 3 to 150 rows
        if draw == "over_budget":
            monkeypatch.setattr(counting, "_DRAW_BUDGET", 0)
        rows = count_null_rows(monkeypatch)
        draws = []
        draw_rows = counting._draw_rows
        monkeypatch.setattr(counting, "_draw_rows",
                            lambda *args: draws.append(args[1:]) or draw_rows(*args))
        queries = []
        exceeds_band = counting.exceeds_band

        def recorded(t, **key):
            verdict = exceeds_band(t, **key)
            queries.append((t, key, verdict))
            return verdict

        monkeypatch.setattr(bounding, "exceeds_band", recorded)
        spec = BoundSpec(alpha=0.05, band_kind=kind, sims=sims, seed=1)
        rng = np.random.default_rng(8)
        checked = fallback = floored = partial = 0
        for m, n, shift in [(60, 60, 0.8), (10, 90, 3.0), (150, 40, 0.4), (30, 30, 0.0),
                            (12, 200, 2.5), (90, 15, 1.5), (200, 200, 0.3)]:
            scores = np.concatenate([rng.normal(-shift, 1.0, m), rng.normal(0.0, 1.0, n)])
            data = LabeledScores(scores, np.repeat([0, 1], [m, n]), tie_seed=m)
            counting.clear_band_cache()
            queries.clear()
            rows.clear()
            draws.clear()
            lambda_adapt(data, spec)
            cut = {}
            for m_eff, n_eff, r in rows:
                cut[m_eff, n_eff] = cut.get((m_eff, n_eff), 0) + r
            drawn = len(draws)
            for t, key, verdict in queries:
                assert verdict == (t > band_constant(**key).c), (m, n, key)
                checked += 1
                fallback += kind == "analytic" and key["m_eff"] < 8
            # each pair is queried once, and its rows are cut at its sizes
            partial += sum(0 < r < sims for r in cut.values())
            floored += sum(kind == "analytic" and k["m_eff"] < 8
                           and (k["m_eff"], k["n_eff"]) not in cut for _, k, _ in queries)
            if draw == "over_budget":
                assert drawn == len(cut)
            elif kind == "simulated":
                assert drawn == 1
        assert checked >= 30
        if kind == "analytic":
            assert fallback >= 10 and floored >= 3
        assert partial >= (3 if kind == "analytic" else 30)
        counting.clear_band_cache()


    def test_verdict_at_the_order_statistics_around_the_rank(self, monkeypatch):
        # Statistics at and between the null rows' order statistics T_(k-2)
        # .. T_(k+1), each decided on a fresh record from chunks of 5 to 15
        # rows: exactly k - 1 rows below t (t in (T_(k-1), T_(k)]) is not
        # a violation, and exactly k is
        monkeypatch.setattr(counting, "_CHUNK_IDS", 2000)
        a, sims = 0.05 / 3, 400
        k = sims + 1 - int(a * (sims + 1))
        gaps = 0
        for kind, m_eff, n_eff, removed in [("simulated", 150, 180, (20, 30)),
                                            ("simulated", 200, 130, (0, 0)),
                                            ("analytic", 3, 400, (0, 0))]:
            key = dict(alpha=a, m_eff=m_eff, n_eff=n_eff, kind=kind, sims=sims, seed=4,
                       removed=removed)
            counting.clear_band_cache()
            # every statistic of the key's null draw, exact at floor -inf
            m, N = m_eff + removed[0], m_eff + n_eff + sum(removed)
            cut = counting._null_draw(counting._band_record(**key)._identity, N, sims, m,
                                      removed)
            T = np.sort(np.concatenate(list(
                counting._block_sups(cut, m_eff, n_eff, lambda bounds: -np.inf))))
            c = band_constant(**key).c
            assert c == max(T[k - 1], beta_threshold(a, 8) if kind == "analytic" else 0.0)
            gaps += T[k - 2] < T[k - 1]
            ts = []
            for j in range(k - 3, k + 1):
                ts += [T[j], np.nextafter(T[j], -np.inf), np.nextafter(T[j], np.inf)]
            for t in ts:
                counting.clear_band_cache()
                assert counting.exceeds_band(t, **key) == (t > c), (key, t)
        assert gaps >= 2
        counting.clear_band_cache()

    def test_fallback_floor_settles_without_rows(self, monkeypatch):
        # the analytic band's m_eff < 8 constant is max(T_(k), beta(a, 8)):
        # a statistic at or below the floor is decided with no null row
        rows = count_null_rows(monkeypatch)
        a = 0.05 / 3
        floor = beta_threshold(a, 8)
        for m_eff, n_eff in [(5, 50), (3, 400), (7, 7), (1, 30)]:
            key = dict(alpha=a, m_eff=m_eff, n_eff=n_eff, kind="analytic", sims=400, seed=3)
            counting.clear_band_cache()
            assert not counting.exceeds_band(floor, **key)
            assert rows == []
            c = band_constant(**key).c
            assert c >= floor and sum(r for _, _, r in rows) == 400
            for t in (floor, np.nextafter(floor, np.inf), c, np.nextafter(c, np.inf), c + 1.0):
                counting.clear_band_cache()
                assert counting.exceeds_band(t, **key) == (t > c)
            rows.clear()
        counting.clear_band_cache()

    def test_tie_rows_on_a_fresh_record(self, monkeypatch):
        # each tie row of test_tie_with_the_band_constant_is_not_a_violation
        # is decided on a fresh record, from chunks of 1 to 50 rows: T_obs = c
        # is not above the k-th smallest statistic, and the rank rule stops
        # only once it has sims + 1 - k rows at or above T_obs
        monkeypatch.setattr(counting, "_CHUNK_IDS", 2000)
        ties = 0
        for m, n, c, tied, _ in _tie_rows():
            for row in tied:
                counting.clear_band_cache()
                path = _path_from(np.cumsum(row)[:-1], m, n)
                assert is_violated(path, 0.0, TIE_SPEC) == (False, None)
                ties += 1
        assert ties == 48
        counting.clear_band_cache()

    @pytest.mark.parametrize("draw", ["stored", "over_budget"])
    def test_far_candidate_is_settled_by_the_first_chunk(self, monkeypatch, draw):
        # guards the saving: lam = 0.5 on data/two_sample_contamination.csv
        # (N = 400, value 0.0836) is not refuted, and the first chunk of the
        # default spec's draw, 327 of its 1000 rows, says so, whether or not
        # the draw is stored
        if draw == "over_budget":
            monkeypatch.setattr(counting, "_DRAW_BUDGET", 0)
        rows = count_null_rows(monkeypatch)
        data = io.parse_two_sample(Path(__file__).resolve().parent.parent / "data"
                                   / "two_sample_contamination.csv")
        path = build_counting_path(data)
        spec = BoundSpec()
        counting.clear_band_cache()
        assert is_violated(path, 0.5, spec) == (False, None)
        first = counting._CHUNK_IDS // data.total
        assert [r for _, _, r in rows] == [first] and first < spec.sims
        # the record keeps at most sims + 1 - k of those statistics, and drops
        # them once complete
        key = bounding._band_key(effective_sizes(0.5, data.m, data.n, spec), spec)
        record = counting._band_record(**key)
        assert record._rows == first and record._stats.size <= spec.sims + 1 - record._k
        assert band_constant(**key) is record.const and record._stats is None
        assert sum(r for _, _, r in rows) == spec.sims
        counting.clear_band_cache()


@pytest.mark.parametrize("field,value", [
    ("sims", 1000.5), ("sims", 1000.0), ("sims", "1000"), ("seed", 1.5), ("seed", 2.0),
    ("seed", True), ("seed", False), ("seed", None), ("seed", "3"),
    pytest.param("sims", np.float64(1e3), id="sims-float64"),
])
def test_boundspec_rejects_a_non_integer_budget_or_seed(field, value):
    # a fractional sims used to pass here and fail later with TypeError in the band
    # record; a fractional seed was silently truncated by the stream, and a
    # bool seed was taken as 0 or 1
    with pytest.raises(ParameterError, match=field):
        BoundSpec(**{field: value})


@pytest.mark.parametrize("value", ["0.05", None, 0.05j])
def test_boundspec_rejects_a_non_real_alpha(value):
    # a string alpha used to fail with TypeError in the range check
    with pytest.raises(ParameterError, match="alpha"):
        BoundSpec(alpha=value)


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
    BoundSpec(sims=np.int64(1000), seed=np.int64(2))
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
    q_m = binom_quantile(1 - spec.alpha / 3, lam, m)
    assert effective_sizes(lam, m, n, spec).q_m == q_m
