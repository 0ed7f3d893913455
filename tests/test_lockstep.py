"""The lockstep search: every row of a stacked descent is the descent of its start alone."""

import math

import numpy as np
import pytest

from qcorr import correlations, families, linalg
from qcorr.correlations import OptimizerOptions, measure_correlations
from qcorr.entropy import EntropicIndices, spectral_sum

INDICES = [EntropicIndices(q, s) for q, s in ((0.5, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.5))]
TS2 = EntropicIndices(2.0, 1.0)


def search_problem(rho, side, idx):
    """The objective and gradient ``measure_correlations`` descends for (rho, side, idx)."""
    t = rho.matrix.reshape(rho.dims + rho.dims)
    before = spectral_sum(linalg.spectrum(rho), idx)
    return (
        correlations._objective_factory(t, side, idx, before),
        correlations._gradient_factory(t, side, idx, before),
    )


def reference_descent(objective, gradient, us, opts):
    """One restart by the per-restart loop the lockstep search replaced.

    The same rules and the same stacked kernels, on a stack of one row, so
    its arithmetic is that of ``minimize`` and the results must be equal.
    """
    us = tuple(u[None] for u in us)
    f, nfev, change = objective(*us)[0], 1, None
    g = correlations._flat(gradient(*us))
    gg = correlations._inner(g, g)[0]

    def result(nit, success, grad2):
        return (f, nit, nfev, success, math.sqrt(grad2))

    d = -g
    for it in range(opts.max_iter):
        if gg < correlations.GRAD_TOL * correlations.GRAD_TOL:
            return result(it, True, gg)
        slope = correlations._inner(d, g)[0]
        if slope >= 0.0:
            d, slope = -g, -gg
        dnorm = math.sqrt(correlations._inner(d, d)[0])
        step = 0.5 / dnorm if change is None else min(0.5 / dnorm, 2.0 * change / slope)
        paths = [correlations._exp_path(u, x) for u, x in zip(us, correlations._sides(d, us))]
        backtracked = False
        while True:
            trial = tuple(path(np.array([step])) for path in paths)
            f_trial = objective(*trial)[0]
            nfev += 1
            if f_trial <= f + correlations.ARMIJO * step * slope:
                break
            backtracked = True
            curvature = f_trial - f - slope * step
            step = min(max(-0.5 * slope * step * step / curvature, 0.1 * step), 0.5 * step)
            if not step * dnorm >= correlations.MIN_ANGLE:
                flat = gg < correlations.GRAD_TOL * correlations.GRAD_TOL or gg <= opts.tol * abs(f)
                return result(it + 1, flat, gg)
        change, f, us = f_trial - f, f_trial, trial
        g_new = correlations._flat(gradient(*us))
        gg_new = correlations._inner(g_new, g_new)[0]
        if not backtracked and -change <= opts.tol * abs(f):
            return result(it + 1, True, gg_new)
        beta = max(0.0, (gg_new - correlations._inner(g_new, g)[0]) / gg)
        d = beta * d - g_new
        g, gg = g_new, gg_new
    return result(opts.max_iter, gg < correlations.GRAD_TOL * correlations.GRAD_TOL, gg)


def rank_two_state():
    """A rank-2 3x3 state: at q = 0.3 its descents stall at cusps."""
    rng = np.random.default_rng(7)
    v = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    return linalg.make_density(v @ v.conj().T, (3, 3))


def random_state(dims):
    return lambda: linalg.random_density(dims, np.random.default_rng(list(dims)))


@pytest.mark.parametrize(
    "state, side, idx, max_iter",
    [
        (lambda: families.build(families.FamilySpec("werner", 2, 2, 0.3)), "AB", TS2, 2000),
        (random_state((2, 2)), "AB", TS2, 2000),
        (random_state((2, 3)), "A", EntropicIndices(1.0, 1.0), 2000),
        (random_state((3, 3)), "B", TS2, 3),
        (rank_two_state, "A", EntropicIndices(0.3, 1.0), 2000),
    ],
    ids=["werner AB", "2x2 AB", "2x3 A", "3x3 B capped", "rank-2 A stalls"],
)
def test_minimize_matches_per_restart_loop(state, side, idx, max_iter):
    rho, rng = state(), np.random.default_rng(3)
    opts = OptimizerOptions(restarts=1, max_iter=max_iter)
    objective, gradient = search_problem(rho, side, idx)
    starts = [[correlations._eigenbasis(rho, k) for k, name in enumerate("AB") if name in side]]
    starts += [[linalg.haar_unitary(n, rng) for n in side_dims(rho, side)] for _ in range(3)]
    for start in starts:
        run = correlations.minimize(objective, gradient, start, opts)
        reference = reference_descent(objective, gradient, start, opts)
        assert (run.fun, run.nit, run.nfev, run.success, run.grad_norm) == reference


def side_dims(rho, side):
    return [n for n, name in zip(rho.dims, "AB") if name in side]


def record_rows(monkeypatch):
    """Collect the per-row results (and inputs) of every lockstep call."""
    calls, lockstep = [], correlations._lockstep

    def spy(objective, gradient, us, opts):
        runs = lockstep(objective, gradient, us, opts)
        calls.append((us, runs))
        return runs

    monkeypatch.setattr(correlations, "_lockstep", spy)
    return calls


@pytest.mark.parametrize("idx", INDICES, ids=lambda i: f"q={i.q:g},s={i.s:g}")
@pytest.mark.parametrize("side", ["A", "B", "AB"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_rows_match_lone_descents(dims, side, idx):
    rng = np.random.default_rng([dims[0], dims[1], len(side)])
    rho = linalg.random_density(dims, rng)
    objective, gradient = search_problem(rho, side, idx)
    starts = [[linalg.haar_unitary(n, rng) for n in side_dims(rho, side)] for _ in range(8)]
    opts = OptimizerOptions(restarts=8)
    stacked = correlations._lockstep(objective, gradient, tuple(np.array(s) for s in zip(*starts)), opts)
    for start, row in zip(starts, stacked):
        alone = correlations.minimize(objective, gradient, start, opts)
        assert abs(row.fun - alone.fun) <= 1e-9


class TestTotalsOverRows:
    """``iterations`` and ``nfev`` are the sums over the rows, however each row ended."""

    @staticmethod
    def check_totals(res, runs):
        assert len(runs) == res.restarts_used
        assert res.iterations == sum(r.nit for r in runs)
        assert res.nfev == sum(r.nfev for r in runs)
        assert res.value == min(r.fun for r in runs)

    def test_rows_stopping_at_iteration_zero(self, monkeypatch):
        # the Werner state's eigenbasis start is stationary on side AB, the
        # Haar starts are not
        calls = record_rows(monkeypatch)
        rho = families.build(families.FamilySpec("werner", 2, 2, 0.3))
        res = measure_correlations(rho, "AB", TS2, OptimizerOptions(restarts=8, seed=1))
        (_, runs), = calls
        assert (runs[0].nit, runs[0].nfev, runs[0].success) == (0, 1, True)
        assert all(r.nit > 0 for r in runs[1:])
        self.check_totals(res, runs)

    def test_rows_capped_at_max_iter(self, monkeypatch):
        calls = record_rows(monkeypatch)
        rho = linalg.random_density((3, 3), np.random.default_rng(12))
        res = measure_correlations(rho, "B", TS2, OptimizerOptions(restarts=8, seed=2, max_iter=3))
        (_, runs), = calls
        assert all(r.nit <= 3 for r in runs)
        assert sum(r.nit == 3 and not r.success for r in runs) >= 4
        self.check_totals(res, runs)

    def test_stalled_rows(self, monkeypatch):
        # a rank-2 3x3 state at q = 0.3: rows stall at cusps, where a
        # measured probability reaches 0, before the others finish
        calls = record_rows(monkeypatch)
        opts = OptimizerOptions(restarts=8, seed=3)
        res = measure_correlations(rank_two_state(), "A", EntropicIndices(0.3, 1.0), opts)
        (_, runs), = calls
        assert not any(r.success for r in runs)
        assert len({r.nit for r in runs}) > 1
        self.check_totals(res, runs)


def test_side_ab_warm_start_is_row_one(monkeypatch):
    calls = record_rows(monkeypatch)
    rho = linalg.random_density((2, 3), np.random.default_rng(21))
    warm = np.random.default_rng(22).standard_normal(3 + 8)
    measure_correlations(rho, "AB", TS2, OptimizerOptions(restarts=4, seed=5), warm_starts=(warm,))
    (us, _), = calls
    assert [u.shape for u in us] == [(4, 2, 2), (4, 3, 3)]
    np.testing.assert_array_equal(us[0][1], correlations._unitary_from_angles(warm[:3], 2))
    np.testing.assert_array_equal(us[1][1], correlations._unitary_from_angles(warm[3:], 3))
    np.testing.assert_array_equal(us[0][0], correlations._eigenbasis(rho, 0))


def test_objective_calls_are_stacked(monkeypatch):
    """One objective call serves every row still pending in a line-search round."""
    calls, rows, factory = [0], [0], correlations._objective_factory

    def counting_factory(*args):
        objective = factory(*args)

        def counted(*us):
            calls[0] += 1
            rows[0] += len(us[0])
            return objective(*us)

        return counted

    monkeypatch.setattr(correlations, "_objective_factory", counting_factory)
    rho = linalg.random_density((3, 3), np.random.default_rng(8))
    res = measure_correlations(rho, "A", TS2, OptimizerOptions(restarts=8, seed=4))
    assert rows[0] == res.nfev
    assert 0 < calls[0] < res.nfev
