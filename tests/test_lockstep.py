"""The lockstep search: every row of a stacked BFGS descent follows the rules of its start's lone descent."""

import collections
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qcorr import correlations, families, linalg, measurement
from qcorr.correlations import OptimizerOptions, measure_correlations
from qcorr.entropy import EntropicIndices, spectral_sum, unified_entropy, unified_from_renyi
from qcorr.measurement import LocalMeasurement, ProjectiveBasis
from util import cc_state, cq_state

INDICES = [EntropicIndices(q, s) for q, s in ((0.5, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.5))]
TS2 = EntropicIndices(2.0, 1.0)


def search_problem(rho, side, idx):
    """The value-and-gradient function ``measure_correlations`` descends for (rho, side, idx): the Renyi measure at idx.q."""
    t = rho.matrix.reshape(rho.dims + rho.dims)
    before = spectral_sum(linalg.spectrum(rho), idx)
    return correlations._objective_factory(t, side, idx.q, before)


def reference_descent(evaluate, us, opts):
    """One restart as a lone Riemannian BFGS descent, with scalar control flow.

    The rules of ``_lockstep`` written out for one start, on the same stacked
    kernels (``evaluate``, ``_exp_path``, ``_inner`` and the BFGS update and
    direction) on a stack of one row, so its arithmetic is that of
    ``lone_descent`` and the results must be equal.  Gradients and directions
    are coordinate rows, each side's columns in turn.  Returns a
    ``LocalSearch`` whose unitaries are the end point's: after a stall, the
    point before the failed trials.
    """
    us = tuple(u[None] for u in us)
    f, g = evaluate(*us)
    f, nfev = f[0], 1
    gg = correlations._inner(g, g)[0]
    h, scaled = np.eye(g.shape[1])[None], np.zeros(1, dtype=bool)

    def result(nit, grad2):
        # success is stationarity, whichever test ended the descent
        return correlations.LocalSearch(f, tuple(u[0] for u in us), math.sqrt(grad2), nfev, nit, stationary(f, grad2))

    d = -g
    for it in range(opts.max_iter):
        if gg < correlations.GRAD_TOL * correlations.GRAD_TOL:
            return result(it, gg)
        slope = correlations._inner(d, g)[0]
        if slope >= 0.0:
            d, slope = -g, -gg
        dnorm = math.sqrt(correlations._inner(d, d)[0])
        # the first trial rotates by 0.5 rad until the row has an inverse
        # Hessian, then it is the unit step within that cap
        step = min(1.0, 0.5 / dnorm) if scaled[0] else 0.5 / dnorm
        paths = [correlations._exp_path(u, x) for u, x in zip(us, side_columns(d, us))]
        backtracked = False
        while True:
            trial = tuple(path(np.array([step])) for path in paths)
            f_trial, g_trial = evaluate(*trial)
            f_trial = f_trial[0]
            nfev += 1
            if f_trial <= f + correlations.ARMIJO * step * slope:
                break
            backtracked = True
            curvature = f_trial - f - slope * step
            step = min(max(-0.5 * slope * step * step / curvature, 0.1 * step), 0.5 * step)
            if not step * dnorm >= correlations.MIN_ANGLE:
                return result(it + 1, gg)
        change, f, us, g_new = f_trial - f, f_trial, trial, g_trial
        gg_new = correlations._inner(g_new, g_new)[0]
        h, scaled = correlations._bfgs_update(h, scaled, step * d, g_new - g)
        if not backtracked and -change <= correlations.DECREASE_TOL * abs(f):
            return result(it + 1, gg_new)
        d = correlations._bfgs_direction(h, g_new)
        g, gg = g_new, gg_new
    return result(opts.max_iter, gg)


def lone_descent(evaluate, start, opts):
    """``_lockstep`` on a stack of one row: the descent from ``start`` (one unitary per side) alone."""
    (run,) = correlations._lockstep(evaluate, tuple(np.asarray(u)[None] for u in start), opts)
    return run


def stationary(f, grad2, entropy=0.0):
    """The stationarity test: a gradient below GRAD_TOL, or one promising at most DECREASE_TOL of |f| + ``entropy``."""
    return grad2 < correlations.GRAD_TOL * correlations.GRAD_TOL or grad2 <= correlations.DECREASE_TOL * (abs(f) + entropy)


def side_columns(c, us):
    """Each side's columns of the coordinate rows c, for the unitary stacks ``us``."""
    ends = np.cumsum([u.shape[-1] * (u.shape[-1] - 1) for u in us])
    return np.split(c, ends[:-1], axis=1)


def tangent_matrices(c, n):
    """K = sum_j c_j B_j for each coordinate row of c (side dimension n)."""
    return (c @ correlations._tangent_basis(n)[0]).reshape(len(c), n, n)


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
    evaluate = search_problem(rho, side, idx)
    starts = [[correlations._eigenbasis(rho, k) for k, name in enumerate("AB") if name in side]]
    starts += [[linalg.haar_unitary(n, rng) for n in side_dims(rho, side)] for _ in range(3)]
    for start in starts:
        run = lone_descent(evaluate, start, opts)
        assert_same_run(run, reference_descent(evaluate, start, opts))
        # the boundaries of the one site that settles stops: no iteration,
        # one, and the caps just before and at the run's own end, where the
        # cap and the test that ended the run fire in the same pass
        for cap in (0, 1, run.nit - 1, run.nit):
            capped = OptimizerOptions(restarts=1, max_iter=max(cap, 0))
            assert_same_run(lone_descent(evaluate, start, capped), reference_descent(evaluate, start, capped))
    # the same starts as one stack: each row is its start's lone descent
    stacked = correlations._lockstep(evaluate, tuple(np.array(s) for s in zip(*starts)), opts)
    for start, row in zip(starts, stacked, strict=True):
        assert_same_run(row, reference_descent(evaluate, start, opts))


def side_dims(rho, side):
    return [n for n, name in zip(rho.dims, "AB") if name in side]


def record_rows(monkeypatch):
    """Collect the per-row results (and inputs) of every lockstep call."""
    calls, lockstep = [], correlations._lockstep

    def spy(evaluate, us, opts, entropy=0.0):
        runs = lockstep(evaluate, us, opts, entropy)
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
    evaluate = search_problem(rho, side, idx)
    starts = [[linalg.haar_unitary(n, rng) for n in side_dims(rho, side)] for _ in range(8)]
    opts = OptimizerOptions(restarts=8)
    stacked = correlations._lockstep(evaluate, tuple(np.array(s) for s in zip(*starts)), opts)
    for start, row in zip(starts, stacked):
        assert_same_run(row, lone_descent(evaluate, start, opts))


def assert_same_run(run, other):
    """Two ``LocalSearch`` results are equal bit for bit: every field and every unitary."""
    assert (run.fun, run.nit, run.nfev, run.success, run.grad_norm) == (
        other.fun, other.nit, other.nfev, other.success, other.grad_norm)
    for u, v in zip(run.unitaries, other.unitaries, strict=True):
        np.testing.assert_array_equal(u, v)


def cusp_gate_state(k):
    """State k of the cusp gate: for rank 2 then 3 and dims 2x2, 2x3, 3x3, four mixtures of random pure states each.

    All 24 come from one ``default_rng(7)`` stream, as in scripts/check_search_bits.py.
    """
    rng = np.random.default_rng(7)
    for rank, dims, _ in itertools.islice(itertools.product((2, 3), ((2, 2), (2, 3), (3, 3)), range(4)), k + 1):
        weights = rng.dirichlet(np.ones(rank))
        vectors = [linalg.random_pure(dims, rng) for _ in range(rank)]
    return linalg.make_density(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors)), dims)


@pytest.mark.parametrize(
    "k, q, side", [(2, 0.3, "A"), (4, 0.5, "A"), (6, 0.5, "AB"), (20, 0.3, "AB")], ids=str)
def test_more_restarts_never_report_a_worse_value(monkeypatch, k, q, side):
    """From one seed, the first 8 rows of a 16-restart search are the 8-restart rows, so its value is no higher.

    Cusp-gate calls (seed = state index) on which a row's descent once
    depended on the stack's size: the 16-restart value was the higher one.
    """
    calls = record_rows(monkeypatch)
    idx = EntropicIndices(q, 1.0)
    few, many = (measure_correlations(cusp_gate_state(k), side, idx, OptimizerOptions(restarts=r, seed=k))
                 for r in (8, 16))
    (_, short), (_, long) = calls
    for run, other in zip(short, long[:8], strict=True):
        assert_same_run(run, other)
    assert many.value <= few.value


class TestTotalsOverRows:
    """``iterations`` and ``nfev`` are the sums over the rows, however each row ended."""

    @staticmethod
    def check_totals(res, runs, idx):
        assert len(runs) == res.restarts_used
        assert res.iterations == sum(r.nit for r in runs)
        assert res.nfev == sum(r.nfev for r in runs)
        assert res.value == unified_from_renyi(min(r.fun for r in runs), idx)

    def test_rows_stopping_at_iteration_zero(self, monkeypatch):
        # the Werner state's eigenbasis start is stationary on side AB, the
        # Haar starts are not
        calls = record_rows(monkeypatch)
        rho = families.build(families.FamilySpec("werner", 2, 2, 0.3))
        res = measure_correlations(rho, "AB", TS2, OptimizerOptions(restarts=8, seed=1))
        (_, runs), = calls
        assert (runs[0].nit, runs[0].nfev, runs[0].success) == (0, 1, True)
        assert all(r.nit > 0 for r in runs[1:])
        self.check_totals(res, runs, TS2)

    def test_rows_capped_at_max_iter(self, monkeypatch):
        calls = record_rows(monkeypatch)
        rho = linalg.random_density((3, 3), np.random.default_rng(12))
        res = measure_correlations(rho, "B", TS2, OptimizerOptions(restarts=8, seed=2, max_iter=3))
        (_, runs), = calls
        assert all(r.nit <= 3 for r in runs)
        assert sum(r.nit == 3 and not r.success for r in runs) >= 4
        self.check_totals(res, runs, TS2)

    def test_stalled_rows(self, monkeypatch):
        # a rank-2 3x3 state at q = 0.3: rows stall at cusps, where a
        # measured probability reaches 0, before the others finish
        calls = record_rows(monkeypatch)
        opts = OptimizerOptions(restarts=8, seed=3)
        res = measure_correlations(rank_two_state(), "A", EntropicIndices(0.3, 1.0), opts)
        (_, runs), = calls
        assert not any(r.success for r in runs)
        assert len({r.nit for r in runs}) > 1
        self.check_totals(res, runs, EntropicIndices(0.3, 1.0))


def test_success_means_stationary_at_a_cusp(monkeypatch):
    """A row that a stopping test ends at a cusp is not a success: ``success`` is stationarity at every stop.

    The first cusp-gate state (rank 2, 2x2) on side AB at q = 0.5: every
    row ends near a cusp, one of them by the decrease test at a gradient
    norm of 0.044.
    """
    calls = record_rows(monkeypatch)
    rho = cusp_gate_state(0)
    measure_correlations(rho, "AB", EntropicIndices(0.5, 1.0), OptimizerOptions(restarts=8, seed=0))
    (_, runs), = calls
    assert max(r.grad_norm for r in runs) > 1e-2
    entropy = unified_entropy(rho, EntropicIndices(0.5, 0.0))
    for r in runs:
        assert not r.success or stationary(r.fun, r.grad_norm**2, entropy), (r.fun, r.grad_norm, r.nit)


def haar_warm_start(side, dims, seed):
    """A warm start on ``side`` with Haar-random bases of the given dimensions."""
    rng = np.random.default_rng(seed)
    bases = {f"basis_{name.lower()}": ProjectiveBasis(linalg.haar_unitary(n, rng)) for name, n in zip(side, dims)}
    return LocalMeasurement(side, **bases)


def test_side_ab_warm_start_is_row_one(monkeypatch):
    calls = record_rows(monkeypatch)
    rho = linalg.random_density((2, 3), np.random.default_rng(21))
    warm = haar_warm_start("AB", (2, 3), 22)
    measure_correlations(rho, "AB", TS2, OptimizerOptions(restarts=4, seed=5), warm_starts=(warm,))
    (us, _), = calls
    assert [u.shape for u in us] == [(4, 2, 2), (4, 3, 3)]
    np.testing.assert_array_equal(us[0][1], warm.basis_a.unitary)
    np.testing.assert_array_equal(us[1][1], warm.basis_b.unitary)
    np.testing.assert_array_equal(us[0][0], correlations._eigenbasis(rho, 0))


@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("side", ["A", "B", "AB"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_values_match_the_value_kernels(dims, side, rows):
    """``evaluate``'s values are the value kernels' ``_spectrum_side_*`` then ``disturbance_spectra`` at (q, 0).

    Mapped to (q, s), they are the disturbance at (q, s).
    """
    rng = np.random.default_rng([dims[0], dims[1], len(side), rows])
    rho = linalg.random_density(dims, rng)
    t = rho.matrix.reshape(dims + dims)
    us = [np.array([linalg.haar_unitary(n, rng) for _ in range(rows)]) for n in side_dims(rho, side)]
    kernel = {"A": measurement._spectrum_side_a, "B": measurement._spectrum_side_b, "AB": measurement._spectrum_side_ab}
    for idx in INDICES:
        values, grads = search_problem(rho, side, idx)(*us)
        after = kernel[side](t, *us)
        expected = measurement.disturbance_spectra(linalg.spectrum(rho), after, EntropicIndices(idx.q, 0.0))
        np.testing.assert_allclose(values, expected, rtol=1e-14, atol=0.0)
        expected = measurement.disturbance_spectra(linalg.spectrum(rho), after, idx)
        np.testing.assert_allclose(unified_from_renyi(values, idx), expected, rtol=1e-14, atol=0.0)
        assert grads.dtype == float and grads.shape == (rows, sum(u.shape[-1] * (u.shape[-1] - 1) for u in us))


def unified_problem(rho, side, idx):
    """The (q, s) disturbance itself and its Riemannian gradient, for a search of it that skips the map.

    Values come from the value kernels and ``disturbance_spectra`` at idx; the
    gradient is the Renyi one times dM/dR, the purity ratio
    (Tr after^q / Tr before^q)^s, taken from the spectral sums.
    """
    t, before = rho.matrix.reshape(rho.dims + rho.dims), linalg.spectrum(rho)
    kernel = {"A": measurement._spectrum_side_a, "B": measurement._spectrum_side_b, "AB": measurement._spectrum_side_ab}
    renyi = search_problem(rho, side, idx)

    def evaluate(*us):
        after = kernel[side](t, *us)
        ratio = np.exp(idx.s * (spectral_sum(after, idx) - spectral_sum(before, idx)))
        return measurement.disturbance_spectra(before, after, idx), renyi(*us)[1] * ratio[:, None]

    return evaluate


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_every_s_maps_the_renyi_search(monkeypatch, dims):
    """The value at (q, s) is the Renyi search's value mapped to s, as a search of the (q, s) disturbance finds it.

    The map is strictly increasing in the Renyi measure, so both searches
    share their argmin; the direct one runs from the same starts, through
    ``measure_correlations`` at s = 0, where the map is the identity.  Both
    stop at tighter tests than the package's: at GRAD_TOL and DECREASE_TOL
    each value is only as close to the minimum as its descent's stop (up to
    1.3e-11 relative apart on these states with 4 restarts), and here they
    agree to about 1e-13.
    """
    monkeypatch.setattr(correlations, "GRAD_TOL", 1e-11)
    monkeypatch.setattr(correlations, "DECREASE_TOL", 1e-14)
    rho = linalg.random_density(dims, np.random.default_rng([61, *dims]))
    opts = OptimizerOptions(restarts=2, seed=1)
    for side in ("A", "B", "AB"):
        for q in (0.5, 2.0, 3.0):
            for s in (1.0, 0.5, -1.0):
                idx = EntropicIndices(q, s)
                mapped = measure_correlations(rho, side, idx, opts).value
                evaluate = unified_problem(rho, side, idx)
                with monkeypatch.context() as patch:
                    patch.setattr(correlations, "_objective_factory", lambda *args: evaluate)
                    direct = measure_correlations(rho, side, EntropicIndices(q, 0.0), opts).value
                assert abs(mapped - direct) <= 1e-12 * abs(direct), (side, q, s, mapped, direct)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tangent_basis_is_orthonormal_on_the_zero_diagonal_hermitian_matrices(n):
    """B_j = G_j / sqrt 2 over the off-diagonal generators: Tr(B_j B_k) = delta_jk, n(n - 1) of them.

    Any zero-diagonal Hermitian K has coordinates c with c @ B = K and
    |c| = |K|_F, and ``_coordinates`` reads them back from x = iK/2, whose
    -i(x - x^dag) is K.
    """
    basis, _ = correlations._tangent_basis(n)
    mats = basis.reshape(-1, n, n)
    assert len(mats) == n * (n - 1)
    np.testing.assert_allclose(basis @ basis.conj().T, np.eye(n * (n - 1)), rtol=0.0, atol=1e-15)
    assert np.all(mats == linalg.dag(mats))
    assert np.all(np.einsum("jaa->ja", mats) == 0.0)
    rng = np.random.default_rng([47, n])
    z = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    k = z + linalg.dag(z)
    k[:, np.arange(n), np.arange(n)] = 0.0
    c = correlations._coordinates(0.5j * k)
    back = correlations._coordinates(0.5j * tangent_matrices(c, n))
    np.testing.assert_allclose(tangent_matrices(c, n), k, rtol=0.0, atol=1e-15 * np.abs(k).max())
    np.testing.assert_allclose(back, c, rtol=0.0, atol=1e-15 * np.abs(c).max())
    np.testing.assert_allclose(np.linalg.norm(c, axis=1), np.linalg.norm(k, axis=(1, 2)), rtol=1e-15)


@pytest.mark.parametrize("idx", INDICES, ids=str)
@pytest.mark.parametrize("side", ["A", "B", "AB"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_phases_leave_the_value_unchanged(dims, side, idx):
    """U -> U exp(i eps D), D diagonal, rephases the basis and keeps the value: no coordinate needs it."""
    rng = np.random.default_rng([53, *dims, len(side)])
    rho = linalg.random_density(dims, rng)
    evaluate = search_problem(rho, side, idx)
    us = [np.array([linalg.haar_unitary(n, rng) for _ in range(4)]) for n in side_dims(rho, side)]
    values = evaluate(*us)[0]
    for k, u in enumerate(us):
        moved = list(us)
        moved[k] = u * np.exp(0.3j * rng.standard_normal((4, 1, u.shape[-1])))
        np.testing.assert_allclose(evaluate(*moved)[0], values, rtol=0.0, atol=1e-14)


def test_objective_calls_are_stacked(monkeypatch):
    """One ``evaluate`` call per line-search round, and one at the start, serves every pending row.

    Rounds are counted from the trial points: each round moves every side
    once along its ``_exp_path``.  No value-only kernel runs.
    """
    counts = collections.Counter()
    factory, exp_path = correlations._objective_factory, correlations._exp_path

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            if name == "calls":
                counts["rows"] += len(args[0])
            return fn(*args)

        return wrapper

    monkeypatch.setattr(correlations, "_objective_factory", lambda *args: counted("calls", factory(*args)))
    monkeypatch.setattr(correlations, "_exp_path", lambda *args: counted("moves", exp_path(*args)))
    for module in (correlations, measurement):
        for name in ("_spectrum_side_a", "_spectrum_side_b", "_spectrum_side_ab"):
            monkeypatch.setattr(module, name, counted("spectra", getattr(module, name)))
    rho = linalg.random_density((3, 3), np.random.default_rng(8))
    for side in ("A", "B", "AB"):
        counts.clear()
        res = measure_correlations(rho, side, TS2, OptimizerOptions(restarts=8, seed=4))
        assert counts["rows"] == res.nfev
        assert 0 < counts["calls"] < res.nfev
        assert counts["calls"] == counts["moves"] // len(side) + 1
        assert counts["spectra"] == 0


@pytest.mark.parametrize("side", ["A", "B", "AB"])
def test_haar_starts_match_per_restart_draws(monkeypatch, side):
    """The Haar starts are one ``linalg.haar_batch`` draw from ``default_rng(seed)``.

    ``haar_batch`` equals a per-start loop of ``haar_unitary`` calls
    (``test_batched.py``), so the starts do too.
    """
    calls = record_rows(monkeypatch)
    rho = linalg.random_density((2, 3), np.random.default_rng(31))
    dims = side_dims(rho, side)
    warm = haar_warm_start(side, dims, 32)
    opts = OptimizerOptions(restarts=8, seed=6)
    measure_correlations(rho, side, TS2, opts, warm_starts=(warm,))
    (us, _), = calls
    starts = [[correlations._eigenbasis(rho, k) for k, name in enumerate("AB") if name in side]]
    starts.append([getattr(warm, f"basis_{name.lower()}").unitary for name in side])
    haar = linalg.haar_batch(np.random.default_rng(opts.seed), 6, dims)
    for stack, expected, drawn in zip(us, zip(*starts), haar):
        np.testing.assert_array_equal(stack, np.concatenate([np.array(expected), drawn]))


@pytest.mark.parametrize("idx", INDICES, ids=str)
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_side_b_is_side_a_of_the_swapped_state(dims, idx):
    """A side-B search equals a side-A search on the state with its subsystems exchanged."""
    rho = linalg.random_density(dims, np.random.default_rng([41, *dims]))
    opts = OptimizerOptions(restarts=8, seed=3)
    side_b = measure_correlations(rho, "B", idx, opts).value
    swapped = measure_correlations(linalg.permute_subsystems(rho, [1, 0]), "A", idx, opts).value
    assert abs(side_b - swapped) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exp_path_is_the_matrix_exponential(n):
    """``_exp_path(u, c)(steps)`` is u exp(i step K), K = c @ B, row by row, global phase included.

    The rows include a zero direction, which stays at u exactly, and directions of norm 1e-160 and
    1e-200, whose |c|^2 underflows; steps reach 50 rad, and every result is unitary to 1e-14.
    """
    rng = np.random.default_rng([43, n])
    u = linalg.haar_batch(rng, 10, (n,))[0]
    c = rng.standard_normal((10, n * (n - 1)))
    c[6] = 0.0
    c[7:9] *= np.array([[1e-160], [1e-200]]) / np.linalg.norm(c[7:9], axis=1, keepdims=True)
    k = tangent_matrices(c, n)
    steps = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 50.0, 50.0, 50.0, 50.0])
    moved = correlations._exp_path(u, c)(steps)
    for row, step in enumerate(steps):
        np.testing.assert_allclose(moved[row], u[row] @ expm(1j * step * k[row]), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(linalg.dag(moved) @ moved, np.broadcast_to(np.eye(n), moved.shape), rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(moved[6], u[6])


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("state", ["product", "diag(0.3, 0.7) x I/2"])
def test_side_ab_row_with_a_still_side(monkeypatch, state, q):
    """A side-AB row whose B half of every direction is exactly zero keeps its B basis, with no warning.

    rho_B is diagonal and the warm start (row 1) measures B in the standard basis, so the rotated
    state has no B off-diagonal entry and B's gradient, step and BFGS block stay exactly zero: the
    qubit exponential meets r = 0 inside ``_lockstep`` and must return u for that row.
    """
    rng = np.random.default_rng(47)
    a = linalg.random_density(2, rng) if state == "product" else linalg.make_density(np.diag([0.3, 0.7]), (2,))
    b = linalg.make_density(np.diag([0.2, 0.8]) if state == "product" else np.eye(2) / 2, (2,))
    warm = LocalMeasurement("AB", ProjectiveBasis(linalg.haar_unitary(2, rng)), ProjectiveBasis(np.eye(2)))
    still_rows, exp_path = [], correlations._exp_path

    def spy(u, c):
        still, path = ~c.any(axis=1), exp_path(u, c)
        still_rows.append(int(still.sum()))

        def moved(steps):
            out = path(steps)
            np.testing.assert_array_equal(out[still], u[still])
            return out

        return moved

    monkeypatch.setattr(correlations, "_exp_path", spy)
    calls = record_rows(monkeypatch)
    res = measure_correlations(linalg.tensor(a, b), "AB", EntropicIndices(q, 1.0), OptimizerOptions(restarts=8, seed=2),
                               warm_starts=(warm,))
    assert sum(still_rows) > 0
    assert abs(res.value) <= 1e-14
    (_, runs), = calls
    np.testing.assert_array_equal(runs[1].unitaries[1], np.eye(2))


@pytest.mark.parametrize("side", ["A", "B", "AB"])
def test_qubit_search_diagonalizes_no_direction(monkeypatch, side):
    """A 2x2 search calls ``eigh`` only on the conditional blocks and for the eigenbasis starts.

    Each step follows the qubit exponential in closed form; a stacked (R, 2, 2) ``eigh`` of the
    directions would show here.
    """
    rho = linalg.random_density((2, 2), np.random.default_rng(53))
    shapes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    res = measure_correlations(rho, side, TS2, OptimizerOptions(restarts=8, seed=5))
    starts, blocks = ([s for s in shapes if len(s) == ndim] for ndim in (2, 4))
    assert res.iterations > 0
    assert len(starts) == len(side) and len(starts) + len(blocks) == len(shapes)
    assert len(blocks) > 0 if side != "AB" else not blocks


def record_bfgs(monkeypatch):
    """Collect (h before, mask before, s, y, h after, mask after) of every BFGS update."""
    calls, update = [], correlations._bfgs_update

    def spy(h, scaled, s, y):
        before = (h.copy(), scaled.copy())
        h_new, scaled_new = update(h, scaled, s, y)
        calls.append(before + (s.copy(), y.copy(), h_new.copy(), scaled_new.copy()))
        return h_new, scaled_new

    monkeypatch.setattr(correlations, "_bfgs_update", spy)
    return calls


def textbook_bfgs(h, scaled, s, y):
    """Nocedal & Wright's inverse update (6.17), with H0 = (s.y / y.y) I (6.20), one row."""
    if s @ y <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
        return h, scaled
    if not scaled:
        h = (s @ y) / (y @ y) * np.eye(len(s))
    rho, eye = 1.0 / (s @ y), np.eye(len(s))
    return (eye - rho * np.outer(s, y)) @ h @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s), True


def test_bfgs_update_is_the_textbook_update():
    # rows: first update, later update, negative curvature, zero step
    rng = np.random.default_rng(41)
    m = 12  # 3x3 side AB: 6 coordinates per side
    s = rng.standard_normal((4, m))
    y = s + 0.3 * rng.standard_normal((4, m))
    y[2], s[3] = -s[2], 0.0
    a = rng.standard_normal((m, m))
    h = np.stack([np.eye(m), a @ a.T + np.eye(m), np.eye(m), np.eye(m)])
    scaled = np.array([False, True, False, True])
    expected = [textbook_bfgs(h[k], scaled[k], s[k], y[k]) for k in range(4)]
    h_new, scaled_new = correlations._bfgs_update(h.copy(), scaled, s, y)
    assert scaled_new.tolist() == [True, True, False, True]
    for k, (h_k, _) in enumerate(expected):
        np.testing.assert_allclose(h_new[k], h_k, rtol=1e-12, atol=1e-12 * np.abs(h_k).max())
    for k in (0, 1):  # the secant equation H y = s
        np.testing.assert_allclose(h_new[k] @ y[k], s[k], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("side", ["A", "B", "AB"])
def test_bfgs_state_stays_symmetric_with_hermitian_directions(monkeypatch, side):
    updates = record_bfgs(monkeypatch)
    directions, direction = [], correlations._bfgs_direction

    def spy(h, g):
        d = direction(h, g)
        directions.append(d)
        return d

    monkeypatch.setattr(correlations, "_bfgs_direction", spy)
    rho = linalg.random_density((2, 3), np.random.default_rng(51))
    dims = side_dims(rho, side)
    m = sum(n * (n - 1) for n in dims)
    res = measure_correlations(rho, side, EntropicIndices(1.0, 1.0), OptimizerOptions(restarts=8, seed=7))
    assert res.converged and updates and directions
    for _, _, _, _, h, scaled in updates:
        assert h.shape[1:] == (m, m)
        np.testing.assert_array_equal(h, h.transpose(0, 2, 1))
        assert np.all(np.linalg.eigvalsh(h[scaled]) > 0.0)
    for d in directions:
        # a real coordinate row names a Hermitian, zero-diagonal K on each side
        assert d.dtype == float and d.shape[1] == m and np.isfinite(d).all()
        for c, n in zip(side_columns(d, [np.empty((n, n)) for n in dims]), dims):
            x = tangent_matrices(c, n)
            np.testing.assert_array_equal(x, linalg.dag(x))
            assert np.all(np.einsum("raa->ra", x) == 0.0)


def test_update_skipped_without_curvature(monkeypatch):
    """A step with s.y <= 1e-12 |s| |y| leaves that row's inverse Hessian as it was."""
    updates = record_bfgs(monkeypatch)
    measure_correlations(rank_two_state(), "A", EntropicIndices(0.3, 1.0), OptimizerOptions(restarts=8, seed=3))
    skipped = 0
    for h, scaled, s, y, h_new, scaled_new in updates:
        sy = np.einsum("ri,ri->r", s, y)
        skip = sy <= 1e-12 * np.linalg.norm(s, axis=1) * np.linalg.norm(y, axis=1)
        np.testing.assert_array_equal(h_new[skip], h[skip])
        assert (scaled_new[skip] == scaled[skip]).all() and scaled_new[~skip].all()
        skipped += skip.sum()
    assert skipped >= 1


def test_ascent_direction_restarts_along_minus_g(monkeypatch):
    """A quasi-Newton direction with slope >= 0 is replaced by -g, and the row still descends along it.

    ``_bfgs_direction`` returns +g once, as the direction of the second
    iteration; capping the descent at one and at two iterations gives the
    values before and after the restarted step.
    """
    rho = linalg.random_density((2, 3), np.random.default_rng(4))
    evaluate = search_problem(rho, "A", TS2)
    start = [linalg.haar_unitary(2, np.random.default_rng(5))]
    direction, exp_path = correlations._bfgs_direction, correlations._exp_path

    def capped_run(max_iter):
        ascents, moves = [], []

        def ascent_once(h, g):
            if ascents:
                return direction(h, g)
            ascents.append(g.copy())
            return g.copy()

        def recorded_path(u, x):
            moves.append(x.copy())
            return exp_path(u, x)

        monkeypatch.setattr(correlations, "_bfgs_direction", ascent_once)
        monkeypatch.setattr(correlations, "_exp_path", recorded_path)
        return lone_descent(evaluate, start, OptimizerOptions(restarts=1, max_iter=max_iter)), ascents, moves

    before, _, _ = capped_run(1)
    after, (g,), moves = capped_run(2)
    assert (before.nit, after.nit) == (1, 2)
    np.testing.assert_array_equal(moves[1], -g)
    assert after.fun < before.fun


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("side", ["A", "B", "AB"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_line_search_work_per_iteration(dims, side, q):
    """Unit quasi-Newton steps pass the Armijo test: about one evaluation per iteration.

    Evaluations are counted from ``nfev``, iterations from ``iterations``,
    so the bound holds whatever the machine's speed.  Conjugate gradient
    needed 1.4 to 2.8 evaluations per iteration on these states.
    """
    rho = linalg.random_density(dims, np.random.default_rng([dims[0], dims[1], 9]))
    opts = OptimizerOptions(restarts=8, seed=1)
    res = measure_correlations(rho, side, EntropicIndices(q, 1.0), opts)
    assert res.nfev <= 1.5 * res.iterations + opts.restarts


def planted_state(dims, side, rng):
    """A mixed state whose disturbance is 0 in a basis planted on ``side``, with I/N on each measured side.

    Sides A and B: classical on the measured side in a Haar-random basis,
    sum_i P_i (x) rho_i / N with random mixed rho_i.  Side AB: classical on
    both, diagonal in a Haar-random product basis, with a joint outcome
    table whose marginals are uniform.  The reduced state of a measured side
    is I/N, so its eigenbasis start is not the planted basis.
    """
    na, nb = dims
    if side != "AB":
        n, m = (na, nb) if side == "A" else (nb, na)
        rho = cq_state(rng, n, m, probs=np.full(n, 1.0 / n))
        return rho if side == "A" else linalg.permute_subsystems(rho, [1, 0])
    x = rng.uniform(-1.0, 1.0, dims)
    x -= x.mean(axis=0) + x.mean(axis=1)[:, None] - x.mean()  # zero row and column sums
    return cc_state(rng, na, nb, probs=((1.0 + x / 4.0) / (na * nb)).ravel())  # |x| <= 4: every entry positive


@pytest.mark.parametrize("side", ["A", "B", "AB"])
@pytest.mark.parametrize("dims", [(3, 3), (3, 2), (4, 2)])
def test_planted_basis_is_found_on_mixed_qudit_states(dims, side):
    """The search reaches the exact minimum 0 of a state with a planted undisturbed basis."""
    rng = np.random.default_rng([dims[0], dims[1], len(side), 5])
    rho = planted_state(dims, side, rng)
    for k, name in enumerate("AB"):
        if name in side:
            reduced = linalg.partial_trace(rho, [k]).matrix
            np.testing.assert_allclose(reduced, np.eye(dims[k]) / dims[k], rtol=0.0, atol=1e-15)
    for idx in INDICES:
        res = measure_correlations(rho, side, idx, OptimizerOptions(restarts=8, seed=1))
        assert abs(res.value) <= 1e-12, (idx, res.value)
