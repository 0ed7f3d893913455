import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import correlations, families, linalg, measurement
from qcorr.correlations import OptimizerOptions, measure_correlations
from qcorr.entropy import EntropicIndices
from qcorr.families import (
    BadKind,
    BadParameter,
    FamilySpec,
    build,
    isotropic_closed_form,
    maximally_entangled,
    pseudopure_closed_form,
    swap_operator,
    werner_printed_form,
    werner_spectrum_form,
)
from util import IDX_GRID, isotropic_specializations, majorizes

VN = EntropicIndices(1.0, 1.0)
TS2 = EntropicIndices(2.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(2718)


@pytest.mark.parametrize("call, message", [
    (lambda: FamilySpec("pseudopure", 0, 2, 0.5), "side dimensions must be >= 1"),
    (lambda: FamilySpec("pseudopure", 2, 0, 0.5), "side dimensions must be >= 1"),
    (lambda: FamilySpec("werner", 2, 2, 0.0, psi=maximally_entangled(2)), "psi only applies to pseudopure states"),
], ids=["n_a 0", "n_b 0", "werner psi"])
def test_named_errors(call, message):
    with pytest.raises(BadParameter, match=f"^{message}$"):
        call()


class TestFamilySpec:
    def test_numpy_integer_dims_build(self):
        spec = FamilySpec("werner", np.int64(2), np.int32(2), 0.5)
        assert build(spec).dims == (2, 2)

    def test_bad_kind(self):
        with pytest.raises(BadKind):
            FamilySpec("ghz", 2, 2, 0.5)

    @pytest.mark.parametrize(
        "kind,value",
        [("pseudopure", -0.1), ("pseudopure", 1.1), ("werner", -1.5),
         ("werner", 2.0), ("isotropic", 0.1), ("isotropic", 1.2)],
    )
    def test_bad_parameter(self, kind, value):
        with pytest.raises(BadParameter):
            FamilySpec(kind, 2, 2, value)

    def test_symmetric_families_need_square_dims(self):
        with pytest.raises(BadParameter):
            FamilySpec("werner", 2, 3, 0.0)

    @pytest.mark.parametrize("kind,value", [("werner", 0.5), ("isotropic", 1.0)])
    def test_symmetric_families_need_two_levels(self, kind, value):
        # the mixing weights divide by N^3 - N (werner) and N^2 - 1 (isotropic)
        with pytest.raises(BadParameter, match="N >= 2"):
            FamilySpec(kind, 1, 1, value)

    def test_psi_validation(self):
        with pytest.raises(BadParameter):
            families.build(FamilySpec("pseudopure", 2, 2, 0.5, psi=np.ones(4)))

    @pytest.mark.parametrize("psi, message", [
        (np.ones(3) / math.sqrt(3), "psi has size 3, expected 4"),
        (np.ones(4), "psi must be a unit vector"),
        (np.array([1.0, 0.0, 0.0, 1e-4]), "psi must be a unit vector"),
    ], ids=["size", "norm 2", "norm 1 + 5e-9"])
    def test_psi_is_checked_at_construction(self, psi, message):
        # build is never called: a spec that exists can be built
        with pytest.raises(BadParameter, match=message):
            FamilySpec("pseudopure", 2, 2, 0.5, psi=psi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_psi_rejected(self, bad):
        # a NaN norm passes the unit-norm test, so psi is checked entry by entry
        with pytest.raises(BadParameter, match="psi"):
            FamilySpec("pseudopure", 2, 2, 0.5, psi=np.array([bad, 0.0, 0.0, 1.0]))


OWN_CLOSED_FORM = {
    "pseudopure": pseudopure_closed_form,
    "isotropic": lambda spec, side, idx: isotropic_closed_form(spec.n_a, spec.parameter, idx),
    "werner": lambda spec, side, idx: werner_spectrum_form(spec.n_a, spec.parameter, idx),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", list(families.KINDS))
class TestKindsTable:
    def test_range_ends_build_valid_states(self, kind, n):
        low, high = families.KINDS[kind][1](n)
        # the paper's ranges: p in [0, 1], y in [1/N^2, 1], x in [-1, 1]
        assert (low, high) == {"pseudopure": (0.0, 1.0), "isotropic": (1.0 / n**2, 1.0), "werner": (-1.0, 1.0)}[kind]
        for value in (low, high):
            rho = build(FamilySpec(kind, n, n, value))
            assert rho.dims == (n, n)
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12

    def test_rejects_values_past_the_range(self, kind, n):
        low, high = families.KINDS[kind][1](n)
        for value in (low - 1e-11, high + 1e-11, math.nan):
            with pytest.raises(BadParameter, match=f"{kind} {families.KINDS[kind][0]} must be in"):
                FamilySpec(kind, n, n, value)

    def test_closed_form_is_the_kinds_own(self, kind, n):
        for value in np.linspace(*families.KINDS[kind][1](n), 5).tolist():
            spec = FamilySpec(kind, n, n, value)
            for side in measurement.SIDES:
                for idx in IDX_GRID:
                    assert families.closed_form(spec, side, idx) == OWN_CLOSED_FORM[kind](spec, side, idx)


def optimal_bases(spec):
    """The kind's optimal local bases: the Schmidt basis of spec.psi for pseudopure, the standard basis otherwise."""
    if spec.kind != "pseudopure":
        return tuple(measurement.ProjectiveBasis(np.eye(n, dtype=complex)) for n in (spec.n_a, spec.n_b))
    dec = linalg.schmidt(spec.psi, (spec.n_a, spec.n_b))
    return measurement.ProjectiveBasis(dec.basis_a), measurement.ProjectiveBasis(dec.basis_b)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", list(families.KINDS))
def test_kinds_row_agrees_with_its_state(kind, n):
    """The row's spectra are those of the row's state: before measuring, and after its optimal measurement."""
    rng = np.random.default_rng([31, n])
    for value in np.linspace(*families.KINDS[kind].bounds(n), 5).tolist():
        psi = linalg.random_pure((n, n), rng) if kind == "pseudopure" else None
        spec = FamilySpec(kind, n, n, value, psi=psi)
        rho = build(spec)
        before, after = families.KINDS[kind].spectra(spec)
        assert_allclose(linalg.spectrum(rho), np.sort(before)[::-1], rtol=0, atol=1e-12)
        basis_a, basis_b = optimal_bases(spec)
        for side in measurement.SIDES:
            m = measurement.LocalMeasurement(side, basis_a if side != "B" else None, basis_b if side != "A" else None)
            assert_allclose(measurement.measured_spectrum(rho, m), np.sort(after)[::-1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, n", [("pseudopure", 2), ("isotropic", 3), ("werner", 2)])
@pytest.mark.parametrize("side", ["C", "AC", "", "a"])
def test_closed_form_rejects_an_unknown_side(kind, n, side):
    spec = FamilySpec(kind, n, n, families.KINDS[kind].bounds(n)[1])
    with pytest.raises(ValueError, match="side must be A, B or AB"):
        families.closed_form(spec, side, TS2)


class TestBuild:
    def test_pseudopure_white_noise_limit(self):
        rho = build(FamilySpec("pseudopure", 2, 2, 0.0))
        assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-14)

    def test_werner_singlet_limit(self):
        rho = build(FamilySpec("werner", 2, 2, -1.0))
        expected = (np.eye(4) - swap_operator(2)) / 2
        assert_allclose(rho.matrix, expected, atol=1e-12)
        assert_allclose(linalg.spectrum(rho), [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_werner_spectra(self):
        # (1+x)/(N^2+N) with multiplicity N(N+1)/2, (1-x)/(N^2-N) with N(N-1)/2
        for n, x in [(2, 0.3), (3, -0.4)]:
            rho = build(FamilySpec("werner", n, n, x))
            expected = np.sort(
                np.concatenate(
                    [
                        np.full(n * (n + 1) // 2, (1 + x) / (n**2 + n)),
                        np.full(n * (n - 1) // 2, (1 - x) / (n**2 - n)),
                    ]
                )
            )[::-1]
            assert_allclose(linalg.spectrum(rho), expected, atol=1e-12)

    def test_werner_maximally_mixed_at_inverse_dim(self):
        # <F> = x, and the maximally mixed state has <F> = 1/N, so x = 1/N
        # is the white-noise point (not x = 0)
        rho = build(FamilySpec("werner", 2, 2, 0.5))
        assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-13)

    def test_isotropic_pure_limit(self):
        rho = build(FamilySpec("isotropic", 2, 2, 1.0))
        psi = maximally_entangled(2)
        assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-13)

    def test_isotropic_equals_pseudopure_under_identification(self):
        # y -> p = (N^2 y - 1)/(N^2 - 1) with the maximally entangled vector
        for n, y in [(2, 0.6), (3, 0.35)]:
            p = (n**2 * y - 1.0) / (n**2 - 1.0)
            iso = build(FamilySpec("isotropic", n, n, y))
            pp = build(FamilySpec("pseudopure", n, n, p))
            assert np.max(np.abs(iso.matrix - pp.matrix)) < 1e-12


class TestPseudopureClosedForm:
    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_noise_only_vanishes(self, idx):
        spec = FamilySpec("pseudopure", 2, 2, 0.0)
        assert abs(pseudopure_closed_form(spec, "A", idx)) < 1e-12

    def test_pure_maximally_entangled_von_neumann(self):
        spec = FamilySpec("pseudopure", 3, 3, 1.0)
        assert_allclose(pseudopure_closed_form(spec, "AB", VN), math.log(3), atol=1e-12)

    def test_half_mixed_desk_value(self):
        spec = FamilySpec("pseudopure", 2, 2, 0.5)
        assert_allclose(pseudopure_closed_form(spec, "AB", TS2), 2.0 / 7.0, atol=1e-14)

    def test_side_independent(self, rng):
        psi = linalg.random_pure((2, 3), rng)
        spec = FamilySpec("pseudopure", 2, 3, 0.7, psi=psi)
        vals = [pseudopure_closed_form(spec, side, TS2) for side in ("A", "B", "AB")]
        assert max(vals) - min(vals) == 0.0

    def test_wrong_kind(self):
        with pytest.raises(BadKind):
            pseudopure_closed_form(FamilySpec("werner", 2, 2, 0.5), "A", TS2)

    @pytest.mark.parametrize("idx", [EntropicIndices(q, s) for q in (0.3, 1.0, 2.0) for s in (0.0, 1.0)])
    def test_tiny_schmidt_weight_is_kept(self, idx):
        # a Schmidt weight of 1e-13 is far above the rank cut-off 2 eps; dropping it
        # leaves an after-spectrum of trace 1 - 1e-13 and a closed form near -4e-14 at q = 0.3
        psi = np.zeros(4)
        psi[0], psi[3] = math.sqrt(1.0 - 1e-13), math.sqrt(1e-13)
        spec = FamilySpec("pseudopure", 2, 2, 1.0, psi=psi)
        rho = build(spec)
        closed = pseudopure_closed_form(spec, "A", idx)
        found = measure_correlations(rho, "A", idx, OptimizerOptions(restarts=8, seed=1)).value
        assert abs(found - closed) <= 1e-12
        # a pure state saturates the entanglement lower bound
        assert abs(correlations.entanglement_lower_bound(rho, idx) - closed) <= 1e-12


class TestIsotropicClosedForm:
    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_white_noise_vanishes(self, idx):
        assert abs(isotropic_closed_form(2, 0.25, idx)) < 1e-12

    def test_pure_point_von_neumann(self):
        assert_allclose(isotropic_closed_form(2, 1.0, VN), math.log(2), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_matches_pseudopure_route(self, n, idx):
        # same state through the p-parametrized spectra: identity to 1e-12
        for y in np.linspace(1.0 / n**2, 1.0, 7):
            p = (n**2 * y - 1.0) / (n**2 - 1.0)
            spec = FamilySpec("pseudopure", n, n, p)
            a = isotropic_closed_form(n, float(y), idx)
            b = pseudopure_closed_form(spec, "AB", idx)
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_printed_expression(self, n):
        # literal published ratio, evaluated directly for generic (q, s)
        for idx in (TS2, EntropicIndices(3.0, 0.5), EntropicIndices(2.0, 0.0)):
            q, s = idx.q, idx.s
            for y in (0.3, 0.62, 0.97):
                if y < 1.0 / n**2:
                    continue
                num = n * ((n - 1) * (1 - y) ** q + (1 - y + n * y - 1.0 / n) ** q)
                den = (n**2 - 1) ** q * y**q + (n**2 - 1) * (1 - y) ** q
                if abs(s) < 1e-8:
                    literal = math.log(num / den) / (1 - q)
                else:
                    literal = ((num / den) ** s - 1) / ((1 - q) * s)
                assert abs(isotropic_closed_form(n, y, idx) - literal) < 1e-12


class TestWernerForms:
    def test_desk_value_tsallis2(self):
        assert_allclose(werner_spectrum_form(2, 1.0, TS2), 1.0 / 6.0, atol=1e-14)

    def test_white_noise_point_vanishes(self):
        for idx in IDX_GRID:
            assert abs(werner_spectrum_form(2, 0.5, idx)) < 1e-12
            assert abs(werner_spectrum_form(3, 1.0 / 3.0, idx)) < 1e-12

    def test_x_zero_is_not_the_white_noise_point(self):
        assert werner_spectrum_form(2, 0.0, TS2) > 1e-3

    @pytest.mark.parametrize("idx", IDX_GRID)
    def test_matches_standard_basis_measurement(self, idx):
        for n, x in [(2, -1.0), (2, 0.4), (3, 0.8)]:
            rho = build(FamilySpec("werner", n, n, x))
            eye = measurement.ProjectiveBasis(np.eye(n, dtype=complex))
            rep = measurement.disturbance(
                rho, measurement.LocalMeasurement("AB", eye, eye), idx
            )
            assert abs(werner_spectrum_form(n, x, idx) - rep.disturbance) < 1e-12

    def test_printed_form_ratio_is_one_at_q_one(self):
        # numerator and denominator agree at q = 1, so the Renyi evaluation
        # tends continuously to the printed von Neumann value
        for x in (-1.0, -0.3, 0.5, 1.0):
            vn_value = werner_printed_form(2, x, VN)
            for dq in (1e-5, -1e-5):
                near = werner_printed_form(2, x, EntropicIndices(1.0 + dq, 0.0))
                assert abs(near - vn_value) < 1e-3

    @pytest.mark.parametrize("n", [2, 3])
    def test_printed_form_matches_printed_expression(self, n):
        # literal published ratio, evaluated directly for generic (q, s)
        for q, s in ((2.0, 1.0), (3.0, 0.5), (2.0, 0.0), (0.5, 1.0)):
            for x in (-0.7, 0.1, 0.6, 1.0):
                num = 2 * (((n - 1) * (x + 1)) ** q + (n - 1) * (n - x) ** q)
                den = 2 * ((n - 1) * (x + 1)) ** q + (n - 1) * (
                    (n - x + n * x / 2 - 0.5) ** q + (n - x - n * x / 2 + 0.5) ** q
                )
                if abs(s) < 1e-8:
                    literal = math.log(num / den) / (1 - q)
                else:
                    literal = ((num / den) ** s - 1) / ((1 - q) * s)
                assert abs(werner_printed_form(n, x, EntropicIndices(q, s)) - literal) < 1e-12

    def test_printed_form_disagrees_at_singlet(self):
        printed = werner_printed_form(2, -1.0, VN)
        derived = werner_spectrum_form(2, -1.0, VN)
        assert_allclose(derived, math.log(2), atol=1e-12)
        assert_allclose(printed, 0.13081203594113688, atol=1e-9)
        assert abs(printed - derived) > 0.1


class TestIsotropicSpecializations:
    def test_noise_only(self):
        tsallis, renyi = isotropic_specializations(2, 0.0, 2.0)
        assert abs(tsallis) < 1e-12 and abs(renyi) < 1e-12

    def test_renyi_line_matches_general_form(self):
        for n, p, q in [(2, 0.5, 2.0), (3, 0.25, 0.5), (2, 0.9, 3.0)]:
            _, renyi = isotropic_specializations(n, p, q)
            spec = FamilySpec("pseudopure", n, n, p)
            general = pseudopure_closed_form(spec, "AB", EntropicIndices(q, 0.0))
            assert abs(renyi - general) < 1e-12

    def test_tsallis_derived_desk_value(self):
        tsallis, _ = isotropic_specializations(2, 0.5, 2.0)
        assert_allclose(tsallis, 2.0 / 7.0, atol=1e-14)

    def test_von_neumann_matches_general_form(self):
        # the kernels take the q -> 1 limit exactly, so q = 1 needs no branch of its own
        for n in (2, 3, 4):
            for p in (0.0, 0.3, 0.7, 1.0):
                general = pseudopure_closed_form(FamilySpec("pseudopure", n, n, p), "AB", VN)
                for value in isotropic_specializations(n, p, 1.0):
                    assert abs(value - general) <= 1e-15


IDX_ORACLE = [
    EntropicIndices(1.0, 1.0),
    EntropicIndices(2.0, 1.0),
    EntropicIndices(0.5, 1.0),
    EntropicIndices(2.0, 0.0),
    EntropicIndices(3.0, 0.5),
]


class TestOracleAgreement:
    """Closed forms match the optimizer on every side, over parameter grids."""

    @pytest.mark.parametrize("side", ["A", "B", "AB"])
    @pytest.mark.parametrize("idx", IDX_ORACLE)
    def test_pseudopure(self, side, idx):
        opts = OptimizerOptions(restarts=2, seed=17)
        for p in np.linspace(0.0, 1.0, 5):
            spec = FamilySpec("pseudopure", 2, 2, float(p))
            found = measure_correlations(build(spec), side, idx, opts).value
            assert abs(found - pseudopure_closed_form(spec, side, idx)) < 1e-6

    @pytest.mark.parametrize("side", ["A", "B", "AB"])
    @pytest.mark.parametrize("idx", IDX_ORACLE)
    def test_isotropic(self, side, idx):
        opts = OptimizerOptions(restarts=2, seed=17)
        for y in np.linspace(0.25, 1.0, 5):
            rho = build(FamilySpec("isotropic", 2, 2, float(y)))
            found = measure_correlations(rho, side, idx, opts).value
            assert abs(found - isotropic_closed_form(2, float(y), idx)) < 1e-6

    @pytest.mark.parametrize("side", ["A", "B", "AB"])
    @pytest.mark.parametrize("idx", IDX_ORACLE)
    def test_werner(self, side, idx):
        opts = OptimizerOptions(restarts=2, seed=17)
        for x in np.linspace(-1.0, 1.0, 5):
            rho = build(FamilySpec("werner", 2, 2, float(x)))
            found = measure_correlations(rho, side, idx, opts).value
            assert abs(found - werner_spectrum_form(2, float(x), idx)) < 1e-6


class TestSymmetryProperties:
    def test_measurement_independence(self, rng):
        # any unilocal measurement disturbs these families identically
        werner = build(FamilySpec("werner", 2, 2, -0.7))
        iso = build(FamilySpec("isotropic", 3, 3, 0.8))
        for rho, side, n in ((werner, "A", 2), (iso, "B", 3)):
            values = []
            for _ in range(20):
                u = linalg.haar_unitary(n, rng)
                basis = measurement.ProjectiveBasis(u)
                m = (
                    measurement.LocalMeasurement("A", basis_a=basis)
                    if side == "A"
                    else measurement.LocalMeasurement("B", basis_b=basis)
                )
                values.append(measurement.disturbance(rho, m, TS2).disturbance)
            assert max(values) - min(values) <= 1e-9

    def test_triangle_inequality_on_families(self):
        opts = OptimizerOptions(restarts=2, seed=23)
        members = [
            build(FamilySpec("werner", 2, 2, -0.6)),
            build(FamilySpec("isotropic", 2, 2, 0.7)),
            build(FamilySpec("pseudopure", 2, 2, 0.4)),
        ]
        for rho in members:
            for report in correlations.triangle_analysis(rho, [VN, TS2, EntropicIndices(3.0, 0.5)], opts):
                assert report.triangle_holds

    def test_schmidt_basis_spectrum_majorizes_random_ones(self, rng):
        # the Schmidt-basis outcome spectrum is the most ordered one, which
        # is what makes the measurement optimal for every entropic index
        psi = linalg.random_pure((2, 3), rng)
        rho = build(FamilySpec("pseudopure", 2, 3, 0.6, psi=psi))
        dec = linalg.schmidt(psi, (2, 3))
        schmidt_m = measurement.LocalMeasurement(
            "AB",
            measurement.ProjectiveBasis(dec.basis_a),
            measurement.ProjectiveBasis(dec.basis_b),
        )
        schmidt_spec = measurement.measured_spectrum(rho, schmidt_m)
        for _ in range(100):
            m = measurement.LocalMeasurement(
                "AB",
                measurement.ProjectiveBasis(linalg.haar_unitary(2, rng)),
                measurement.ProjectiveBasis(linalg.haar_unitary(3, rng)),
            )
            other = measurement.measured_spectrum(rho, m)
            assert majorizes(other, schmidt_spec)
