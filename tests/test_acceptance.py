"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``,
or in the captured output on failure) before asserting.
"""

import math

import numpy as np

from qcorr import correlations, families, linalg, measurement
from qcorr.cli import main
from qcorr.correlations import OptimizerOptions, measure_correlations, triangle_analysis
from qcorr.entropy import (
    EntropicIndices,
    max_entropy,
    purity_ratio_sums,
    spectral_sum,
    unified_entropy,
    unified_entropy_spectrum,
)
from qcorr.measurement import LocalMeasurement, ProjectiveBasis
from util import bilocal_decomposition_check, dephase, hs_norm_sq, majorizes, relative_entropy

VN = EntropicIndices(1.0, 1.0)
TS2 = EntropicIndices(2.0, 1.0)
IDX_FIVE = [
    EntropicIndices(1.0, 1.0),
    EntropicIndices(2.0, 1.0),
    EntropicIndices(0.5, 1.0),
    EntropicIndices(2.0, 0.0),
    EntropicIndices(3.0, 0.5),
]


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_idx(rng):
    q = float(rng.uniform(0.3, 4.0))
    if abs(q - 1.0) < 0.05:
        q = 1.0
    s = float(rng.choice([0.0, 1.0, rng.uniform(-1.0, 1.5)]))
    return EntropicIndices(q, s)


def test_criterion_1_pure_state_equality():
    """Measures on pure states equal the reduced-state entropy (each side)."""
    rng = np.random.default_rng(101)
    # the reduced-state eigenbases are warm starts and provably optimal here,
    # so short restarts suffice; the random restart guards the minimality
    opts = OptimizerOptions(restarts=2, seed=7, max_iter=400)
    worst = 0.0
    for dims in ((2, 2), (2, 3)):
        for _ in range(25):
            psi = linalg.random_pure(dims, rng)
            rho = linalg.make_density(np.outer(psi, psi.conj()), dims)
            entropy_a = {
                idx: unified_entropy(linalg.partial_trace(rho, [0]), idx)
                for idx in IDX_FIVE
            }
            for idx in IDX_FIVE:
                for side in ("A", "B", "AB"):
                    got = measure_correlations(rho, side, idx, opts).value
                    worst = max(worst, abs(got - entropy_a[idx]))
    report(
        "Criterion 1 (pure-state equality)",
        worst <= 1e-6,
        f"max |measure - S(rho_A)| = {worst:.3e} over 50 pure states x 5 indices x 3 sides (tol 1e-6)",
    )


def test_criterion_2_pseudopure_oracle():
    """Optimizer matches the pseudopure closed form on a 2x2 p-grid."""
    opts = OptimizerOptions(restarts=3, seed=13)
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = families.FamilySpec("pseudopure", 2, 2, p)
        rho = families.build(spec)
        for idx in (VN, TS2):
            for side in ("A", "B", "AB"):
                got = measure_correlations(rho, side, idx, opts).value
                worst = max(worst, abs(got - families.pseudopure_closed_form(spec, side, idx)))
    desk = families.pseudopure_closed_form(
        families.FamilySpec("pseudopure", 2, 2, 0.5), "AB", TS2
    )
    desk_ok = abs(desk - 2.0 / 7.0) < 1e-12
    report(
        "Criterion 2 (pseudopure oracle)",
        worst <= 1e-6 and desk_ok,
        f"max |optimizer - closed form| = {worst:.3e} (tol 1e-6); value at p=1/2, (2,1) = {desk:.12f} (= 2/7)",
    )


def test_criterion_3_isotropic_oracle():
    """Printed isotropic form == spectrum evaluation; optimizer matches."""
    identity_worst = 0.0
    for n in (2, 3):
        for y in np.linspace(1.0 / n**2, 1.0, 5):
            p = (n**2 * y - 1.0) / (n**2 - 1.0)
            spec = families.FamilySpec("pseudopure", n, n, p)
            for idx in IDX_FIVE:
                a = families.isotropic_closed_form(n, float(y), idx)
                b = families.pseudopure_closed_form(spec, "AB", idx)
                identity_worst = max(identity_worst, abs(a - b))

    optimizer_worst = 0.0
    for n, idx_list, opts in (
        (2, (TS2, VN), OptimizerOptions(restarts=3, seed=19)),
        (3, (TS2,), OptimizerOptions(restarts=2, seed=19)),
    ):
        for y in np.linspace(1.0 / n**2, 1.0, 5):
            rho = families.build(families.FamilySpec("isotropic", n, n, float(y)))
            closed = {idx: families.isotropic_closed_form(n, float(y), idx) for idx in idx_list}
            for idx in idx_list:
                for side in ("A", "B", "AB"):
                    got = measure_correlations(rho, side, idx, opts).value
                    optimizer_worst = max(optimizer_worst, abs(got - closed[idx]))
    report(
        "Criterion 3 (isotropic oracle)",
        identity_worst <= 1e-12 and optimizer_worst <= 1e-6,
        f"closed-vs-spectrum identity {identity_worst:.3e} (tol 1e-12); "
        f"optimizer diff {optimizer_worst:.3e} (tol 1e-6), N in {{2,3}}",
    )


def test_criterion_4_werner_oracle_and_printed_discrepancy():
    """Spectrum-derived Werner oracle vs optimizer; printed form disagrees."""
    opts = OptimizerOptions(restarts=3, seed=23)
    worst = 0.0
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        rho = families.build(families.FamilySpec("werner", 2, 2, x))
        for idx in (VN, TS2):
            closed = families.werner_spectrum_form(2, x, idx)
            for side in ("A", "B", "AB"):
                got = measure_correlations(rho, side, idx, opts).value
                worst = max(worst, abs(got - closed))
    desk = families.werner_spectrum_form(2, 1.0, TS2)
    desk_ok = abs(desk - 1.0 / 6.0) < 1e-12
    printed = families.werner_printed_form(2, -1.0, VN)
    derived = families.werner_spectrum_form(2, -1.0, VN)
    gap = abs(printed - derived)
    report(
        "Criterion 4 (Werner oracle + printed discrepancy)",
        worst <= 1e-6 and desk_ok and gap > 0.1,
        f"optimizer diff {worst:.3e} (tol 1e-6); value at x=1, (2,1) = {desk:.12f} (= 1/6); "
        f"|printed - spectrum| at (x=-1, vN) = {gap:.4f} (> 0.1, documented discrepancy)",
    )


def test_criterion_5_ancilla_invariance():
    """Rescaled measure ignores an uncorrelated ancilla; unrescaled does not."""
    rng = np.random.default_rng(505)
    opts = OptimizerOptions(restarts=3, seed=31)
    worst_rescaled = 0.0
    worst_unrescaled = 0.0
    for idx in (TS2, EntropicIndices(3.0, 1.0)):
        for _ in range(10):
            rho = linalg.random_density((2, 2), rng)
            ancilla = linalg.random_density(2, rng)
            grouped = linalg.regroup(linalg.tensor(rho, ancilla), [0])
            before = measure_correlations(rho, "A", idx, opts).value
            after = measure_correlations(grouped, "A", idx, opts).value
            worst_rescaled = max(worst_rescaled, abs(after - before))
            u_before = before * purity_ratio_sums(spectral_sum(linalg.spectrum(rho), idx), 0.0, idx)
            u_after = after * purity_ratio_sums(spectral_sum(linalg.spectrum(grouped), idx), 0.0, idx)
            worst_unrescaled = max(worst_unrescaled, abs(u_after - u_before))
    report(
        "Criterion 5 (ancilla invariance)",
        worst_rescaled <= 1e-6 and worst_unrescaled > 1e-3,
        f"rescaled drift {worst_rescaled:.3e} (tol 1e-6) over 20 samples at (2,1)/(3,1); "
        f"unrescaled drift reaches {worst_unrescaled:.3e} (> 1e-3)",
    )


def test_criterion_6_identities():
    """Bilocal decomposition residuals and the two special-case identities."""
    rng = np.random.default_rng(606)
    worst_residual = 0.0
    for _ in range(1000):
        rho = linalg.random_density((2, 2), rng)
        basis_a = ProjectiveBasis(linalg.haar_unitary(2, rng))
        basis_b = ProjectiveBasis(linalg.haar_unitary(2, rng))
        res = bilocal_decomposition_check(
            rho, basis_a, basis_b, random_idx(rng)
        )
        worst_residual = max(worst_residual, max(res))

    worst_vn = 0.0
    worst_hs = 0.0
    for _ in range(100):
        rho = linalg.random_density((2, 2), rng)
        m = LocalMeasurement("A", basis_a=ProjectiveBasis(linalg.haar_unitary(2, rng)))
        post = measurement.apply_local(rho, m)
        worst_vn = max(
            worst_vn,
            abs(measurement.disturbance(rho, m, VN).disturbance - relative_entropy(rho, post)),
        )
        hs = hs_norm_sq(rho.matrix - post.matrix)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        worst_hs = max(
            worst_hs,
            abs(measurement.disturbance(rho, m, TS2).disturbance - hs / purity),
        )
    report(
        "Criterion 6 (identities)",
        worst_residual <= 1e-10 and worst_vn <= 1e-8 and worst_hs <= 1e-10,
        f"bilocal residual {worst_residual:.3e} (tol 1e-10, 1e3 triples); "
        f"vN-vs-relative-entropy {worst_vn:.3e} (tol 1e-8); "
        f"(2,1)-vs-HS {worst_hs:.3e} (tol 1e-10)",
    )


def test_criterion_7_inequality_suite():
    """Majorization, entropy bounds, measure ordering, entanglement bound."""
    rng = np.random.default_rng(707)

    majorization_ok = True
    disturbance_floor = 0.0
    for k in range(1000):
        rho = linalg.random_density((2, 2), rng)
        if k % 2 == 0:
            basis = ProjectiveBasis(linalg.haar_unitary(4, rng))
            after = linalg.spectrum(dephase(rho, basis))
            idx = random_idx(rng)
            value = measurement.disturbance_spectra(linalg.spectrum(rho), after, idx)
        else:
            side = ("A", "B", "AB")[int(rng.integers(3))]
            m = LocalMeasurement(
                side,
                basis_a=ProjectiveBasis(linalg.haar_unitary(2, rng)) if side in ("A", "AB") else None,
                basis_b=ProjectiveBasis(linalg.haar_unitary(2, rng)) if side in ("B", "AB") else None,
            )
            after = measurement.measured_spectrum(rho, m)
            value = measurement.disturbance(rho, m, random_idx(rng)).disturbance
        majorization_ok &= majorizes(after, linalg.spectrum(rho))
        disturbance_floor = min(disturbance_floor, value)

    bounds_ok = True
    for _ in range(1000):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 7))))
        idx = random_idx(rng)
        value = unified_entropy_spectrum(p, idx)
        bounds_ok &= -1e-10 <= value <= max_entropy(p.size, idx) + 1e-10

    opts = OptimizerOptions(restarts=4, seed=37)
    ordering_ok = True
    bound_ok = True
    worst_gap = -math.inf
    for _ in range(100):
        rho = linalg.random_density((2, 2), rng)
        (rep,) = triangle_analysis(rho, [TS2], opts)
        ordering_ok &= rep.m_ab >= max(rep.m_a, rep.m_b) - 1e-8
        lower = correlations.entanglement_lower_bound(rho, TS2)
        smallest = min(rep.m_a, rep.m_b, rep.m_ab)
        bound_ok &= lower <= smallest + 1e-6
        worst_gap = max(worst_gap, lower - smallest)
    report(
        "Criterion 7 (inequality suite)",
        majorization_ok and disturbance_floor >= -1e-10 and bounds_ok and ordering_ok and bound_ok,
        f"majorization {majorization_ok}, min disturbance {disturbance_floor:.2e} (>= -1e-10), "
        f"entropy bounds {bounds_ok}, ordering {ordering_ok}, "
        f"entanglement bound gap max {worst_gap:.2e} (<= 1e-6), 1e3/1e3/100 draws",
    )


def test_criterion_8_contractivity_pattern(tmp_path):
    """Fixed-seed reproduction of the published violation/no-violation bands."""
    out = tmp_path / "fig1.csv"
    rc = main([
        "fig1", "--q", "0.5,1.0,1.25,1.5,1.75,2.0,4.0",
        "--n-states", "20", "--trials", "1000",
        "--seed", "20260810", "--out", str(out),
    ])
    assert rc == 0
    rows = []
    header = None
    for line in out.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        parts = line.split(",")
        rows.append(
            {
                "family": parts[header.index("family")],
                "q": float(parts[header.index("q")]),
                "min": float(parts[header.index("min_difference")]),
                "violated": parts[header.index("violated")] == "true",
            }
        )
    tsallis = [r for r in rows if r["family"] == "tsallis"]

    def mins(q):
        return [r["min"] for r in tsallis if r["q"] == q]

    violated_05 = any(m < -1e-6 for m in mins(0.5))
    violated_4 = any(m < -1e-6 for m in mins(4.0))
    clean_open = all(m >= -1e-6 for q in (1.25, 1.5, 1.75) for m in mins(q))
    clean_vn = all(m >= -1e-8 for m in mins(1.0))
    clean_hs = all(m >= -1e-8 for m in mins(2.0))
    report(
        "Criterion 8 (contractivity pattern)",
        violated_05 and violated_4 and clean_open and clean_vn and clean_hs,
        f"violations at q=0.5: {violated_05}, q=4: {violated_4}; "
        f"none in q={{1.25,1.5,1.75}}: {clean_open}; none at vN (q=1): {clean_vn}; "
        f"none at Tsallis q=2: {clean_hs} (20 states x 1000 pairs, seed 20260810)",
    )


def test_criterion_9_purity_ratio_band():
    """Renyi factor is exactly 1; band membership for 1000 random draws."""
    rng = np.random.default_rng(909)
    renyi_exact = True
    for _ in range(20):
        rho = linalg.random_density((2, 2), rng)
        m = LocalMeasurement("A", basis_a=ProjectiveBasis(linalg.haar_unitary(2, rng)))
        q = float(rng.uniform(0.2, 4.0))
        if abs(q - 1.0) < 0.05:
            q = 2.0
        renyi_exact &= measurement.purity_ratio(rho, m, EntropicIndices(q, 0.0)) == 1.0

    band_ok = True
    for _ in range(1000):
        rho = linalg.random_density((2, 2), rng)
        side = ("A", "B", "AB")[int(rng.integers(3))]
        m = LocalMeasurement(
            side,
            basis_a=ProjectiveBasis(linalg.haar_unitary(2, rng)) if side in ("A", "AB") else None,
            basis_b=ProjectiveBasis(linalg.haar_unitary(2, rng)) if side in ("B", "AB") else None,
        )
        q = float(rng.uniform(0.05, 4.0))
        if abs(q - 1.0) <= 1e-8:
            q = 1.5
        s = float(rng.uniform(0.0, 2.0))
        ratio = measurement.purity_ratio(rho, m, EntropicIndices(q, s))
        if q >= 1.0:
            band_ok &= 0.0 < ratio <= 1.0 + 1e-10
        else:
            band_ok &= ratio >= 1.0 - 1e-10
    report(
        "Criterion 9 (purity-ratio factor)",
        renyi_exact and band_ok,
        f"Renyi factor exactly 1: {renyi_exact}; band membership on 1e3 draws "
        f"(<= 1 for q >= 1, >= 1 for q < 1, s >= 0, tol 1e-10): {band_ok}",
    )
