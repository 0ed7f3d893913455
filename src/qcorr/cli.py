"""Command-line front end and experiment drivers.

Subcommands: ``entropy``, ``measure``, ``family-curve``, ``fig1``,
``ancilla-check``, ``triangle-scan``.  All randomized commands require
``--seed`` and produce byte-identical CSV bodies for identical configs.
CSV output starts with ``#``-prefixed metadata lines (schema version, config
echo), then a header row; reals carry 17 significant digits.  Inequality
violations found by the experiment drivers are data, never errors: the exit
status is nonzero only on hard failures.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import correlations, families, linalg, measurement
from .correlations import OptimizerOptions, measure_correlations
from .entropy import EntropicIndices, max_entropy, unified_entropy
from .linalg import DensityOperator

SCHEMA_VERSION = 2

FIG1_DEFAULT_Q = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
TRIANGLE_DEFAULT_Q = (1.0, 2.0, 0.5, 2.0, 3.0)
TRIANGLE_DEFAULT_S = (1.0, 1.0, 1.0, 0.0, 0.5)
VIOLATION_TOL = 1e-6


class ParseError(ValueError):
    pass


def _config(command: str, **fields) -> str:
    """Echo of one CLI invocation, the ``config:`` line of the CSV metadata.

    Fields are sorted by name; None and empty tuples are skipped, and a
    tuple is written comma-joined.
    """
    parts = []
    for key, value in sorted(dict(fields, command=command).items()):
        if value is None or value == ():
            continue
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        parts.append(f"{key}={_fmt(value)}")
    return "config: " + " ".join(parts)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, meta_lines, header, rows, footer_lines=()):
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    lines += [f"# {m}" for m in meta_lines]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += [f"# {m}" for m in footer_lines]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# state file format
# ---------------------------------------------------------------------------

def parse_state_file(path) -> DensityOperator:
    """Read a state file: ``dims: d1 d2 ...`` then ``row col real imag`` lines.

    Unlisted entries are zero and each entry may be listed once; the matrix
    is validated (hermitized, positivity-checked, renormalized) before
    returning.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dims:"):
        raise ParseError("state file must start with a 'dims: d1 d2 ...' line")
    try:
        dims = tuple(int(tok) for tok in lines[0][len("dims:"):].split())
    except ValueError as exc:
        raise ParseError(f"bad dims line: {lines[0]!r}") from exc
    if not dims:
        raise ParseError("dims line lists no dimensions")
    n = math.prod(dims)
    mat = np.zeros((n, n), dtype=complex)
    seen = set()
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 4:
            raise ParseError(f"expected 'row col real imag', got {ln!r}")
        try:
            r, c = int(toks[0]), int(toks[1])
            re_part, im_part = float(toks[2]), float(toks[3])
        except ValueError as exc:
            raise ParseError(f"bad entry line {ln!r}") from exc
        if not (0 <= r < n and 0 <= c < n):
            raise ParseError(f"entry ({r}, {c}) outside a {n}x{n} matrix")
        if (r, c) in seen:
            raise ParseError(f"entry ({r}, {c}) listed twice, again in {ln!r}")
        seen.add((r, c))
        mat[r, c] = re_part + 1j * im_part
    return linalg.make_density(mat, dims)


def write_state_file(path, rho: DensityOperator):
    """Write the nonzero entries of a state in the plain-text format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("dims: " + " ".join(str(d) for d in rho.dims) + "\n")
        n = rho.dim
        for r in range(n):
            for c in range(n):
                z = rho.matrix[r, c]
                if z != 0:
                    fh.write(f"{r} {c} {z.real:.17g} {z.imag:.17g}\n")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ParseError(f"bad number list {text!r}") from exc
    if not values:
        raise ParseError(f"{flag} lists no numbers")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ParseError(f"bad integer list {text!r}") from exc


def _zip_qs(q_list, s_list):
    if len(q_list) == 1 and len(s_list) > 1:
        q_list = q_list * len(s_list)
    if len(s_list) == 1 and len(q_list) > 1:
        s_list = s_list * len(q_list)
    if len(q_list) != len(s_list):
        raise ParseError("--q and --s lists must have matching lengths")
    return list(zip(q_list, s_list))


FAMILY_FLAGS = {"pseudopure": "p", "isotropic": "y", "werner": "x"}  # family -> parameter flag


def _family_spec_from_args(args) -> families.FamilySpec:
    n = args.family_n
    if n is None:
        raise ParseError("--family requires --N")
    _require_count(n, "--N")
    value = _family_parameter(args)
    if value is None:
        raise ParseError(f"{args.family} requires --{FAMILY_FLAGS[args.family]}")
    return families.FamilySpec(args.family, n, n, value)


def _state_from_args(args) -> DensityOperator:
    if getattr(args, "state_file", None):
        return parse_state_file(args.state_file)
    if getattr(args, "family", None):
        return families.build(_family_spec_from_args(args))
    raise ParseError("provide either --state-file or --family flags")


def _family_parameter(args):
    flag = FAMILY_FLAGS.get(getattr(args, "family", None))
    return None if flag is None else getattr(args, flag)


def _source_fields(args) -> dict:
    """The ``config:`` fields naming where the state came from."""
    return dict(family=args.family, family_n=args.family_n, family_parameter=_family_parameter(args),
                state_file=args.state_file)


def _search_fields(args) -> dict:
    """The ``config:`` fields of a search at one index pair."""
    return dict(q=(args.q_scalar,), s=(args.s_scalar,), seed=args.seed, restarts=args.restarts)


def _require_count(value: int, flag: str):
    if value < 1:
        raise ParseError(f"{flag} must be >= 1, got {value}")


def _search_options(args) -> OptimizerOptions:
    """The search budget that --restarts and --seed set; --restarts below 1 is an error."""
    _require_count(args.restarts, "--restarts")
    return OptimizerOptions(restarts=args.restarts, seed=args.seed)


def _basis_str(basis) -> str:
    """A ``basis_*`` column of ``measure``: the unitary's entries row-major, each real then imaginary part."""
    if basis is None:
        return ""
    return ";".join(f"{x:.17g}" for x in np.ascontiguousarray(basis.unitary, dtype=complex).view(float).ravel())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_entropy(args) -> int:
    rho = _state_from_args(args)
    pairs = _zip_qs(_float_list(args.q, "--q"), _float_list(args.s, "--s"))
    cfg = _config(
        "entropy",
        q=tuple(p[0] for p in pairs),
        s=tuple(p[1] for p in pairs),
        dims=rho.dims,
        **_source_fields(args),
    )
    rows = []
    for q, s in pairs:
        idx = EntropicIndices(q, s)
        rows.append(
            (q, s, idx.regime.value, unified_entropy(rho, idx), max_entropy(rho.dim, idx))
        )
    write_csv(
        args.out,
        [cfg],
        ["q", "s", "regime", "entropy", "max_entropy"],
        rows,
    )
    return 0


def cmd_measure(args) -> int:
    opts = _search_options(args)
    rho = _state_from_args(args)
    idx = EntropicIndices(args.q_scalar, args.s_scalar)
    cfg = _config(
        "measure",
        dims=rho.dims,
        side=args.side,
        **_search_fields(args),
        **_source_fields(args),
    )
    res = measure_correlations(rho, args.side, idx, opts)
    rows = [
        (
            args.side,
            args.q_scalar,
            args.s_scalar,
            res.value,
            res.spread,
            res.converged,
            res.grad_norm,
            res.basin_hits,
            res.restarts_used,
            res.iterations,
            res.nfev,
            _basis_str(res.argmin.basis_a),
            _basis_str(res.argmin.basis_b),
        )
    ]
    write_csv(
        args.out,
        [cfg],
        ["side", "q", "s", "value", "spread", "converged", "grad_norm", "basin_hits", "restarts",
         "iterations", "nfev", "basis_a", "basis_b"],
        rows,
    )
    return 0


def _family_grid(kind: str, n: int, points: int) -> np.ndarray:
    if kind == "pseudopure":
        return np.linspace(0.0, 1.0, points)
    if kind == "isotropic":
        return np.linspace(1.0 / n**2, 1.0, points)
    return np.linspace(-1.0, 1.0, points)


def cmd_family_curve(args) -> int:
    kind, n = args.family, args.family_n
    if kind is None or n is None:
        raise ParseError("family-curve requires --family and --N")
    _require_count(n, "--N")
    _require_count(args.grid, "--grid")
    opts = _search_options(args)
    idx = EntropicIndices(args.q_scalar, args.s_scalar)
    cfg = _config(
        "family-curve",
        grid=args.grid,
        side=args.side,
        family=kind,
        family_n=n,
        **_search_fields(args),
    )
    header = ["parameter", "closed_form", "optimizer_value", "abs_diff"]
    if kind == "werner":
        header += ["printed_form", "printed_minus_closed"]
    rows = []
    for value in _family_grid(kind, n, args.grid):
        spec = families.FamilySpec(kind, n, n, float(value))
        rho = families.build(spec)
        if kind == "pseudopure":
            closed = families.pseudopure_closed_form(spec, args.side, idx)
        elif kind == "isotropic":
            closed = families.isotropic_closed_form(n, float(value), idx)
        else:
            closed = families.werner_spectrum_form(n, float(value), idx)
        found = measure_correlations(rho, args.side, idx, opts).value
        row = [float(value), closed, found, abs(closed - found)]
        if kind == "werner":
            printed = families.werner_printed_form(n, float(value), idx)
            row += [printed, printed - closed]
        rows.append(tuple(row))
    write_csv(args.out, [cfg], header, rows)
    return 0


def cmd_fig1(args) -> int:
    _require_count(args.n_states, "--n-states")
    _require_count(args.trials, "--trials")
    q_list = _float_list(args.q, "--q")
    cfg = _config(
        "fig1",
        q=q_list,
        seed=args.seed,
        trials=args.trials,
        n_states=args.n_states,
        dims=(2, 2),
    )
    rows = []
    for state_id in range(args.n_states):
        rho = linalg.random_density((2, 2), np.random.default_rng([args.seed, state_id]))
        spectra = correlations.measurement_pair_spectra(
            rho, args.trials, [args.seed, state_id, 1]
        )
        for q in q_list:
            # ln sum p^q does not depend on s: one set of sums serves both rows
            sums = correlations.spectral_sums(spectra, EntropicIndices(q, 1.0))
            for family_name, s in (("renyi", 0.0), ("tsallis", 1.0)):
                idx = EntropicIndices(q, s)
                min_diff = correlations.contractivity_min_from_spectra(spectra, idx, sums)
                rows.append(
                    (state_id, family_name, q, min_diff, min_diff < -VIOLATION_TOL)
                )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    n_violated = sum(1 for r in rows if r[4])
    write_csv(
        args.out,
        [cfg],
        ["state_id", "family", "q", "min_difference", "violated"],
        rows,
        [f"summary: rows={len(rows)} violations={n_violated}"],
    )
    return 0


def _build_ancilla(kind: str, dim: int, rng) -> DensityOperator:
    if kind == "pure":
        psi = linalg.random_pure(dim, rng)
        return linalg.make_density(np.outer(psi, psi.conj()), (dim,))
    if kind == "mmix":
        return linalg.make_density(np.eye(dim) / dim, (dim,))
    return linalg.random_density(dim, rng)


def cmd_ancilla_check(args) -> int:
    dims = _int_list(args.dims)
    if len(dims) != 2:
        raise ParseError("--dims must list exactly two dimensions")
    _require_count(min(dims), "--dims entries")
    _require_count(args.ancilla_dim, "--ancilla-dim")
    _require_count(args.samples, "--samples")
    opts = _search_options(args)
    idx = EntropicIndices(args.q_scalar, args.s_scalar)
    cfg = _config(
        "ancilla-check",
        dims=dims,
        samples=args.samples,
        ancilla_dim=args.ancilla_dim,
        ancilla=args.ancilla,
        grouping=args.grouping,
        **_search_fields(args),
    )
    rows = []
    for sample_id in range(args.samples):
        rng = np.random.default_rng([args.seed, sample_id])
        rho = linalg.random_density(dims, rng)
        ancilla = _build_ancilla(args.ancilla, args.ancilla_dim, rng)
        extended = linalg.tensor(rho, ancilla)
        if args.grouping == "a-bc":
            side_before = "A"
            grouped = linalg.regroup(extended, [0])
        else:
            side_before = "B"
            grouped = linalg.regroup(extended, [1])
        res_before = measure_correlations(rho, side_before, idx, opts)
        res_after = measure_correlations(grouped, "A", idx, opts)
        unrescaled_before = res_before.value * measurement.rescale_factor(
            linalg.spectrum(rho), idx
        )
        unrescaled_after = res_after.value * measurement.rescale_factor(
            linalg.spectrum(grouped), idx
        )
        rows.append(
            (
                sample_id,
                res_before.value,
                res_after.value,
                abs(res_after.value - res_before.value),
                abs(unrescaled_after - unrescaled_before),
            )
        )
    write_csv(
        args.out,
        [cfg],
        ["sample_id", "d_before", "d_after_ancilla", "rescaled_diff", "unrescaled_diff"],
        rows,
    )
    return 0


def cmd_triangle_scan(args) -> int:
    _require_count(args.n_states, "--n-states")
    opts = _search_options(args)
    pairs = _zip_qs(_float_list(args.q, "--q"), _float_list(args.s, "--s"))
    cfg = _config(
        "triangle-scan",
        q=tuple(p[0] for p in pairs),
        s=tuple(p[1] for p in pairs),
        seed=args.seed,
        restarts=args.restarts,
        n_states=args.n_states,
        dims=(2, 2),
    )
    rows = []
    for state_id in range(args.n_states):
        rho = linalg.random_density((2, 2), np.random.default_rng([args.seed, state_id]))
        for q, s in pairs:
            report = correlations.triangle_analysis(rho, EntropicIndices(q, s), opts)
            ordering_holds = report.m_ab >= max(report.m_a, report.m_b) - 1e-8
            rows.append(
                (
                    state_id, q, s,
                    report.m_a, report.m_b, report.m_ab,
                    report.delta0, report.delta1,
                    report.triangle_holds, report.dadb_holds, ordering_holds,
                )
            )
    footer = [
        "summary: rows={} triangle_violations={} sandwich_violations={} "
        "ordering_violations={}".format(
            len(rows),
            sum(1 for r in rows if not r[8]),
            sum(1 for r in rows if not r[9]),
            sum(1 for r in rows if not r[10]),
        )
    ]
    write_csv(
        args.out,
        [cfg],
        ["state_id", "q", "s", "m_a", "m_b", "m_ab", "delta0", "delta1",
         "triangle_holds", "sandwich_holds", "ordering_holds"],
        rows,
        footer,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_state_source(sub, family_required=False):
    sub.add_argument("--state-file", dest="state_file", default=None)
    sub.add_argument("--family", choices=families.KINDS,
                     required=family_required, default=None)
    sub.add_argument("--N", dest="family_n", type=int, default=None)
    for flag in FAMILY_FLAGS.values():
        sub.add_argument(f"--{flag}", type=float, default=None)


def _add_search_flags(sub, q=1.0, restarts=8):
    """--q and --s (one index pair), --restarts, --seed and --out of a one-search command."""
    sub.add_argument("--q", dest="q_scalar", type=float, default=q)
    sub.add_argument("--s", dest="s_scalar", type=float, default=1.0)
    sub.add_argument("--restarts", type=int, default=restarts)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Entropic quantum-correlation measures from local measurement disturbance",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("entropy", help="unified entropy of a state")
    _add_state_source(p)
    p.add_argument("--q", default="1")
    p.add_argument("--s", default="1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entropy)

    p = subs.add_parser("measure", help="minimized correlation measure of a state")
    _add_state_source(p)
    p.add_argument("--side", choices=measurement.SIDES, default="AB")
    _add_search_flags(p, restarts=16)
    p.set_defaults(func=cmd_measure)

    p = subs.add_parser("family-curve", help="closed form vs optimizer over a parameter grid")
    _add_state_source(p, family_required=True)
    p.add_argument("--side", choices=measurement.SIDES, default="A")
    p.add_argument("--grid", type=int, default=5)
    _add_search_flags(p)
    p.set_defaults(func=cmd_family_curve)

    p = subs.add_parser("fig1", help="contractivity sweep over random states and measurements")
    p.add_argument("--q", default=",".join(str(q) for q in FIG1_DEFAULT_Q))
    p.add_argument("--n-states", dest="n_states", type=int, default=20)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fig1)

    p = subs.add_parser("ancilla-check", help="measure drift when appending an uncorrelated ancilla")
    p.add_argument("--dims", default="2,2")
    p.add_argument("--ancilla-dim", dest="ancilla_dim", type=int, default=2)
    p.add_argument("--ancilla", choices=("mixed", "pure", "mmix"), default="mixed")
    p.add_argument("--grouping", choices=("a-bc", "b-ac"), default="a-bc")
    p.add_argument("--samples", type=int, default=20)
    _add_search_flags(p, q=2.0)
    p.set_defaults(func=cmd_ancilla_check)

    p = subs.add_parser("triangle-scan", help="triangle/ordering inequalities on random states")
    p.add_argument("--n-states", dest="n_states", type=int, default=200)
    p.add_argument("--q", default=",".join(str(q) for q in TRIANGLE_DEFAULT_Q))
    p.add_argument("--s", default=",".join(str(s) for s in TRIANGLE_DEFAULT_S))
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_triangle_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, OverflowError) as exc:
        kind = "float overflow: " if isinstance(exc, OverflowError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
