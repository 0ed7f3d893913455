"""Command-line front end and experiment drivers.

Subcommands: ``entropy``, ``measure``, ``family-curve``, ``fig1``,
``ancilla-check``, ``triangle-scan``.  A state comes from a state file or
from a row of ``families.KINDS``, never both.  All randomized commands
require ``--seed`` and produce byte-identical CSV bodies for identical
configs.  CSV output starts with ``#``-prefixed metadata lines (schema
version, config echo), then a header row; reals carry 17 significant
digits.  The config echo is every parsed argument but the output
destination (``--out``), so two configurations never share one.
Inequality violations found by the experiment drivers are data, never
errors: the exit status is nonzero only on hard failures.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import correlations, families, linalg, measurement
from .correlations import OptimizerOptions, measure_correlations
from .entropy import EntropicIndices, max_entropy, purity_ratio_sums, spectral_sum, unified_entropy
from .linalg import DensityOperator

SCHEMA_VERSION = 2

FIG1_DEFAULT_Q = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
TRIANGLE_DEFAULT_Q = (1.0, 2.0, 0.5, 2.0, 3.0)
TRIANGLE_DEFAULT_S = (1.0, 1.0, 1.0, 0.0, 0.5)
VIOLATION_TOL = 1e-6


class ParseError(ValueError):
    pass


def _config(args, **parsed) -> str:
    """Echo of one CLI invocation, the ``config:`` line of the CSV metadata.

    Every parsed argument is a field but argparse's ``func`` and the output
    destinations (``--out``; a later output path, such as a trace file,
    joins it), the kind's parameter flag as ``family_parameter``.  ``parsed``
    replaces a raw ``--q``, ``--s`` or ``--dims`` string by its parsed value
    and adds derived fields such as ``dims``.  Fields are sorted by name;
    None and empty tuples are skipped, and a tuple is written comma-joined.
    Every seeded command echoes its config once its other checks have
    passed, so a negative seed is refused here.
    """
    skipped = {"func", "out", *(row.parameter for row in families.KINDS.values())}
    fields = {key: value for key, value in vars(args).items() if key not in skipped}
    kind = getattr(args, "family", None)  # the family-curve sweep has --family but no parameter flag
    fields.update(family_parameter=kind and getattr(args, families.KINDS[kind].parameter, None), **parsed)
    if fields.get("seed", 0) < 0:
        raise ParseError(f"--seed must be >= 0, got {fields['seed']}")
    parts = []
    for key, value in sorted(fields.items()):
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
        return f"{float(value) + 0.0:.17g}"  # + 0.0 writes -0.0 as 0 and keeps every other value's bits
    return str(value)


def write_csv(path, config: str, rows: list[dict], footer=()):
    """Write the schema and ``config`` lines, a header, one line per row, then the ``footer`` lines.

    The header is the first row's keys, and every line reads its cells by
    the header's names, so a row missing a column raises KeyError.
    """
    header = list(rows[0])
    lines = [f"# schema_version={SCHEMA_VERSION}", f"# {config}", ",".join(header)]
    lines += [",".join(_fmt(row[name]) for name in header) for row in rows]
    lines += [f"# {m}" for m in footer]
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
    if min(dims) < 1:
        raise ParseError(f"dimensions must be >= 1, got {lines[0]!r}")
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


def _once(values, name):  # a value listed twice would write its rows twice; name(value) words it
    if (repeat := next((v for i, v in enumerate(values) if v in values[:i]), None)) is not None:
        raise ParseError(f"{name(repeat)} twice")
    return values


def _zip_qs(q_list, s_list):
    if len(q_list) == 1 and len(s_list) > 1:
        q_list = q_list * len(s_list)
    if len(s_list) == 1 and len(q_list) > 1:
        s_list = s_list * len(q_list)
    if len(q_list) != len(s_list):
        raise ParseError("--q and --s lists must have matching lengths")
    return _once(list(zip(q_list, s_list)), lambda qs: "--q and --s list the pair q={}, s={}".format(*map(_fmt, qs)))


def _state_from_args(args) -> DensityOperator:
    """The state of --state-file, or of --family, --N and the kind's parameter flag; never of both."""
    given = [f"--{row.parameter}" for row in families.KINDS.values() if getattr(args, row.parameter) is not None]
    if args.state_file:
        if args.family or args.family_n is not None or given:
            raise ParseError("--state-file takes no --family, --N or parameter flag")
        return parse_state_file(args.state_file)
    if not args.family:
        raise ParseError("provide either --state-file or --family flags")
    n = args.family_n
    if n is None:
        raise ParseError("--family requires --N")
    _require_count(n, "--N")
    parameter = families.KINDS[args.family].parameter
    if given != [f"--{parameter}"]:
        raise ParseError(f"{args.family} takes --{parameter} alone, got {' '.join(given) or 'no parameter flag'}")
    return families.build(families.FamilySpec(args.family, n, n, getattr(args, parameter)))


def _require_count(value: int, flag: str):
    if value < 1:
        raise ParseError(f"{flag} must be >= 1, got {value}")


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
    cfg = _config(args, q=tuple(p[0] for p in pairs), s=tuple(p[1] for p in pairs), dims=rho.dims)
    rows = []
    for q, s in pairs:
        idx = EntropicIndices(q, s)
        rows.append(dict(q=q, s=s, regime=idx.regime.value, entropy=unified_entropy(rho, idx),
                         max_entropy=max_entropy(rho.dim, idx)))
    write_csv(args.out, cfg, rows)
    return 0


def cmd_measure(args) -> int:
    _require_count(args.restarts, "--restarts")
    rho = _state_from_args(args)
    if len(rho.dims) != 2:
        raise ParseError(f"measure takes two subsystems: write the dims line as 'dims: N_A N_B', got dims {rho.dims}")
    idx = EntropicIndices(args.q, args.s)
    cfg = _config(args, dims=rho.dims)
    res = measure_correlations(rho, args.side, idx, OptimizerOptions(restarts=args.restarts, seed=args.seed))
    row = dict(
        side=args.side, q=args.q, s=args.s, value=res.value, spread=res.spread,
        converged=res.converged, grad_norm=res.grad_norm, basin_hits=res.basin_hits,
        restarts=res.restarts_used, iterations=res.iterations, nfev=res.nfev,
        basis_a=_basis_str(res.argmin.basis_a), basis_b=_basis_str(res.argmin.basis_b),
    )
    write_csv(args.out, cfg, [row])
    return 0


def cmd_family_curve(args) -> int:
    kind, n = args.family, args.family_n
    if n is None:
        raise ParseError("family-curve requires --N")
    _require_count(n, "--N")
    _require_count(args.grid, "--grid")
    _require_count(args.restarts, "--restarts")
    idx = EntropicIndices(args.q, args.s)
    cfg = _config(args)
    opts = OptimizerOptions(restarts=args.restarts, seed=args.seed)
    rows = []
    for value in np.linspace(*families.KINDS[kind].bounds(n), args.grid).tolist():
        spec = families.FamilySpec(kind, n, n, value)
        closed = families.closed_form(spec, args.side, idx)
        found = measure_correlations(families.build(spec), args.side, idx, opts).value
        row = dict(parameter=value, closed_form=closed, optimizer_value=found, abs_diff=abs(closed - found))
        if kind == "werner":
            printed = families.werner_printed_form(n, value, idx)
            row.update(printed_form=printed, printed_minus_closed=printed - closed)
        rows.append(row)
    write_csv(args.out, cfg, rows)
    return 0


def cmd_fig1(args) -> int:
    _require_count(args.n_states, "--n-states")
    _require_count(args.trials, "--trials")
    q_list = _once(_float_list(args.q, "--q"), lambda q: f"--q lists {_fmt(q)}")
    cfg = _config(args, q=q_list, dims=(2, 2))
    grid = [(family, EntropicIndices(q, s)) for family, s in (("renyi", 0.0), ("tsallis", 1.0)) for q in sorted(q_list)]
    rows = []
    for state_id in range(args.n_states):
        rho = linalg.random_density((2, 2), np.random.default_rng([args.seed, state_id]))
        spectra = correlations.measurement_pair_spectra(
            rho, args.trials, [args.seed, state_id, 1]
        )
        mins = correlations.contractivity_min_from_spectra(spectra, [idx for _, idx in grid])
        for (family, idx), min_diff in zip(grid, mins):
            rows.append(dict(state_id=state_id, family=family, q=idx.q, min_difference=min_diff,
                             violated=min_diff < -VIOLATION_TOL))
    n_violated = sum(row["violated"] for row in rows)
    write_csv(args.out, cfg, rows, [f"summary: rows={len(rows)} violations={n_violated}"])
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
    _require_count(args.restarts, "--restarts")
    idx = EntropicIndices(args.q, args.s)
    cfg = _config(args, dims=dims)
    opts = OptimizerOptions(restarts=args.restarts, seed=args.seed)
    measured = "ab".index(args.grouping[0])  # the subsystem kept alone, and the side measured before
    rows = []
    for sample_id in range(args.samples):
        rng = np.random.default_rng([args.seed, sample_id])
        rho = linalg.random_density(dims, rng)
        ancilla = _build_ancilla(args.ancilla, args.ancilla_dim, rng)
        extended = linalg.tensor(rho, ancilla)
        grouped = linalg.regroup(extended, [measured])
        res_before = measure_correlations(rho, "AB"[measured], idx, opts)
        res_after = measure_correlations(grouped, "A", idx, opts)
        purity_before, purity_after = (  # (Tr rho^q)^s of each state, which undoes its value's rescaling
            purity_ratio_sums(spectral_sum(linalg.spectrum(state), idx), 0.0, idx) for state in (rho, grouped))
        rows.append(dict(
            sample_id=sample_id,
            d_before=res_before.value,
            d_after_ancilla=res_after.value,
            rescaled_diff=abs(res_after.value - res_before.value),
            unrescaled_diff=abs(res_after.value * purity_after - res_before.value * purity_before),
        ))
    write_csv(args.out, cfg, rows)
    return 0


def cmd_triangle_scan(args) -> int:
    _require_count(args.n_states, "--n-states")
    _require_count(args.restarts, "--restarts")
    pairs = _zip_qs(_float_list(args.q, "--q"), _float_list(args.s, "--s"))
    cfg = _config(args, q=tuple(p[0] for p in pairs), s=tuple(p[1] for p in pairs), dims=(2, 2))
    opts = OptimizerOptions(restarts=args.restarts, seed=args.seed)
    rows = []
    for state_id in range(args.n_states):
        rho = linalg.random_density((2, 2), np.random.default_rng([args.seed, state_id]))
        reports = correlations.triangle_analysis(rho, [EntropicIndices(q, s) for q, s in pairs], opts)
        for (q, s), report in zip(pairs, reports):
            rows.append(dict(state_id=state_id, q=q, s=s, **report._asdict()))
    counts = [f"{flag}_violations={sum(not row[flag + '_holds'] for row in rows)}"
              for flag in ("triangle", "sandwich", "ordering")]
    write_csv(args.out, cfg, rows, [" ".join([f"summary: rows={len(rows)}", *counts])])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_state_source(sub):
    sub.add_argument("--state-file", dest="state_file", default=None)
    sub.add_argument("--family", choices=families.KINDS, default=None)
    sub.add_argument("--N", dest="family_n", type=int, default=None)
    for kind, row in families.KINDS.items():
        sub.add_argument(f"--{row.parameter}", type=float, default=None, help=f"the {kind} parameter")


def _add_search_flags(sub, q=1.0, restarts=8):
    """--q and --s (one index pair), --restarts, --seed and --out of a one-search command."""
    sub.add_argument("--q", type=float, default=q)
    sub.add_argument("--s", type=float, default=1.0)
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
    p.add_argument("--family", choices=families.KINDS, required=True)
    p.add_argument("--N", dest="family_n", type=int, default=None)
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
    except (ValueError, OSError, OverflowError) as exc:
        kind = "float overflow: " if isinstance(exc, OverflowError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
