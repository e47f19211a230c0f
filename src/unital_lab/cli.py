"""``unital-lab``: parameter sweeps, per-theorem verification, pedal and orbit
reports, and open-problem scanners.

    unital-lab <verify|pedal|census|orbit|scan>
        --p P --n N [--w W] [--alpha A] [--beta B] [--lambda {1,w}]
        [--point X,Y,Z] [--problem NAME] [--format json|csv]
        [--out PATH] [--jobs K]

Element syntax: GF(q) values are decimal codes, GF(q^2) values ``A+e*B``.
Every long flag can be defaulted through an environment variable prefixed
``UNITAL_LAB_`` (for example ``UNITAL_LAB_JOBS=4``), checked like the flag
itself; explicit flags win.

Reports are deterministic: records are emitted in canonical parameter order
and carry no timings (those go to stderr), so a sweep produces byte-identical
output regardless of the worker count.  Exit status: 0 when all checks pass,
2 when any structural or theorem check fails, 1 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import multiprocessing as mp
import os
import sys
import time

import numpy as np

from . import __version__
from .elations import ElationGroup, orbit_incidence_stats, orbit_line_census, orbit_of_pedal, partition_lines_for_orbit
from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    InternalConsistencyError,
    InvalidUnitalParameters,
    ParameterError,
    StructuralViolation,
    TheoremViolation,
)
from .fields import build_field_ctx
from .pedals import (
    PedalSet,
    arc_in_conic,
    canonical_base_point,
    feet_closed_form,
    feet_of,
    feet_of_many,
    is_single_arc,
    line_pedal_census,
    secant_partitions,
    two_arc_partition,
)
from .plane import LineId, PointId, ProjectivePlane
from .unitals import build_obm_unital, valid_parameter_pairs, validate_params

ENV_PREFIX = "UNITAL_LAB_"
# Sweep caps: exhaustive external-point work only at desk scale.
FULL_POINT_SWEEP_MAX_Q = 5
SECANT_SAMPLE = 200


# -- shared machinery -------------------------------------------------------------

# The field and the plane (incidence table built) of the last requested
# (p, n, w); forked pool workers inherit it.
_WORKER: dict = {}


def _context(p: int, n: int, w: int | None):
    """(ctx, plane) for the requested (p, n, w), built only when another
    triple was asked for last."""
    if _WORKER.get("key") != (p, n, w):
        ctx = build_field_ctx(p, n, w)
        plane = ProjectivePlane(ctx)
        plane.incidence
        _WORKER.update(key=(p, n, w), ctx=ctx, plane=plane)
    return _WORKER["ctx"], _WORKER["plane"]


def _sweep(args, tuples: list, per_tuple) -> tuple[list, dict]:
    """Map per_tuple (tuple -> list of records) over the tuples, in-process
    or in a fork pool of min(--jobs, CPU count, tuple count) processes, and
    return the records in tuple order with their summary.  Callers prime
    the worker context first."""
    workers = min(max(1, args.jobs), os.cpu_count() or 1, len(tuples))
    if workers <= 1:
        parts = [per_tuple(t) for t in tuples]
    else:
        with mp.get_context("fork").Pool(workers) as pool:
            parts = pool.map(per_tuple, tuples, max(1, len(tuples) // (workers * 4)))
    records = [rec for part in parts for rec in part]
    fail = sum(r.get("status") == "fail" for r in records)
    skipped = sum(str(r.get("status")).startswith("skipped") for r in records)
    summary = {"pass": len(records) - fail - skipped, "fail": fail, "skipped": skipped}
    return records, summary


def _pair_list(ctx, args) -> list[tuple[int, int]]:
    if args.alpha is not None and args.beta is not None:
        return [(ctx.parse_fq2(args.alpha), ctx.parse_fq2(args.beta))]
    alphas = [ctx.parse_fq2(args.alpha)] if args.alpha is not None else range(ctx.q2)
    betas = [ctx.parse_fq2(args.beta)] if args.beta is not None else range(ctx.q2)
    return [(a, b) for a in alphas for b in betas]


def _record_base(ctx, alpha: int, beta: int) -> dict:
    return {
        "tool_version": __version__,
        "p": ctx.p,
        "n": ctx.n,
        "w": ctx.w,
        "alpha": ctx.format_fq2(alpha),
        "beta": ctx.format_fq2(beta),
    }


# -- verify ----------------------------------------------------------------------


def _verify_pair(pair) -> list:
    """The verify record of one pair.  A build that fails its own check
    gives the pair a single ``fail`` record with check ``build``, and the
    sweep goes on."""
    ctx, plane = _WORKER["ctx"], _WORKER["plane"]
    alpha, beta = pair
    rec = _record_base(ctx, alpha, beta)
    try:
        params = validate_params(ctx, alpha, beta)
    except InvalidUnitalParameters as exc:
        rec.update(status="skipped: invalid (discriminant square)", discriminant=exc.discriminant)
        return [rec]
    try:
        model = build_obm_unital(ctx, plane, params)
    except StructuralViolation as exc:
        rec.update(status="fail", check="build", error=f"{type(exc).__name__}: {exc}")
        return [rec]
    rec.update(model.record())
    checks = {}
    checks["size"] = model.size == ctx.q**3 + 1
    try:
        hist = model.verify_unital_axiom()
        checks["unital_axiom"] = True
        rec["tangent_lines"] = hist.get(1, 0)
        rec["secant_lines"] = hist.get(ctx.q + 1, 0)
    except StructuralViolation:
        checks["unital_axiom"] = False
    blocking = model.verify_minimal_blocking_set()
    checks["blocking"] = blocking.blocking
    checks["minimal"] = blocking.minimal
    checks["attains_bound"] = blocking.attains_bound
    pts, formula = model.tangent_lines_closed_form()
    try:
        ok = bool(np.array_equal(model.touch_points[formula], pts))
    except StructuralViolation:  # some point lies on no or several tangents
        ok = False
    checks["tangent_formula_matches_oracle"] = ok
    rec["checks"] = checks
    rec["status"] = "pass" if all(checks.values()) else "fail"
    return [rec]


def cmd_verify(args) -> tuple[dict, int]:
    ctx, _ = _context(args.p, args.n, args.w)
    records, summary = _sweep(args, _pair_list(ctx, args), _verify_pair)
    report = _report_envelope("verify", ctx, args, records, summary)
    return report, (2 if summary["fail"] else 0)


# -- pedal / census / orbit --------------------------------------------------------


def _single_tuple(args):
    if args.alpha is None or args.beta is None:
        raise ParameterError(f"{args.command} requires --alpha and --beta")
    if args.lam is not None and args.point is not None:
        raise ParameterError("--lambda and --point each name the base point; give one")
    ctx, plane = _context(args.p, args.n, args.w)
    params = validate_params(ctx, ctx.parse_fq2(args.alpha), ctx.parse_fq2(args.beta))
    return ctx, plane, build_obm_unital(ctx, plane, params)


def _single_report(args, ctx, model, fields: dict) -> tuple[dict, int]:
    """The one-record report of pedal, census and orbit: the tuple's record
    base followed by the command's fields; it passes by construction."""
    rec = {**_record_base(ctx, model.params.alpha, model.params.beta), **fields}
    summary = {"pass": 1, "fail": 0, "skipped": 0}
    return _report_envelope(args.command, ctx, args, [rec], summary), 0


def _resolve_base(ctx, plane, model, args):
    """(base point id, lam or None) from --lambda / --point."""
    if args.lam is not None:
        lam = 1 if args.lam == "1" else ctx.w
        return canonical_base_point(model, lam), lam
    if args.point is None:
        raise ParameterError(f"{args.command} requires --lambda or --point")
    base = plane.parse_point(args.point)
    if base in model:
        raise ParameterError(
            f"point {plane.format_point(base)} lies on the unital; pedals are "
            "defined for external points"
        )
    lam = None
    # a --point naming the canonical base still gets the closed-form frame
    for cand in (1, ctx.w):
        if base == canonical_base_point(model, cand):
            lam = cand
    return base, lam


def _arc_report(model, pedal) -> dict:
    """Two-arc split of a pedal, the single-arc flag and a conic fit per part."""
    parts = two_arc_partition(model, pedal)
    return {
        "parts": [len(parts[0]), len(parts[1])],
        "arc_checks": True,  # two_arc_partition would have raised otherwise
        "single_arc": is_single_arc(model, pedal),
        "conic_fit": [
            (fit.contained if fit.status == "ok" else fit.status)
            for fit in (arc_in_conic(model.plane, part) for part in parts if part)
        ],
    }


def _pedal_payload(ctx, plane, model, base, lam) -> dict:
    rec: dict = {"base_point": plane.format_point(base)}
    brute = feet_of(model, base)
    rec["feet"] = [plane.format_point(PointId(f)) for f in brute.feet]
    rec["collinear"] = plane.collinear(brute.feet)
    pedal = brute
    if lam is not None and not model.params.classical:
        closed = feet_closed_form(model, lam)
        if closed.feet != brute.feet:
            raise InternalConsistencyError("closed-form feet differ from brute-force feet")
        pedal = closed
        rec["lambda"] = "1" if lam == 1 else "w"
        rec["foot_params"] = [ctx.format_fq2(x) for x in closed.foot_params]
        rec["trace_classes"] = {
            str(t): [ctx.format_fq2(x) for x in cls] for t, cls in closed.trace_classes.items()
        }
    off_linf = not plane.incident(base, plane.infinity_line)
    if off_linf and not model.params.classical:
        census = line_pedal_census(model, pedal)
        rec["census"] = census.as_json_dict()
        rec["arc_report"] = _arc_report(model, pedal)
    return rec


def cmd_pedal(args) -> tuple[dict, int]:
    ctx, plane, model = _single_tuple(args)
    base, lam = _resolve_base(ctx, plane, model, args)
    return _single_report(args, ctx, model, _pedal_payload(ctx, plane, model, base, lam))


def cmd_census(args) -> tuple[dict, int]:
    ctx, plane, model = _single_tuple(args)
    base, _ = _resolve_base(ctx, plane, model, args)
    census = line_pedal_census(model, feet_of(model, base))
    return _single_report(args, ctx, model, census.as_json_dict(base=base))


def cmd_orbit(args) -> tuple[dict, int]:
    ctx, plane, model = _single_tuple(args)
    if args.lam is None:
        raise ParameterError("orbit requires --lambda (canonical frame)")
    lam = 1 if args.lam == "1" else ctx.w
    orbit = orbit_of_pedal(model, feet_closed_form(model, lam))
    lines = partition_lines_for_orbit(model, orbit)
    census = orbit_line_census(model, orbit)
    fields = {
        "lambda": args.lam,
        "pedals": [
            {"t": t, "feet": [plane.format_point(PointId(f)) for f in feet]}
            for t, feet in orbit.pedals
        ],
        "partition_lines": [plane.format_line(l) for l in lines],
        "census_histogram": {str(s): c for s, c in sorted(census.histogram.items())},
        "incidence_stats": orbit_incidence_stats(model, orbit),
    }
    return _single_report(args, ctx, model, fields)


# -- scan -------------------------------------------------------------------------


def _scan_bases(model) -> np.ndarray:
    """Base points for pedal scans: every external point off the line at
    infinity at desk scale, otherwise the canonical bases and their elation
    translates."""
    ctx, plane = model.ctx, model.plane
    if ctx.q <= FULL_POINT_SWEEP_MAX_Q:
        on_linf = np.zeros(plane.size, dtype=bool)
        on_linf[plane.points_on(plane.infinity_line)] = True
        all_ids = np.arange(plane.size, dtype=np.int32)
        return all_ids[~model.mask & ~on_linf]
    group = ElationGroup(model)
    ts = np.arange(group.order, dtype=np.int32)[:, None]
    canonical = [canonical_base_point(model, lam) for lam in (1, ctx.w)]
    return np.unique(group.apply_points(ts, canonical))


# A scan maps a model to its list of record fields: one per lambda (1, then
# w) for the lambda-split problems, else one.


def _lambdas(ctx) -> tuple[tuple[str, int], ...]:
    return (("1", 1), ("w", ctx.w))


def _scan_four_lines(model) -> list:
    bases = _scan_bases(model)
    feet = feet_of_many(model, bases)
    # Each lambda census reads the feet row of its base among the sorted bases.
    canonical = [canonical_base_point(model, lam) for _, lam in _lambdas(model.ctx)]
    rows = np.searchsorted(bases, canonical).clip(max=bases.size - 1)
    if not np.array_equal(bases[rows], canonical):
        raise InternalConsistencyError("a canonical base is not among the scanned bases")
    censuses = [
        line_pedal_census(model, PedalSet(b, tuple(feet[r].tolist())))
        for b, r in zip(canonical, rows)
    ]
    max_line_size = int(model.plane.max_collinear(feet).max())
    fields = {
        "scanned_bases": int(bases.size),
        "max_line_size": max_line_size,
        "size4_lines_exist": max_line_size >= 4,
        "lambda_censuses_equal": censuses[0].histogram == censuses[1].histogram,
    }
    return [fields]


def _scan_conics(model) -> list:
    return [
        {"lambda": label, **_arc_report(model, feet_closed_form(model, lam))}
        for label, lam in _lambdas(model.ctx)
    ]


def _scan_orbit_census(model) -> list:
    out = []
    for label, lam in _lambdas(model.ctx):
        orbit = orbit_of_pedal(model, feet_closed_form(model, lam))
        partition_lines_for_orbit(model, orbit)
        census = orbit_line_census(model, orbit)
        histogram = {str(s): c for s, c in sorted(census.histogram.items())}
        out.append({"lambda": label, "census_histogram": histogram})
    return out


def _scan_secant_partition(model) -> list:
    ctx, plane = model.ctx, model.plane
    secants = np.nonzero(model.line_counts == ctx.q + 1)[0]
    if secants.size > SECANT_SAMPLE and ctx.q > FULL_POINT_SWEEP_MAX_Q:
        step = secants.size // SECANT_SAMPLE
        secants = secants[::step][:SECANT_SAMPLE]
    witness = None
    bases, feet = secant_partitions(model, secants)
    if secants.size:
        witness = {
            "line": plane.format_line(LineId(int(secants[0]))),
            "pairs": [
                [plane.format_point(int(b)), plane.format_point(int(f))]
                for b, f in zip(bases[0], feet[0])
            ],
        }
    fields = {"secants_checked": int(secants.size), "all_partitioned": True, "witness": witness}
    return [fields]


def _scan_incidence_structure(model) -> list:
    out = []
    for label, lam in _lambdas(model.ctx):
        orbit = orbit_of_pedal(model, feet_closed_form(model, lam))
        out.append({"lambda": label, **orbit_incidence_stats(model, orbit)})
    return out


_SCANS = {
    "four-lines": _scan_four_lines,
    "conics": _scan_conics,
    "orbit-census": _scan_orbit_census,
    "secant-partition": _scan_secant_partition,
    "incidence-structure": _scan_incidence_structure,
}


def _scan_tuple(problem: str, params) -> list:
    """The scan records of one valid tuple.  A structural, theorem or
    consistency check that fails gives the tuple a single ``fail`` record
    naming the check and the exception, and the scan goes on."""
    ctx, plane = _WORKER["ctx"], _WORKER["plane"]
    rec = _record_base(ctx, params.alpha, params.beta)
    try:
        model = build_obm_unital(ctx, plane, params)
        rec["beta_real"] = params.beta_real
        return [{**rec, **fields} for fields in _SCANS[problem](model)]
    except (TheoremViolation, StructuralViolation, InternalConsistencyError) as exc:
        rec.update(status="fail", check=problem, error=f"{type(exc).__name__}: {exc}")
        return [rec]


def cmd_scan(args) -> tuple[dict, int]:
    if args.problem is None:
        raise ParameterError("scan requires --problem")
    ctx, _ = _context(args.p, args.n, args.w)
    alpha = None if args.alpha is None else ctx.parse_fq2(args.alpha)
    beta = None if args.beta is None else ctx.parse_fq2(args.beta)
    if alpha is not None and beta is not None:
        validate_params(ctx, alpha, beta)  # a named tuple must be a unital, as for pedal
    tuples = valid_parameter_pairs(ctx, nonclassical_only=True, alpha=alpha, beta=beta)
    records, summary = _sweep(args, tuples, functools.partial(_scan_tuple, args.problem))
    summary["tuples"] = len(tuples)
    report = _report_envelope(f"scan:{args.problem}", ctx, args, records, summary)
    return report, (2 if summary["fail"] else 0)


# -- emission ----------------------------------------------------------------------


def _report_envelope(command: str, ctx, args, records, summary) -> dict:
    return {
        "tool": {"name": "unital-lab", "version": __version__},
        "command": command,
        "config": {
            "p": ctx.p,
            "n": ctx.n,
            "w": ctx.w,
            "q": ctx.q,
            "alpha": args.alpha,
            "beta": args.beta,
            "lambda": args.lam,
            "point": args.point,
            "problem": args.problem,
        },
        "records": records,
        "summary": summary,
    }


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = json.dumps(value, sort_keys=True)
        else:
            flat[name] = value
    return flat


def render_report(report: dict, fmt: str) -> str:
    """JSON is the source of truth; CSV is a flattened projection of records."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    rows = [_flatten(rec) for rec in report["records"]]
    buf = io.StringIO()
    header = sorted({key for row in rows for key in row})
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(report: dict, args) -> None:
    text = render_report(report, args.fmt)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"--out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "verify": cmd_verify,
    "pedal": cmd_pedal,
    "census": cmd_census,
    "orbit": cmd_orbit,
    "scan": cmd_scan,
}


# -- entry point -------------------------------------------------------------------

# Every command takes these flags; UNITAL_LAB_<FLAG> (upper case, from the
# option string) supplies a default for each.
_FLAGS = (
    ("--p", {"type": int, "required": True, "help": "odd prime"}),
    ("--n", {"type": int, "default": 1, "help": "tower degree, q = p^n"}),
    ("--w", {"type": int, "help": "non-square override for GF(q)"}),
    ("--alpha", {"help": "GF(q^2) element A+e*B"}),
    ("--beta", {"help": "GF(q^2) element A+e*B"}),
    ("--lambda", {
        "dest": "lam", "choices": ("1", "w"), "help": "canonical base point [0, lambda*e, 1]",
    }),
    ("--point", {"help": "base point X,Y,Z"}),
    ("--problem", {"choices": tuple(_SCANS)}),
    ("--format", {"dest": "fmt", "choices": ("json", "csv"), "default": "json"}),
    ("--out", {"help": "output path (default stdout)"}),
    ("--jobs", {"type": int, "default": 1, "help": "worker count (below 1 means 1)"}),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="unital-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "build every requested unital and run the structural checks"),
        ("pedal", "feet, census, trace classes and arcs for one external point"),
        ("census", "line-pedal intersection census for one external point"),
        ("orbit", "elation orbit of a canonical pedal, partition lines, census"),
        ("scan", "open-problem scanners over all valid parameter pairs"),
    ):
        # no abbreviations: _with_env_flags recognises each flag by its full spelling
        cmd = sub.add_parser(name, help=blurb, allow_abbrev=False)
        for option, settings in _FLAGS:
            cmd.add_argument(option, **settings)
    return parser


_PARSER = _build_parser()


def _with_env_flags(argv: list[str]) -> list[str]:
    """argv with each set UNITAL_LAB_<FLAG> put right after the command as
    ``--<flag>=<value>``, so an explicit flag, coming later, wins; the
    variable of --lambda or --point is dropped when the other flag is on the
    command line.  Each value is first parsed alone, by the flag's own type
    and choices, as an argument named after its variable, so a bad one is
    reported under that name."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    given = {token.split("=")[0] for token in argv[1:]}
    rival = {"--lambda": "--point", "--point": "--lambda"}
    env = []
    for option, settings in _FLAGS:
        name = ENV_PREFIX + option[2:].upper()
        value = os.environ.get(name)
        if value is not None and rival.get(option) not in given:
            check = _Parser(prog=f"unital-lab {argv[0]}", usage=argparse.SUPPRESS, add_help=False)
            check.add_argument(name, type=settings.get("type"), choices=settings.get("choices"))
            check.parse_args(["--", value])
            env.append(f"{option}={value}")
    return [argv[0], *env, *argv[1:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_with_env_flags(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ParameterError(f"--out {args.out}: its directory does not exist")
        report, code = _COMMANDS[args.command](args)
        _emit(report, args)
    except (
        TheoremViolation,
        StructuralViolation,
        InternalConsistencyError,
        DegenerateInput,
        DegenerateConfiguration,
    ) as exc:  # the two Degenerate* are ValueErrors raised by library checks
        sys.stderr.write(f"unital-lab: check failed: {exc}\n")
        return 2
    except (ParameterError, InvalidUnitalParameters, ValueError) as exc:
        sys.stderr.write(f"unital-lab: error: {exc}\n")
        return 1
    sys.stderr.write(
        f"# unital-lab {args.command} finished in {time.perf_counter() - started:.2f}s\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
