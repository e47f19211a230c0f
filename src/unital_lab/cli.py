"""``unital-lab``: parameter sweeps, per-theorem verification, pedal and orbit
reports, and open-problem scanners.

    unital-lab verify --p P [--n N] [--w W] [--alpha A] [--beta B] [--jobs K]
    unital-lab scan   --p P [--n N] [--w W] [--alpha A] [--beta B] [--jobs K]
                      --problem NAME
    unital-lab pedal  --p P [--n N] [--w W] --alpha A --beta B
                      (--lambda {1,w} | --point X,Y,Z)
    unital-lab orbit  --p P [--n N] [--w W] --alpha A --beta B --lambda {1,w}

Every command also takes ``[--format json|csv] [--out PATH]``; a flag the
command does not take is an unrecognised argument.  Element syntax: GF(q)
values are decimal codes, GF(q^2) values ``A+e*B``.

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
import itertools
import json
import multiprocessing as mp
import os
import sys
import time

import numpy as np

from . import __version__
from .elations import ElationGroup, orbit_incidence_stats, orbit_line_census, orbit_of_pedal, partition_lines_for_orbit
from .errors import (
    CheckFailure,
    DegenerateConfiguration,
    DegenerateInput,
    InternalConsistencyError,
    InvalidUnitalParameters,
    ParameterError,
    StructuralViolation,
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
from .unitals import build_obm_unital, discriminant, obm_point_ids, unital_label, validate_params

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


def _sweep(args, tuples: list, per_tuple) -> list:
    """Map per_tuple (tuple -> list of records) over the tuples, in-process
    or in a fork pool of min(--jobs, CPU count, tuple count) processes, and
    return the records in tuple order.  A tuple is a class of pairs.  Callers
    prime the worker context first."""
    workers = min(max(1, args.jobs), os.cpu_count() or 1, len(tuples))
    if workers <= 1:
        parts = [per_tuple(t) for t in tuples]
    else:
        with mp.get_context("fork").Pool(workers) as pool:
            parts = pool.map(per_tuple, tuples, max(1, len(tuples) // (workers * 4)))
    return [rec for part in parts for rec in part]


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


def _failed(rec: dict, check: str, exc: CheckFailure) -> None:
    """Make a pair's record its one ``fail`` record, naming ``check`` and the exception."""
    rec.update(status="fail", check=check, error=f"{type(exc).__name__}: {exc}")


def _classes(ctx, pairs: list) -> list[list[tuple[int, int]]]:
    """The pairs cut into classes: runs of consecutive pairs with one alpha and
    one Im(beta), each a single point set (U_{alpha,beta+c} = U_{alpha,beta}
    for c in GF(q))."""
    runs = itertools.groupby(pairs, key=lambda pair: (pair[0], ctx.im(pair[1])))
    return [list(run) for _, run in runs]


def _class_records(check: str, shared, pairs) -> list:
    """The records of one class, in pair order: each pair's record base and
    ``beta_real``, then each entry of shared(ref), or its one fail record.
    An entry may read the pair only through the set and beta - conj(beta).

    An invalid pair is skipped with its discriminant.  The first valid pair
    that builds is the reference, the class's one model; a failed build
    fails its pair with ``check``.  Each later valid pair is one row of one
    batched gather, made only when the class has such a pair: its sorted row
    must equal the reference's affine points, the one check of
    U_{alpha,beta+c} = U_{alpha,beta}, else it fails ``class_set``.  A
    failed shared fails the pair with ``check``."""
    ctx, plane = _WORKER["ctx"], _WORKER["plane"]
    parts, members, ref = [], [], None  # members: (records, params), the reference first
    for pair in pairs:
        rec = _record_base(ctx, *pair)
        parts.append([rec])
        try:
            params = validate_params(ctx, *pair)
            ref = ref or build_obm_unital(ctx, plane, params)
        except InvalidUnitalParameters as exc:
            rec.update(status="skipped: invalid (discriminant square)", discriminant=exc.discriminant)
            continue
        except CheckFailure as exc:
            _failed(rec, check, exc)
            continue
        members.append((parts[-1], params))
    if ref is not None:
        affine = ref.points[ref.points != ref.infinity_point]
        betas = [params.beta for _, params in members[1:]]
        later = np.sort(obm_point_ids(ctx, ref.params.alpha, betas), axis=1) if betas else []
        try:
            entries = shared(ref)
        except CheckFailure as exc:
            entries = exc
        for (part, params), row in zip(members, [affine, *later]):
            part[0]["beta_real"] = params.beta_real
            if not np.array_equal(row, affine):
                label = unital_label(ctx, params, np.unique(row).size + 1)
                exc = StructuralViolation(f"the point set of {label} differs from that of {ref!r}")
                _failed(part[0], "class_set", exc)
            elif isinstance(entries, CheckFailure):
                _failed(part[0], check, entries)
            else:
                part[:] = [{**part[0], **fields} for fields in entries]
    return [rec for part in parts for rec in part]


# -- verify ----------------------------------------------------------------------


def _verify_class(pairs) -> list:
    """The verify records of one class; a failed build names check ``build``."""
    return _class_records("build", _set_checks, pairs)


def _set_checks(ref) -> list[dict]:
    """Verify's one entry for a class, read from the reference alone: its
    record fields, its line-pass fields and checks, its closed-form tangents
    checked against its touch array, and their status."""
    rec, checks = ref.record(), {}
    try:
        hist = ref.verify_unital_axiom()
        checks["unital_axiom"] = True
        rec["tangent_lines"] = hist.get(1, 0)
        rec["secant_lines"] = hist.get(ref.ctx.q + 1, 0)
    except StructuralViolation:
        checks["unital_axiom"] = False
    blocking = ref.verify_minimal_blocking_set()
    checks["blocking"] = blocking.blocking
    checks["minimal"] = blocking.minimal
    # one predicate, |U| = q^3 + 1, under both keys of the report
    checks["size"] = checks["attains_bound"] = blocking.attains_bound
    pts, formula = ref.tangent_lines_closed_form()
    try:
        checks["tangent_formula_matches_oracle"] = bool(np.array_equal(ref.touch_points[formula], pts))
    except StructuralViolation:  # some point is not on exactly one tangent
        checks["tangent_formula_matches_oracle"] = False
    return [{**rec, "checks": checks, "status": "pass" if all(checks.values()) else "fail"}]


def cmd_verify(args) -> tuple[dict, int]:
    ctx, _ = _context(args.p, args.n, args.w)
    classes = _classes(ctx, _pair_list(ctx, args))
    return _report("verify", ctx, args, _sweep(args, classes, _verify_class))


# -- pedal / orbit ---------------------------------------------------------------------


def _lambdas(ctx) -> tuple[tuple[str, int], ...]:
    """The one map between the --lambda labels and their GF(q) values."""
    return (("1", 1), ("w", ctx.w))


def _single_tuple(args):
    ctx, plane = _context(args.p, args.n, args.w)
    params = validate_params(ctx, ctx.parse_fq2(args.alpha), ctx.parse_fq2(args.beta))
    return ctx, plane, build_obm_unital(ctx, plane, params)


def _single_report(args, ctx, model, fields: dict) -> tuple[dict, int]:
    """The one-record report of pedal and orbit: the tuple's record base
    followed by the command's fields."""
    rec = {**_record_base(ctx, model.params.alpha, model.params.beta), **fields}
    return _report(args.command, ctx, args, [rec])


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


def _pedal_payload(ctx, plane, model, base) -> dict:
    """The pedal fields of one base point.  A base that is a canonical base
    [0, lambda*e, 1], however it was named, gets the closed-form frame."""
    frames = (frame for frame in _lambdas(ctx) if base == canonical_base_point(model, frame[1]))
    frame = next(frames, None)
    rec: dict = {"base_point": plane.format_point(base)}
    brute = feet_of(model, base)
    rec["feet"] = [plane.format_point(PointId(f)) for f in brute.feet]
    rec["collinear"] = plane.collinear(brute.feet)
    pedal = brute
    if frame is not None and not model.params.classical:
        label, lam = frame
        closed = feet_closed_form(model, lam)
        if closed.feet != brute.feet:
            raise InternalConsistencyError("closed-form feet differ from brute-force feet")
        pedal = closed
        rec["lambda"] = label
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
    if args.lam is not None:
        base = canonical_base_point(model, dict(_lambdas(ctx))[args.lam])
    else:
        base = plane.parse_point(args.point)
    return _single_report(args, ctx, model, _pedal_payload(ctx, plane, model, base))


def cmd_orbit(args) -> tuple[dict, int]:
    ctx, plane, model = _single_tuple(args)
    lam = dict(_lambdas(ctx))[args.lam]
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


def _scan_bases(model) -> tuple[np.ndarray, int]:
    """The sorted base points a pedal scan evaluates, and how many bases
    they stand for.

    Every elation E_t fixes U (checked here, one gather per generator), so
    it maps tangents to tangents, the feet of P onto those of E_t P and lines
    to lines: a pedal's census and its largest collinear subset are constant
    on each elation orbit.  E_t with t != 0 moves every affine point, so an
    orbit of affine bases has q points, and [x, y, 1] has the one
    representative [x, Im(y)*e, 1].  At desk scale the representatives are
    the [x, b*e, 1] off U, b in GF(q), standing for every external point off
    the line at infinity; otherwise the two canonical bases, standing for
    their 2q translates.  Either way they stand for q times their number."""
    ctx = model.ctx
    ElationGroup(model).check_fixes_unital()
    if ctx.q <= FULL_POINT_SWEEP_MAX_Q:
        x = np.arange(ctx.q2, dtype=np.int32)[:, None]
        b = np.arange(ctx.q, dtype=np.int32)
        ids = model.plane.point_ids_vec(x, ctx.pack(0, b), 1).ravel()
        bases = np.sort(ids[~model.mask[ids]])
    else:
        canonical = [canonical_base_point(model, lam) for _, lam in _lambdas(ctx)]
        bases = np.sort(np.array(canonical, dtype=np.int32))
    return bases, ctx.q * bases.size


# A scan maps a model to its list of record fields: one per lambda (1, then
# w) for the lambda-split problems, else one.


def _scan_four_lines(model) -> list:
    """Whether some line meets a pedal in 4 or more points, over the bases
    of :func:`_scan_bases`: feet and their largest collinear subsets are
    computed for the orbit representatives only, and ``scanned_bases`` is the
    number of bases they stand for.  The two lambda censuses read the feet
    rows of the canonical bases, which are representatives."""
    bases, covered = _scan_bases(model)
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
        "scanned_bases": covered,
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


def _scan_class(problem: str, pairs) -> list:
    """The scan records of one class; a failed check names the problem.
    ``_SCANS`` is read here, in the worker, so the pool maps a picklable
    partial of this function."""
    return _class_records(problem, _SCANS[problem], pairs)


def cmd_scan(args) -> tuple[dict, int]:
    """The scan records of the requested pairs that are valid and nonclassical."""
    ctx, _ = _context(args.p, args.n, args.w)
    pairs = _pair_list(ctx, args)
    if args.alpha is not None and args.beta is not None:
        validate_params(ctx, *pairs[0])  # a named pair must be a unital, as for pedal
    alphas, betas = np.array(pairs, dtype=np.int32).T
    keep = (alphas != 0) & ~ctx.square_mask[discriminant(ctx, alphas, betas)]
    pairs = [pair for pair, kept in zip(pairs, keep.tolist()) if kept]
    records = _sweep(args, _classes(ctx, pairs), functools.partial(_scan_class, args.problem))
    return _report(f"scan:{args.problem}", ctx, args, records, tuples=len(pairs))


# -- emission ----------------------------------------------------------------------


def _report(command: str, ctx, args, records, **counts) -> tuple[dict, int]:
    """The report of a command's records with their summary, and the exit
    code: 2 when a record failed, else 0."""
    fail = sum(r.get("status") == "fail" for r in records)
    skipped = sum(str(r.get("status")).startswith("skipped") for r in records)
    summary = {"pass": len(records) - fail - skipped, "fail": fail, "skipped": skipped, **counts}
    flag = vars(args).get  # a flag the command does not take reads null
    report = {
        "tool": {"name": "unital-lab", "version": __version__},
        "command": command,
        "config": {
            "p": ctx.p,
            "n": ctx.n,
            "w": ctx.w,
            "q": ctx.q,
            "alpha": flag("alpha"),
            "beta": flag("beta"),
            "lambda": flag("lam"),
            "point": flag("point"),
            "problem": flag("problem"),
        },
        "records": records,
        "summary": summary,
    }
    return report, (2 if fail else 0)


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
    "orbit": cmd_orbit,
    "scan": cmd_scan,
}


# -- entry point -------------------------------------------------------------------

_ELEMENT = "GF(q^2) element A+e*B"
_LAMBDA = {"dest": "lam", "choices": ("1", "w"), "help": "canonical base point [0, lambda*e, 1]"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and one subparser per command, declaring exactly
    the flags that command reads."""
    parser = _Parser(prog="unital-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "build every requested unital and run the structural checks"),
        ("pedal", "feet, census, trace classes and arcs for one external point"),
        ("orbit", "elation orbit of a canonical pedal, partition lines, census"),
        ("scan", "open-problem scanners over all valid parameter pairs"),
    ):
        sweep = name in ("verify", "scan")
        cmd = sub.add_parser(name, help=blurb, allow_abbrev=False)  # one spelling per flag
        cmd.add_argument("--p", type=int, required=True, help="odd prime")
        cmd.add_argument("--n", type=int, default=1, help="tower degree, q = p^n")
        cmd.add_argument("--w", type=int, help="non-square override for GF(q)")
        cmd.add_argument("--alpha", required=not sweep, help=_ELEMENT)
        cmd.add_argument("--beta", required=not sweep, help=_ELEMENT)
        if sweep:
            cmd.add_argument("--jobs", type=int, default=1, help="worker count (below 1 means 1)")
        if name == "scan":
            cmd.add_argument("--problem", required=True, choices=tuple(_SCANS))
        if name == "orbit":
            cmd.add_argument("--lambda", required=True, **_LAMBDA)
        elif not sweep:
            base = cmd.add_mutually_exclusive_group(required=True)
            base.add_argument("--lambda", **_LAMBDA)
            base.add_argument("--point", help="base point X,Y,Z")
        cmd.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        cmd.add_argument("--out", help="output path (default stdout)")
    return parser, sub.choices


_PARSER, _COMMAND_PARSERS = _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, unknown = _PARSER.parse_known_args(argv)
        if unknown:  # refused under the command's own usage line, not the top level's
            _COMMAND_PARSERS[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.out and os.path.isdir(args.out):
            raise ParameterError(f"--out {args.out}: is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ParameterError(f"--out {args.out}: its directory does not exist")
        report, code = _COMMANDS[args.command](args)
        _emit(report, args)
    except (CheckFailure, DegenerateInput, DegenerateConfiguration) as exc:
        # the two Degenerate* are ValueErrors raised by library checks
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
