"""Sweep-throughput benchmark for unital-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-golden

One closed-loop client drives ``unital_lab.cli.main`` in-process, one call at
a time with ``--jobs 1``; each run is a fresh process.  A call covers one
alpha row (see ``workloads.py``).  Every report is checked against
independent expectations and against its golden sha256 digest.

``--trace 0`` times calls for ``--seconds`` seconds (whole rounds, at least
MIN_CALLS calls) and prints the end-to-end metrics:

    tuples_per_s   (alpha, beta) tuples per timed second, median over rounds;
                   a tuple counts once per call that handled it
    call_p50_ms    median call wall time
    call_tail_ms   highest whole percentile with TAIL_BEYOND calls beyond it
    setup_s        median of 1 + SETUP_PROBES set-ups: import plus the warm-up
                   call, which builds the CLI's field, plane and incidence cache
    peak_rss_mb    ru_maxrss at the end of the run

A call fails on a non-zero exit, a malformed report, ``summary.fail != 0``, a
wrong record count, a failed output check or a digest mismatch.  A correct
program fails none, so the failed ratio is the result line's ``failed`` over
``attempted`` rather than a metric; the sample counts and the tail percentile
go to the ``# details`` line.

``--trace 1`` runs a fixed set of rows (the workload's ``trace_rounds``;
``--seconds`` does not apply) three times -- untraced, with spans, with scalar
call counts -- and prints the per-layer metrics; the warm-up call is traced
too.  Its spans go to ``.bench_out/spans-<workload>-seed<seed>.tsv.gz``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

``--all`` runs every workload, untraced and traced, each in its own process,
prints every metric by name with its unit and writes the lot, with the
environment, to ``.bench_out/results.json``.  ``--write-golden`` records the
digest of every row of every workload in ``golden.json``; run it only at a
commit whose reports are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".bench_out"
MIN_CALLS = 30
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of all
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls beyond it


# -- the program under test --------------------------------------------------------


def import_cli():
    """unital_lab.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "unital_lab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no unital_lab sources under {src}")
    for key in list(os.environ):
        if key.startswith("UNITAL_LAB_"):  # the CLI reads flag defaults from these
            del os.environ[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from unital_lab import cli

    if Path(cli.__file__).resolve().parent != src / "unital_lab":
        raise SystemExit(f"perfbench: imported unital_lab from {cli.__file__}, not {src}")
    return cli


def run_call(cli, argv) -> tuple[int, str, float]:
    """(exit code, report text, wall seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is one failed call; the run goes on
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, out.getvalue(), time.perf_counter() - started


def setup(workload) -> tuple[object, float]:
    """Import the program and make the untimed warm-up call; (cli, seconds)."""
    started = time.perf_counter()
    cli = import_cli()
    code, _, _ = run_call(cli, wl.warmup_argv(workload))
    if code != 0:
        raise SystemExit(f"perfbench: warm-up call exited {code}")
    return cli, time.perf_counter() - started


def probe_setup(workload) -> float:
    """Set-up seconds measured in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# -- checking ---------------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(workload, call, code, text, golden) -> tuple[int, list[str]]:
    tuples, errors = wl.check_report(workload, call, code, text)
    want = golden.get(workload.name, {}).get(call.key)
    if want is None:
        errors.append("no golden digest for this call")
    elif digest(text) != want:
        errors.append("report differs from its golden digest")
    return tuples, errors


class Pass:
    """Runs calls, checks each report, and keeps times and failures."""

    def __init__(self, cli, workload, golden):
        self.cli, self.workload, self.golden = cli, workload, golden
        self.times: list[float] = []
        self.tuples = 0
        self.failed = 0
        self.report_bytes = 0

    def run(self, call) -> None:
        code, text, seconds = run_call(self.cli, call.argv)
        tuples, errors = check(self.workload, call, code, text, self.golden)
        self.times.append(seconds)
        self.tuples += tuples
        self.report_bytes += len(text.encode("utf-8"))
        if errors:
            self.failed += 1
            print(f"FAILED {call.key}: {'; '.join(errors[:5])}", file=sys.stderr)


def calls_of(workload, alphas):
    return [call for alpha in alphas for call in wl.row_calls(workload, alpha)]


# -- untraced run: end-to-end metrics --------------------------------------------------


def tail(times) -> tuple[int, float, int]:
    """(percentile, value, calls beyond it) for the highest whole percentile
    with at least TAIL_BEYOND calls beyond it (nearest-rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    raise ValueError(f"{n} calls leave no percentile with {TAIL_BEYOND} beyond it")


def measure(workload, seed: int, seconds: float) -> dict:
    setups = [probe_setup(workload) for _ in range(SETUP_PROBES)]
    cli, own = setup(workload)
    setups.append(own)
    run = Pass(cli, workload, load_golden())
    # A round holds one row of each size, so every round is the same mix and
    # the median round rate shrugs off bursts of load from other processes.
    round_rates = []
    started = time.perf_counter()
    for alphas in wl.rounds(workload, seed):
        tuples, timed = run.tuples, sum(run.times)
        for call in calls_of(workload, alphas):
            run.run(call)
        round_rates.append((run.tuples - tuples) / (sum(run.times) - timed))
        if time.perf_counter() - started >= seconds and len(run.times) >= MIN_CALLS:
            break
    pct, tail_s, beyond = tail(run.times)
    metrics = {
        "tuples_per_s": (statistics.median(round_rates), "1/s"),
        "call_p50_ms": (statistics.median(run.times) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "calls": len(run.times),
        "tuples": run.tuples,
        "timed_s": sum(run.times),
        "rounds": len(round_rates),
        "mean_tuples_per_s": run.tuples / sum(run.times),
        "failed_ratio": run.failed / len(run.times),
        "call_tail_percentile": pct,
        "call_tail_beyond": beyond,
        "setup_samples_s": setups,
    }
    return result(run.failed, len(run.times), metrics, details, seed)


# -- traced run: per-layer metrics -------------------------------------------------------


def _witness_lines(census) -> int:
    return sum(len(entries) for entries in census.witnesses.values())


MEASURES = {"pedals.line_pedal_census": _witness_lines, "elations.orbit_line_census": _witness_lines}


def layer_metrics(spans: dict, counts, measured, extra: dict) -> dict:
    """Per-layer metrics from a span summary, scalar call counts, result
    measures and the values computed outside the trace."""

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))

    def ok_ratio(name):
        calls = get(name, "calls")
        return (calls - get(name, "raised")) / calls if calls else 0.0

    def scalar(layer):
        return sum(v for k, v in counts.items() if k.startswith(layer + "."))

    m = {
        "fields.build_s": (get("fields.build_field_ctx", "total_s"), "s"),
        "fields.scalar_ops": (scalar("fields"), "count"),
        "plane.build_s": (get("plane.__init__", "total_s") + get("plane._build_incidence", "total_s"), "s"),
        "plane.incidence_mb": (extra["incidence_mb"], "MB"),
        "plane.self_s": (layer_self("plane"), "s"),
        "plane.scalar_ops": (scalar("plane"), "count"),
        "plane.collinear.calls": (get("plane.collinear", "calls"), "count"),
        "plane.collinear.self_s": (get("plane.collinear", "self_s"), "s"),
        "plane.has_three_collinear.calls": (get("plane.has_three_collinear", "calls"), "count"),
        "unitals.self_s": (layer_self("unitals"), "s"),
        "unitals.tangent_line_at.calls": (get("unitals.tangent_line_at", "calls"), "count"),
        "unitals.valid_ratio": (ok_ratio("unitals.validate_params"), "ratio"),
        "pedals.self_s": (layer_self("pedals"), "s"),
        "pedals.feet_of.calls": (get("pedals.feet_of", "calls"), "count"),
        "pedals.feet_of_many.calls": (get("pedals.feet_of_many", "calls"), "count"),
        "pedals.foot_parameters.calls": (get("pedals.foot_parameters", "calls"), "count"),
        "pedals.census_witness_lines": (measured["pedals.line_pedal_census"], "count"),
        "pedals.conic_fit_ratio": (ok_ratio("pedals.conic_through"), "ratio"),
        "elations.self_s": (layer_self("elations"), "s"),
        "elations.census_witness_lines": (measured["elations.orbit_line_census"], "count"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.report_bytes": (extra["report_bytes"], "B"),
        "trace.overhead_ratio": (extra["overhead_ratio"], "ratio"),
    }
    for name in (
        "unitals.build_obm_unital", "unitals.line_counts", "unitals.verify_minimal_blocking_set",
        "pedals.feet_of", "pedals.secant_partition", "pedals.arc_in_conic",
        "elations.orbit_line_census", "elations.orbit_of_pedal",
        "elations.partition_lines_for_orbit", "elations.orbit_incidence_stats",
        "cli.render_report",
    ):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    return m


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("call\tspan\tparent\tname\tstart_s\tend_s\tself_s\traised\n")
        for row in tracer.span_rows():
            fh.write("\t".join(str(int(v)) if isinstance(v, bool) else str(v) for v in row) + "\n")


def trace(workload, seed: int) -> dict:
    golden = load_golden()
    rows = wl.rounds(workload, seed)
    calls = calls_of(workload, [a for _ in range(workload.trace_rounds) for a in next(rows)])
    import_cli()  # the import is not traced; the warm-up call is (call id 0)
    spans = Tracer("spans", MEASURES)
    with spans.installed():
        cli, _ = setup(workload)
    plain = Pass(cli, workload, golden)
    for call in calls:
        plain.run(call)
    traced = Pass(cli, workload, golden)
    with spans.installed():
        for i, call in enumerate(calls, start=1):
            spans.call_id = i
            traced.run(call)
    counts = Tracer("counts")
    counted = Pass(cli, workload, golden)
    with counts.installed():
        for call in calls:
            counted.run(call)
    write_spans(spans, OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz")
    extra = {
        "incidence_mb": cli._WORKER["plane"].incidence.nbytes / 1e6,
        "report_bytes": traced.report_bytes,
        "overhead_ratio": sum(traced.times) / sum(plain.times),
    }
    metrics = layer_metrics(spans.summary(), counts.counts, spans.measured, extra)
    passes = (plain, traced, counted)
    details = {"calls": len(calls), "spans": len(spans.starts), "untraced_s": sum(plain.times)}
    return result(
        sum(p.failed for p in passes), sum(len(p.times) for p in passes), metrics, details, seed
    )


# -- output -------------------------------------------------------------------------------


def environment(seed: int, calls: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "calls_per_run": calls,
    }


def result(failed: int, attempted: int, metrics: dict, details: dict, seed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": details,
        "environment": environment(seed, details["calls"]),
    }


def print_result(workload, res: dict) -> None:
    print(f"# {workload.name}: {res['attempted']} calls, {res['failed']} failed")
    for name, metric in res["metrics"].items():
        print(f"{workload.name:14} {name:44} {metric['value']:>14.6g} {metric['unit']}")
    print("# details " + json.dumps(res["details"], sort_keys=True))
    print("# environment " + json.dumps(res["environment"], sort_keys=True))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(seed: int, seconds: int) -> int:
    results = {}
    for name in wl.BENCHMARK_WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(traced)],
                capture_output=True, text=True, cwd=ROOT,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1])
            for line in lines:
                for tag in ("details", "environment"):
                    if line.startswith(f"# {tag} "):
                        res[tag] = json.loads(line[len(tag) + 3:])
            results.setdefault(name, {})["traced" if traced else "untraced"] = res
    out = OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": seed, "seconds": seconds, "workloads": results}, indent=2) + "\n")
    print(f"# wrote {out}")
    return 0 if all(r["correct"] for w in results.values() for r in w.values()) else 2


def write_golden() -> int:
    """Digest every row of every workload, after the independent checks pass."""
    golden, failed = {}, 0
    for workload in wl.WORKLOADS.values():
        cli, _ = setup(workload)
        digests = golden.setdefault(workload.name, {})
        for rows in wl.row_classes(workload):
            for call in calls_of(workload, rows):
                code, text, seconds = run_call(cli, call.argv)
                _, errors = wl.check_report(workload, call, code, text)
                failed += bool(errors)
                digests[call.key] = digest(text)
                print(f"{workload.name}\t{call.key}\t{seconds:.4f}\t{'; '.join(errors) or 'ok'}")
    if failed:
        print(f"perfbench: {failed} calls failed their checks; golden.json not written", file=sys.stderr)
        return 2
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    workload = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        print(setup(workload)[1])
        return 0
    res = trace(workload, args.seed) if args.trace else measure(workload, args.seed, args.seconds)
    print_result(workload, res)
    return 0  # failed calls are reported in the result line, not by the exit code


if __name__ == "__main__":
    sys.exit(main())
