"""Workload definitions and output checks for the unital-lab benchmark.

A workload is a set of CLI calls.  One call covers one alpha row: ``--alpha A``
with beta left open, the slice a full sweep is made of.  The rows come from a
seed; nothing else about the inputs varies.

The checks in this file share no code with ``unital_lab``: the field
arithmetic below is an independent implementation of GF(q) and of the
discriminant test, written from the definitions, and it only has to agree
with the library on which (alpha, beta) pairs are valid.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Records per (alpha, beta) tuple: the lambda-split problems emit one per lambda in {1, w}.
RECORDS_PER_TUPLE = {
    "four-lines": 1,
    "conics": 2,
    "orbit-census": 2,
    "secant-partition": 1,
    "incidence-structure": 2,
}
SCAN_PROBLEMS = tuple(RECORDS_PER_TUPLE)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why the workload exists; BENCHMARK.json carries the same line
    p: int
    n: int
    command: str  # "verify" or "scan"
    problems: tuple[str, ...]  # scan problems run on every row; () for verify
    trace_rounds: int  # rounds covered by the traced run

    @property
    def q(self) -> int:
        return self.p**self.n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-q13",
            "unitals, plane gathers and cli do all the work, pedals and elations none; "
            "the largest incidence table (19.5 MB), so memory work in plane shows",
            13, 1, "verify", (), trace_rounds=1,
        ),
        Workload(
            "scan-q9",
            "all five scan problems at q=9: pedals and elations carry the work; orbit-census "
            "and secant-partition set throughput and the tail, the other three the median",
            3, 2, "scan", SCAN_PROBLEMS, trace_rounds=1,
        ),
        Workload(
            "four-lines-q5",
            "thousands of small feet_of calls per row over a table that fits in L2, not a few "
            "bulk gathers: batched feet show here and not on scan-q9",
            5, 1, "scan", ("four-lines",), trace_rounds=2,
        ),
        # Not a benchmark workload: a q=3 smoke set for the benchmark's own tests.
        Workload(
            "smoke-q3",
            "q=3 four-lines and orbit-census rows, for the benchmark's own tests",
            3, 1, "scan", ("four-lines", "orbit-census"), trace_rounds=1,
        ),
    )
}
BENCHMARK_WORKLOADS = ("verify-q13", "scan-q9", "four-lines-q5")


# -- independent field arithmetic ------------------------------------------------


class Fq:
    """GF(p^n), n <= 2, in the library's encoding: code = c0 + p*c1 stands for
    c0 + c1*t, with t a root of the first monic quadratic (ordered by the
    code c0 + p*c1 of its lower coefficients) that has no root in GF(p)."""

    def __init__(self, p: int, n: int):
        if n not in (1, 2):
            raise ValueError("the reference field covers n = 1 and n = 2 only")
        self.p, self.q = p, p**n
        self.k0 = self.k1 = 0  # t^2 = -k0 - k1*t
        if n == 2:
            self.k0, self.k1 = next(
                (k0, k1)
                for k1 in range(p)
                for k0 in range(p)
                if all((x * x + k1 * x + k0) % p for x in range(p))
            )
        self.squares = {self.mul(x, x) for x in range(self.q)}
        self.w = min(x for x in range(self.q) if x not in self.squares)

    def add(self, a: int, b: int) -> int:
        p = self.p
        return (a % p + b % p) % p + p * ((a // p + b // p) % p)

    def mul(self, a: int, b: int) -> int:
        p = self.p
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        top = a1 * b1  # coefficient of t^2
        c0 = (a0 * b0 - top * self.k0) % p
        c1 = (a0 * b1 + a1 * b0 - top * self.k1) % p
        return c0 + p * c1

    def neg(self, a: int) -> int:
        p = self.p
        return (-(a % p)) % p + p * ((-(a // p)) % p)


def format_fq2(q: int, code: int) -> str:
    """The CLI's A+e*B syntax for the GF(q^2) element a + e*b, code a + q*b."""
    a, b = code % q, code // q
    if b == 0:
        return str(a)
    etxt = "e" if b == 1 else f"e*{b}"
    return etxt if a == 0 else f"{a}+{etxt}"


def valid_betas(field: Fq, alpha: int) -> list[int]:
    """Codes of the beta that make (alpha, beta) a unital: with alpha = a + e*b
    and beta = c + e*d, the discriminant 4*N(alpha) + (conj(beta) - beta)^2
    is 4*(a^2 - w*b^2 + w*d^2), and it must be a non-square of GF(q)."""
    q, f = field.q, field
    a, b = alpha % q, alpha // q
    norm = f.add(f.mul(a, a), f.neg(f.mul(f.w, f.mul(b, b))))
    good_d = [d for d in range(q) if f.add(norm, f.mul(f.w, f.mul(d, d))) not in f.squares]
    return sorted(c + q * d for d in good_d for c in range(q))


# -- rows and calls -----------------------------------------------------------------


def row_classes(workload: Workload) -> tuple[list[int], list[int]]:
    """The non-zero alpha codes split by the number of valid beta in their
    row: (smaller rows, larger rows).  Row cost follows that number."""
    field = Fq(workload.p, workload.n)
    by_size: dict[int, list[int]] = {}
    for alpha in range(1, workload.q**2):
        by_size.setdefault(len(valid_betas(field, alpha)), []).append(alpha)
    small, large = (by_size[size] for size in sorted(by_size))  # always two sizes
    return small, large


def rounds(workload: Workload, seed: int):
    """Endless seeded rounds of alpha codes, each class cycling through its
    own seeded permutation.

    A round takes two larger rows and one smaller row, so every round is the
    same mix.  The two row sizes make two clusters of call times; with one
    row of each, the median call would sit in the gap between the clusters
    and jump with every small change of the sample."""
    rng = random.Random(seed)
    small, large = (rng.sample(rows, len(rows)) for rows in row_classes(workload))
    i = 0
    while True:
        picked = [large[2 * i % len(large)], large[(2 * i + 1) % len(large)], small[i % len(small)]]
        rng.shuffle(picked)
        yield picked
        i += 1


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    alpha: int
    problem: str | None  # None for verify

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _argv(workload: Workload, alpha: str, problem: str | None, beta: str | None = None) -> tuple[str, ...]:
    argv = [workload.command, "--p", str(workload.p), "--n", str(workload.n)]
    if problem is not None:
        argv += ["--problem", problem]
    argv += ["--alpha", alpha]
    if beta is not None:
        argv += ["--beta", beta]
    return tuple(argv + ["--format", "json", "--jobs", "1"])


def row_calls(workload: Workload, alpha: int) -> list[Call]:
    text = format_fq2(workload.q, alpha)
    if workload.command == "verify":
        return [Call(_argv(workload, text, None), alpha, None)]
    return [Call(_argv(workload, text, prob), alpha, prob) for prob in workload.problems]


def warmup_argv(workload: Workload) -> tuple[str, ...]:
    """One tuple outside every sample: the classical (alpha, beta) = (0, e).
    It builds the field tables, the plane and the incidence table in the
    CLI's worker cache; scans skip it (classical), verify checks it."""
    problem = workload.problems[0] if workload.problems else None
    return _argv(workload, "0", problem, beta="e")


# -- output checks --------------------------------------------------------------------


def check_report(workload: Workload, call: Call, code: int, text: str) -> tuple[int, list[str]]:
    """(tuples covered, problems found) for one call's exit code and report."""
    q = workload.q
    valid = valid_betas(Fq(workload.p, workload.n), call.alpha)
    errors = [] if code == 0 else [f"exit code {code}"]
    try:
        report = json.loads(text)
        records, summary = report["records"], report["summary"]
        if summary["fail"] != 0:
            errors.append(f"summary.fail = {summary['fail']}")
        if any(rec["alpha"] != format_fq2(q, call.alpha) for rec in records):
            errors.append("a record names another alpha")
        if call.problem is None:
            errors += _check_verify(q, valid, records, summary)
        else:
            errors += _check_scan(q, call.problem, valid, records, summary)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return 0, errors + [f"malformed report: {exc!r}"]
    return (q * q if call.problem is None else len(valid)), errors


def _check_verify(q: int, valid: list[int], records: list, summary: dict) -> list[str]:
    errors = []
    if [rec.get("beta") for rec in records] != [format_fq2(q, b) for b in range(q * q)]:
        return [f"verify emitted {len(records)} records, not one per beta in code order"]
    valid_set = set(valid)
    for code, rec in enumerate(records):
        status = str(rec.get("status"))
        if code not in valid_set:
            if not status.startswith("skipped"):
                errors.append(f"beta {rec['beta']}: invalid pair reported as {status}")
            continue
        checks = rec.get("checks", {})
        if status != "pass" or not checks or not all(checks.values()):
            errors.append(f"beta {rec['beta']}: status {status}, checks {checks}")
        if rec.get("tangent_lines") != q**3 + 1:
            errors.append(f"beta {rec['beta']}: {rec.get('tangent_lines')} tangent lines")
        if rec.get("secant_lines") != q**4 - q**3 + q**2:
            errors.append(f"beta {rec['beta']}: {rec.get('secant_lines')} secant lines")
    if summary.get("pass") != len(valid) or summary.get("skipped") != q * q - len(valid):
        errors.append(f"summary {summary} against {len(valid)} valid pairs")
    return errors


def _check_scan(q: int, problem: str, valid: list[int], records: list, summary: dict) -> list[str]:
    per = RECORDS_PER_TUPLE[problem]
    if summary.get("tuples") != len(valid) or len(records) != per * len(valid):
        return [f"{len(records)} records / summary {summary} against {len(valid)} valid pairs"]
    errors = []
    expected_betas = sorted(format_fq2(q, b) for b in valid for _ in range(per))
    if sorted(rec.get("beta") for rec in records) != expected_betas:
        errors.append("records do not cover the valid beta of the row")
    for rec in records:
        where = f"{problem} beta {rec.get('beta')} lambda {rec.get('lambda')}"
        if problem == "four-lines":
            if q <= 5 and rec.get("scanned_bases") != q**4 - q**3:
                errors.append(f"{where}: scanned {rec.get('scanned_bases')} bases")
            if not 0 < rec.get("max_line_size", 0) <= 4:
                errors.append(f"{where}: max line size {rec.get('max_line_size')}")
        elif problem == "orbit-census":
            lines = sum(rec.get("census_histogram", {}).values())
            if lines != q**4 + q**2 + 1:
                errors.append(f"{where}: census covers {lines} lines")
        elif problem == "conics":
            if sum(rec.get("parts", ())) != q + 1:
                errors.append(f"{where}: parts {rec.get('parts')}")
        elif problem == "secant-partition":
            if rec.get("all_partitioned") is not True or len(rec["witness"]["pairs"]) != q + 1:
                errors.append(f"{where}: bad partition witness")
        elif problem == "incidence-structure":
            if rec.get("points") != q * (q + 1):
                errors.append(f"{where}: {rec.get('points')} orbit points")
    return errors
