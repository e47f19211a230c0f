import json
from types import SimpleNamespace

import numpy as np
import pytest

from unital_lab import (
    DegenerateConfiguration,
    DegenerateInput,
    InternalConsistencyError,
    StructuralViolation,
    TheoremViolation,
    UnitalModel,
    build_obm_unital,
    canonical_base_point,
    cli,
    valid_parameter_pairs,
    validate_params,
)

from conftest import (
    PN_BY_Q,
    external_swap,
    four_lines_bases,
    four_lines_record_of_every_base,
    scan_records_per_pair,
    swapped_for_external,
    verify_records_per_pair,
)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


def test_verify_single_tuple(capsys):
    code, report = run_json(
        ["verify", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0"], capsys
    )
    assert code == 0
    assert report["tool"]["name"] == "unital-lab"
    (rec,) = report["records"]
    assert rec["status"] == "pass"
    assert rec["unital_size"] == 28 and rec["discriminant"] == 2
    assert all(rec["checks"].values())
    assert rec["tool_version"] == report["tool"]["version"]
    assert (rec["p"], rec["n"], rec["w"]) == (3, 1, 2)


def test_verify_sweep_reports_skipped_invalids(capsys):
    code, report = run_json(["verify", "--p", "3", "--n", "1"], capsys)
    assert code == 0
    assert len(report["records"]) == 81
    skipped = [r for r in report["records"] if str(r["status"]).startswith("skipped")]
    passed = [r for r in report["records"] if r["status"] == "pass"]
    assert report["summary"] == {"pass": 18, "fail": 0, "skipped": 63}
    assert len(skipped) == 63 and len(passed) == 18
    assert all("discriminant" in r for r in skipped)
    assert all(not r.get("checks", {}).get("fail") for r in passed)
    # classical control rows are flagged
    assert any(r["status"] == "pass" and r["classical"] for r in report["records"])


def test_verify_exit_2_when_a_check_fails(capsys, monkeypatch):
    real = cli._verify_class

    def sabotaged(pairs):
        out = real(pairs)
        for rec in out:
            if rec.get("status") == "pass":
                rec["checks"]["blocking"] = False
                rec["status"] = "fail"
        return out

    monkeypatch.setattr(cli, "_verify_class", sabotaged)
    code, report = run_json(
        ["verify", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0"], capsys
    )
    assert code == 2
    assert report["summary"]["fail"] == 1


def test_pedal_lambda_route(capsys):
    code, report = run_json(
        ["pedal", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--lambda", "1"],
        capsys,
    )
    assert code == 0
    (rec,) = report["records"]
    assert len(rec["feet"]) == 4
    assert rec["collinear"] is False
    assert rec["census"]["histogram"] == {"0": 57, "1": 28, "2": 6}
    assert rec["arc_report"]["parts"] == [4, 0]
    assert rec["arc_report"]["single_arc"] is True
    assert "trace_classes" in rec and "foot_params" in rec


@pytest.mark.parametrize(
    "p, alpha, beta, label, point",
    [
        ("3", "1+e", "0", "1", "0,e,1"),
        ("3", "1+e", "0", "w", "0,e*2,1"),
        ("5", "1", "e", "w", "0,e*2,1"),
    ],
)
def test_pedal_point_route_matches_lambda(p, alpha, beta, label, point, capsys):
    # a --point naming the canonical base [0, lambda*e, 1] gets the same
    # record, closed-form frame included, as --lambda
    pedal = ["pedal", "--p", p, "--alpha", alpha, "--beta", beta]
    code1, rep1 = run_json([*pedal, "--lambda", label], capsys)
    code2, rep2 = run_json([*pedal, "--point", point], capsys)
    assert code1 == code2 == 0
    (rec,) = rep1["records"]
    assert rep2["records"] == [rec]
    assert rec["lambda"] == label and rec["foot_params"] and rec["trace_classes"]


def test_pedal_point_on_infinity_line(capsys):
    code, report = run_json(
        ["pedal", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--point", "1,0,0"],
        capsys,
    )
    assert code == 0
    (rec,) = report["records"]
    assert rec["collinear"] is True
    assert "census" not in rec  # census is defined off the infinity line


def test_pedal_point_on_unital_is_domain_error(capsys):
    code, out = run_cli(
        ["pedal", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--point", "0,0,1"],
        capsys,
    )
    assert code == 1 and out == ""


@pytest.mark.parametrize("point", ["0,1,0", "0,0,1"])
def test_a_point_on_the_unital_is_refused_by_name(point, capsys):
    code = cli.main(["pedal", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0",
                     "--point", point])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"[{point}] lies on the unital" in captured.err


def test_pedal_census_schema(capsys):
    code, report = run_json(
        ["pedal", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--lambda", "1"],
        capsys,
    )
    assert code == 0
    (rec,) = report["records"]
    assert rec["base_point"] == "[0,1,e*2]"  # [0, e, 1] in its printed form
    census = rec["census"]
    assert set(census) == {"histogram", "witnesses"}
    assert sum(census["histogram"].values()) == 91
    # one witness per line meeting the feet in two or more points
    witnessed = sum(c for s, c in census["histogram"].items() if int(s) >= 2)
    assert len(census["witnesses"]) == witnessed
    for line, pts in census["witnesses"]:
        assert isinstance(line, str) and len(pts) >= 2 and set(pts) <= set(rec["feet"])


def test_orbit_schema(capsys):
    code, report = run_json(
        ["orbit", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--lambda", "w"],
        capsys,
    )
    assert code == 0
    (rec,) = report["records"]
    assert rec["lambda"] == "w"
    assert len(rec["pedals"]) == 3
    assert {p["t"] for p in rec["pedals"]} == {0, 1, 2}
    assert all(len(p["feet"]) == 4 for p in rec["pedals"])
    assert len(rec["partition_lines"]) == 3
    assert sum(int(v) for v in rec["census_histogram"].values()) == 91


@pytest.mark.parametrize(
    "problem", ["four-lines", "conics", "orbit-census", "secant-partition", "incidence-structure"]
)
def test_scan_problems_q3(problem, capsys):
    code, report = run_json(["scan", "--p", "3", "--n", "1", "--problem", problem], capsys)
    assert code == 0
    assert report["summary"]["tuples"] == 12
    records = report["records"]
    assert records
    if problem == "four-lines":
        assert all(rec["beta_real"] for rec in records)
        assert not any(rec["size4_lines_exist"] for rec in records)
        assert all(rec["lambda_censuses_equal"] for rec in records)
    if problem == "conics":
        assert all(rec["parts"][1] == 0 for rec in records)
        assert all(rec["arc_checks"] for rec in records)
    if problem == "secant-partition":
        assert all(rec["all_partitioned"] for rec in records)
        assert all(rec["secants_checked"] == 63 for rec in records)
        assert all(rec["witness"]["pairs"] for rec in records)
    if problem == "orbit-census":
        assert all(sum(int(v) for v in rec["census_histogram"].values()) == 91 for rec in records)
    if problem == "incidence-structure":
        assert all(rec["points"] == 12 for rec in records)


def test_scan_four_lines_q5_has_positive_row(capsys):
    code, report = run_json(
        ["scan", "--p", "5", "--n", "1", "--problem", "four-lines", "--beta", "e"], capsys
    )
    assert code == 0
    rows = [r for r in report["records"] if r["alpha"] == "1"]
    assert rows and not rows[0]["beta_real"] and rows[0]["size4_lines_exist"]


def test_scan_requires_problem(capsys):
    code, out = run_cli(["scan", "--p", "3", "--n", "1"], capsys)
    assert code == 1


def test_missing_required_args(capsys):
    assert run_cli(["pedal", "--p", "3"], capsys)[0] == 1
    assert run_cli(["verify"], capsys)[0] == 1
    assert run_cli(["bogus"], capsys)[0] == 1
    assert run_cli(["orbit", "--p", "3", "--alpha", "1+e", "--beta", "0"], capsys)[0] == 1


def test_invalid_parameters_exit_1(capsys):
    # square discriminant on a single-tuple command is a usage-level error
    code, out = run_cli(
        ["pedal", "--p", "3", "--n", "1", "--alpha", "1", "--beta", "0", "--lambda", "1"],
        capsys,
    )
    assert code == 1 and out == ""


def test_w_override(capsys):
    code, report = run_json(
        ["verify", "--p", "5", "--n", "1", "--w", "3", "--alpha", "1", "--beta", "e"], capsys
    )
    assert code == 0
    assert report["config"]["w"] == 3
    bad_code, _ = run_cli(
        ["verify", "--p", "5", "--n", "1", "--w", "4", "--alpha", "1", "--beta", "e"], capsys
    )
    assert bad_code == 1  # 4 is a square

    # the in-process worker context must follow w: run with the default w
    # first, then with --w 3, and compare against a run on a cleared cache
    override = ["verify", "--p", "5", "--n", "1", "--w", "3", "--alpha", "1", "--beta", "e"]
    cli._WORKER.clear()
    run_json(override[:5] + override[7:], capsys)
    _, after_default = run_json(override, capsys)
    cli._WORKER.clear()
    _, fresh = run_json(override, capsys)
    assert after_default["records"] == fresh["records"]
    assert [r["w"] for r in fresh["records"]] == [3]


def test_bad_typed_flag_is_reported_under_its_flag(capsys):
    code = cli.main(["verify", "--p", "3", "--alpha", "1+e", "--beta", "0", "--jobs", "abc"])
    err = capsys.readouterr().err
    assert code == 1 and "argument --jobs: invalid int value: 'abc'" in err


def test_commands_share_one_context(capsys):
    pedal = ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
    cli._WORKER.clear()
    assert run_cli(pedal, capsys)[0] == 0
    plane = cli._WORKER["plane"]
    assert run_cli(pedal, capsys)[0] == 0
    assert run_cli(["orbit", *pedal[1:]], capsys)[0] == 0
    assert run_cli(["verify", *pedal[1:-2]], capsys)[0] == 0
    assert cli._WORKER["plane"] is plane
    assert run_cli([*pedal, "--w", "2"], capsys)[0] == 0  # another requested triple
    assert cli._WORKER["plane"] is not plane


def test_csv_projection_rows(capsys):
    code, out = run_cli(["verify", "--p", "3", "--n", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 81  # header + one row per record


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        ["verify", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["summary"]["pass"] == 1


def _usage_error(args, capsys) -> str:
    """The stderr of a call that argparse refuses: exit 1, no report, the
    refused command's own usage and then one error line under its name."""
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith(f"usage: unital-lab {args[0]} [-h] --p P")
    assert lines[-1].startswith(f"unital-lab {args[0]}: error: ")
    assert captured.err.count(": error: ") == 1
    return lines[-1]


@pytest.fixture
def no_context(monkeypatch):
    """Fails the call if it builds the field and the plane."""

    def refuse(*_):
        raise AssertionError("the context was built")

    monkeypatch.setattr(cli, "_context", refuse)


def _refused(args, capsys) -> str:
    """The stderr of a call that must exit 1 with one error line and no report."""
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("unital-lab: error: ") and captured.err.count("\n") == 1
    return captured.err


def test_out_in_a_missing_directory_fails_before_any_work(tmp_path, capsys, no_context):
    target = tmp_path / "missing" / "r.json"
    verify = ["verify", "--p", "3", "--alpha", "1", "--beta", "0"]
    err = _refused([*verify, "--out", str(target)], capsys)
    assert str(target) in err and "Traceback" not in err
    assert not target.parent.exists()


def test_out_naming_a_directory_fails_before_any_work(tmp_path, capsys, no_context):
    err = _refused(["verify", "--p", "3", "--n", "2", "--out", str(tmp_path)], capsys)
    assert f"--out {tmp_path}: is a directory" in err


def test_out_write_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def unwritable(path, *_, **__):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", unwritable, raising=False)
    verify = ["verify", "--p", "3", "--alpha", "1+e", "--beta", "0"]
    target = tmp_path / "r.json"
    err = _refused([*verify, "--out", str(target)], capsys)
    assert f"--out {target}: Permission denied" in err


def test_pedal_of_a_classical_unital_reports_collinear_feet_without_a_census(capsys):
    code, report = run_json(
        ["pedal", "--p", "3", "--alpha", "0", "--beta", "e", "--lambda", "1"], capsys
    )
    assert code == 0
    (rec,) = report["records"]
    assert rec["collinear"] is True and len(rec["feet"]) == 4
    assert "census" not in rec


def test_a_removed_command_is_a_usage_error(capsys):
    code = cli.main(["census", "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: unital-lab [-h] {verify,pedal,orbit,scan}")
    assert lines[-1].startswith("unital-lab: error: argument command: invalid choice: 'census'")


def test_scan_of_a_named_pair_that_is_no_unital_is_a_usage_error(capsys):
    scan = ["scan", "--p", "3", "--problem", "conics"]
    err = _refused([*scan, "--alpha", "1", "--beta", "1"], capsys)
    assert "discriminant 1 is a square in GF(3)" in err


@pytest.mark.parametrize(
    "args", [["--alpha", "0", "--beta", "e"], ["--alpha", "0"], ["--alpha", "1"]]
)
def test_scan_of_rows_without_a_nonclassical_unital_is_an_empty_report(args, capsys):
    # perfbench's warm-up call (0, e) and its q=3 smoke rows of an alpha with no
    # valid beta rely on exit 0 here (ROADMAP item 0)
    code, report = run_json(["scan", "--p", "3", "--problem", "conics", *args], capsys)
    assert code == 0 and report["records"] == []
    assert report["summary"] == {"pass": 0, "fail": 0, "skipped": 0, "tuples": 0}


@pytest.mark.parametrize("command", ["pedal", "orbit"])
def test_lambda_and_point_on_the_command_line_are_a_usage_error(command, capsys):
    args = [command, "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
    err = _usage_error([*args, "--point", "1,1,1"], capsys)
    if command == "orbit":  # orbit takes no --point
        assert err.endswith("unrecognized arguments: --point 1,1,1")
    else:
        assert err.endswith("argument --point: not allowed with argument --lambda")


def test_a_refused_flag_shows_the_usage_of_its_command(capsys):
    orbit = ["orbit", "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
    assert cli.main([*orbit, "--point", "1,1,1"]) == 1
    err = capsys.readouterr().err
    usage = err[: err.index("\nunital-lab orbit: error: ")]
    assert usage.split() == [
        "usage:", "unital-lab", "orbit", "[-h]", "--p", "P", "[--n", "N]", "[--w", "W]",
        "--alpha", "ALPHA", "--beta", "BETA", "--lambda", "{1,w}", "[--format", "{json,csv}]",
        "[--out", "OUT]",
    ]
    assert err.endswith("unital-lab orbit: error: unrecognized arguments: --point 1,1,1\n")


def test_an_abbreviated_flag_is_unrecognised(capsys):
    # argparse would read --form as --format; each flag has one spelling
    pedal = ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
    err = _usage_error([*pedal, "--form", "csv"], capsys)
    assert err.endswith("unrecognized arguments: --form csv")
    assert run_cli([*pedal, "--format", "csv"], capsys)[0] == 0


# A valid call of each command, the flags it does not take, and a value for each.
_VALID_CALLS = {
    "verify": ["verify", "--p", "3"],
    "scan": ["scan", "--p", "3", "--problem", "conics"],
    **{
        name: [name, "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
        for name in ("pedal", "orbit")
    },
}
# The 44 (command, flag) pairs less these 10 leave 34 that a command takes.
_UNDECLARED = {
    "verify": ("--lambda", "--point", "--problem"),
    "scan": ("--lambda", "--point"),
    "pedal": ("--problem", "--jobs"),
    "orbit": ("--point", "--problem", "--jobs"),
}
_FLAG_VALUES = {"--lambda": "1", "--point": "1,1,1", "--problem": "conics", "--jobs": "1"}


@pytest.mark.parametrize(
    "command, flag", [(name, flag) for name, flags in _UNDECLARED.items() for flag in flags]
)
def test_a_flag_the_command_does_not_take_is_unrecognised(command, flag, capsys, no_context):
    err = _usage_error([*_VALID_CALLS[command], flag, _FLAG_VALUES[flag]], capsys)
    assert err.endswith(f"unrecognized arguments: {flag} {_FLAG_VALUES[flag]}")


def test_reports_byte_identical_across_jobs(tmp_path, capsys):
    commands = {
        "verify": ["verify", "--p", "3", "--n", "1"],
        **{name: ["scan", "--p", "3", "--n", "1", "--problem", name] for name in cli._SCANS},
    }
    for name, cmd in commands.items():
        reports = []
        for jobs in ("1", "8"):
            target = tmp_path / f"{name}-{jobs}.json"
            code, _ = run_cli([*cmd, "--jobs", jobs, "--out", str(target)], capsys)
            assert code == 0
            reports.append(target.read_bytes())
        assert reports[0] == reports[1], f"{name} report differs across worker counts"


@pytest.mark.parametrize("error", [DegenerateConfiguration, DegenerateInput])
def test_degenerate_check_inside_library_exits_2(error, capsys, monkeypatch):
    def degenerate(model):
        raise error("five points determine a conic pencil of dimension 2")

    monkeypatch.setitem(cli._SCANS, "conics", degenerate)
    code = cli.main(["scan", "--p", "3", "--n", "1", "--problem", "conics"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "check failed: five points" in captured.err
    # bad input is still a usage error
    assert run_cli(["scan", "--p", "4", "--n", "1", "--problem", "conics"], capsys)[0] == 1


class _RecordingContext:
    """Stands in for the fork context: records the process count asked of
    Pool and maps every item in this process, so no process starts."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        return [fn(item) for item in items]


def test_worker_count_clamped_to_cpus_and_chunks(tmp_path, capsys, monkeypatch):
    recorder = _RecordingContext()
    monkeypatch.setattr(cli, "mp", SimpleNamespace(get_context=lambda method: recorder))
    scan = ["scan", "--p", "3", "--n", "1", "--problem", "conics"]

    def run(args, cpus):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        target = tmp_path / "report.json"
        assert run_cli([*args, "--out", str(target)], capsys)[0] == 0
        return target.read_bytes()

    # a pool item is a class (alpha, Im beta): the 12 tuples are 4 classes of 3
    reference = run([*scan, "--jobs", "1"], cpus=2)
    assert recorder.processes == []
    assert run([*scan, "--jobs", "8"], cpus=2) == reference  # 4 classes, 2 CPUs
    assert recorder.processes == [2]
    assert run([*scan, "--jobs", "2"], cpus=None) == reference  # unknown CPU count: 1
    assert recorder.processes == [2]
    assert run([*scan, "--jobs", "8"], cpus=64) == reference  # 4 classes
    assert recorder.processes == [2, 4]
    run([*scan, "--alpha", "1+e", "--jobs", "8"], cpus=64)  # 3 tuples, one class
    assert recorder.processes == [2, 4]
    run([*scan, "--alpha", "1+e", "--beta", "0", "--jobs", "8"], cpus=64)  # one tuple
    assert recorder.processes == [2, 4]


def _class_of(model) -> tuple[str, int]:
    """(alpha, Im beta) of a model: its class, which the scan kernels see
    through the class's reference member only."""
    ctx, params = model.ctx, model.params
    return ctx.format_fq2(params.alpha), ctx.im(params.beta)


def _record_class(ctx, rec) -> tuple[str, int]:
    """(alpha, Im beta) of a record's pair."""
    return rec["alpha"], ctx.im(ctx.parse_fq2(rec["beta"]))


def _assert_class_failed(ctx, report, clean, broken, check, error):
    """Every member of the broken class has one fail record naming its own
    tuple, and every other record equals the clean run's."""
    tuple_of = lambda r: (r["alpha"], r["beta"])
    in_class = lambda r: _record_class(ctx, r) == broken
    failed = [r for r in report["records"] if r.get("status") == "fail"]
    members = list(dict.fromkeys(tuple_of(r) for r in clean["records"] if in_class(r)))
    assert len(members) == 3  # q = 3 pairs (alpha, beta + c)
    assert [tuple_of(r) for r in failed] == members
    for fail in failed:
        ref = next(r for r in clean["records"] if tuple_of(r) == tuple_of(fail))
        base = {k: ref[k] for k in ("tool_version", "p", "n", "w", "alpha", "beta", "beta_real")}
        assert fail == {**base, "status": "fail", "check": check, "error": error}
    rest = [r for r in report["records"] if r.get("status") != "fail"]
    assert rest == [r for r in clean["records"] if not in_class(r)]
    assert {tuple_of(r) for r in clean["records"]} == {tuple_of(r) for r in report["records"]}
    assert report["summary"] == {"pass": len(rest), "fail": 3, "skipped": 0, "tuples": 12}


def test_scan_records_a_failed_tuple_and_goes_on(capsys, monkeypatch):
    scan = ["scan", "--p", "3", "--n", "1", "--problem", "conics"]
    code, clean = run_json(scan, capsys)
    assert code == 0
    real = cli._SCANS["conics"]
    ctx = cli._WORKER["ctx"]
    broken = _record_class(ctx, clean["records"][4])

    def conics(model):
        if _class_of(model) == broken:
            raise TheoremViolation("arc split failed")
        return real(model)

    monkeypatch.setitem(cli._SCANS, "conics", conics)
    code, out = run_cli(scan, capsys)
    assert code == 2
    # forked workers inherit the patched registry and keep tuple order
    assert run_cli([*scan, "--jobs", "8"], capsys) == (2, out)
    error = "TheoremViolation: arc split failed"
    _assert_class_failed(ctx, json.loads(out), clean, broken, "conics", error)


def _corrupt_rows(monkeypatch, corrupt):
    """Pass every row of the CLI's batched gather, in place, through
    corrupt(ctx, alpha, beta, row)."""
    real = cli.obm_point_ids

    def obm_point_ids(ctx, alpha, betas):
        rows = real(ctx, alpha, betas)
        for beta, row in zip(betas, rows):
            corrupt(ctx, alpha, beta, row)
        return rows

    monkeypatch.setattr(cli, "obm_point_ids", obm_point_ids)


def _swap_row(ctx, alpha, beta, row):
    """Apply its set's ``external_swap`` to a member's row."""
    model = build_obm_unital(ctx, cli._WORKER["plane"], validate_params(ctx, alpha, beta))
    dropped, added = external_swap(model)
    row[row == dropped] = added


@pytest.mark.parametrize("betas", [(0,), (0, 1, 2)], ids=["pair", "class"])
def test_verify_record_of_corrupted_model_fails_its_checks(betas, monkeypatch):
    # the reference is swapped and so is every later member's row, so the
    # members share one corrupted set and read its touch array of None
    real = cli.build_obm_unital
    monkeypatch.setattr(
        cli, "build_obm_unital", lambda ctx, plane, params: swapped_for_external(real(ctx, plane, params))
    )
    _corrupt_rows(monkeypatch, _swap_row)
    cli._context(3, 1, None)
    ctx = cli._WORKER["ctx"]
    records = cli._verify_class([(ctx.pack(1, 1), beta) for beta in betas])
    assert [rec["beta"] for rec in records] == [str(beta) for beta in betas]
    for rec in records:
        assert rec["status"] == "fail"
        assert rec["checks"] == {
            "size": True,
            "unital_axiom": False,
            "blocking": False,  # the dropped point's tangent now misses the set
            "minimal": False,
            "attains_bound": True,
            "tangent_formula_matches_oracle": False,
        }


def test_four_lines_fails_a_tuple_whose_canonical_base_is_not_scanned(monkeypatch):
    real = cli._scan_bases

    def bases_without_lambda_1(model):
        bases, covered = real(model)
        return bases[bases != canonical_base_point(model, 1)], covered

    monkeypatch.setattr(cli, "_scan_bases", bases_without_lambda_1)
    cli._context(3, 1, None)
    ctx = cli._WORKER["ctx"]
    members = [(ctx.pack(1, 1), beta) for beta in range(ctx.q)]  # the class (1+e, Im 0)
    records = cli._scan_class("four-lines", members)
    assert [rec["beta"] for rec in records] == ["0", "1", "2"]
    for rec in records:
        assert rec["status"] == "fail" and rec["check"] == "four-lines"
        assert rec["error"] == (
            "InternalConsistencyError: a canonical base is not among the scanned bases"
        )


@pytest.mark.parametrize("q, alpha", [(3, None), (5, None), (7, "1+e"), (9, "1+e")])
def test_four_lines_reads_one_base_per_elation_orbit(q, alpha, geometry):
    # every class at q = 3 and 5, the alpha = 1+e row at q = 7 and 9
    p, n = PN_BY_Q[q]
    ctx, plane = geometry(p, n)
    row = None if alpha is None else ctx.parse_fq2(alpha)
    classes = {}
    for params in valid_parameter_pairs(ctx, nonclassical_only=True):
        if row in (None, params.alpha):
            classes.setdefault((params.alpha, ctx.im(params.beta)), params)
    assert len(classes) == {3: 4, 5: 36, 7: 3, 9: 4}[q]
    for params in classes.values():
        model = build_obm_unital(ctx, plane, params)
        assert cli._scan_four_lines(model) == [four_lines_record_of_every_base(model)]
        # the E_t images [x, y + t*z, z] of the representatives are the
        # covered bases, each once
        reps, covered = cli._scan_bases(model)
        images = sorted(
            plane.point_id(x, ctx.add_t[y, ctx.mul(t, z)], z)
            for x, y, z in map(plane.coords, reps.tolist())
            for t in range(ctx.q)
        )
        assert images == four_lines_bases(model).tolist()
        assert covered == len(images) == q * reps.size


def test_four_lines_fails_a_class_whose_set_an_elation_moves(capsys, monkeypatch):
    # the class's reference and every later member's row are one set with
    # its external_swap applied, which the elation t = 1 does not fix
    scan = ["scan", "--p", "3", "--n", "1", "--problem", "four-lines"]
    code, clean = run_json(scan, capsys)
    assert code == 0
    ctx = cli._WORKER["ctx"]
    broken = _record_class(ctx, clean["records"][4])
    real = cli.build_obm_unital

    def build_obm_unital(ctx, plane, params):
        model = real(ctx, plane, params)
        return swapped_for_external(model) if _class_of(model) == broken else model

    def swap_in_class(ctx, alpha, beta, row):
        if (ctx.format_fq2(alpha), ctx.im(beta)) == broken:
            _swap_row(ctx, alpha, beta, row)

    monkeypatch.setattr(cli, "build_obm_unital", build_obm_unital)
    _corrupt_rows(monkeypatch, swap_in_class)
    code, out = run_cli(scan, capsys)
    assert code == 2
    assert run_cli([*scan, "--jobs", "8"], capsys) == (2, out)
    error = (
        "StructuralViolation: the elation t=1 moves [1,1+e*2,e] off "
        "UnitalModel[obm(alpha=2+e, beta=0), 28 points]"
    )
    _assert_class_failed(ctx, json.loads(out), clean, broken, "four-lines", error)


def test_scan_records_an_inconsistent_tuple_and_goes_on(capsys, monkeypatch):
    scan = ["scan", "--p", "3", "--n", "1", "--problem", "conics"]
    code, clean = run_json(scan, capsys)
    assert code == 0
    real = cli.feet_closed_form
    ctx = cli._WORKER["ctx"]
    broken = _record_class(ctx, clean["records"][4])

    def feet_closed_form(model, lam):
        if _class_of(model) == broken:
            raise InternalConsistencyError("closed-form feet are not all unital points")
        return real(model, lam)

    monkeypatch.setattr(cli, "feet_closed_form", feet_closed_form)
    code, report = run_json(scan, capsys)
    assert code == 2
    error = "InternalConsistencyError: closed-form feet are not all unital points"
    _assert_class_failed(ctx, report, clean, broken, "conics", error)


def test_verify_records_a_failed_build_and_goes_on(capsys, monkeypatch):
    verify = ["verify", "--p", "3", "--n", "1"]
    code, clean = run_json(verify, capsys)
    assert code == 0
    real = cli.build_obm_unital
    broken = next(r for r in clean["records"] if r["status"] == "pass")
    tuple_of = lambda r: (r["alpha"], r["beta"])

    def build_obm_unital(ctx, plane, params):
        if (ctx.format_fq2(params.alpha), ctx.format_fq2(params.beta)) == tuple_of(broken):
            raise StructuralViolation("generating map (x, r) -> point is not injective")
        return real(ctx, plane, params)

    monkeypatch.setattr(cli, "build_obm_unital", build_obm_unital)
    code, out = run_cli(verify, capsys)
    assert code == 2
    assert run_cli([*verify, "--jobs", "8"], capsys) == (2, out)
    report = json.loads(out)
    records = report["records"]
    assert len(records) == len(clean["records"])
    for rec, ref in zip(records, clean["records"]):
        if ref is broken:
            base = {k: ref[k] for k in ("tool_version", "p", "n", "w", "alpha", "beta")}
            assert rec == {
                **base,
                "status": "fail",
                "check": "build",
                "error": "StructuralViolation: generating map (x, r) -> point is not injective",
            }
        else:
            assert rec == ref
    passed = clean["summary"]["pass"] - 1
    assert report["summary"] == {**clean["summary"], "pass": passed, "fail": 1}


def _member_with_another_set_fails_class_set(argv, capsys, monkeypatch, corrupt=_swap_row, size=28):
    # (1+e, 1) is the second member of the class (1+e, Im 0), whose first
    # member (1+e, 0) is its reference; its row of the batched gather is
    # corrupted, and its set has ``size`` points
    code, clean = run_cli(argv, capsys)
    assert code == 0
    tuple_of = lambda r: (r["alpha"], r["beta"])

    def corrupt_member(ctx, alpha, beta, row):
        if (ctx.format_fq2(alpha), ctx.format_fq2(beta)) == ("1+e", "1"):
            corrupt(ctx, alpha, beta, row)

    _corrupt_rows(monkeypatch, corrupt_member)
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert run_cli([*argv, "--jobs", "8"], capsys) == (2, out)
    clean, report = json.loads(clean), json.loads(out)
    assert len(report["records"]) == len(clean["records"])
    for rec, ref in zip(report["records"], clean["records"]):
        if tuple_of(ref) == ("1+e", "1"):
            assert rec == {
                **{k: ref[k] for k in ("tool_version", "p", "n", "w", "alpha", "beta", "beta_real")},
                "status": "fail",
                "check": "class_set",
                "error": "StructuralViolation: the point set of UnitalModel[obm(alpha=1+e, beta=1), "
                f"{size} points] differs from that of UnitalModel[obm(alpha=1+e, beta=0), 28 points]",
            }
        else:
            assert json.dumps(rec, sort_keys=True) == json.dumps(ref, sort_keys=True)
    assert report["summary"] == {**clean["summary"], "pass": clean["summary"]["pass"] - 1, "fail": 1}


def test_verify_fails_the_member_whose_set_differs_from_its_class(capsys, monkeypatch):
    _member_with_another_set_fails_class_set(["verify", "--p", "3", "--n", "1"], capsys, monkeypatch)


def test_scan_fails_the_member_whose_set_differs_from_its_class(capsys, monkeypatch):
    scan = ["scan", "--p", "3", "--n", "1", "--problem", "four-lines"]
    _member_with_another_set_fails_class_set(scan, capsys, monkeypatch)


def test_verify_fails_a_later_member_whose_row_has_a_collision(capsys, monkeypatch):
    # two (x, r) of the member land on one point: 27 distinct affine points
    # and [0,1,0]; the class check catches it, as build_obm_unital would
    def collide(ctx, alpha, beta, row):
        row[1] = row[0]

    argv = ["verify", "--p", "3", "--n", "1"]
    _member_with_another_set_fails_class_set(argv, capsys, monkeypatch, collide, size=27)


@pytest.mark.parametrize(
    "argv, gathers",
    [
        (["verify", "--p", "3", "--beta", "e"], 0),  # every class has one member
        (["verify", "--p", "5", "--alpha", "1"], 2),  # two classes of five valid members
    ],
    ids=["beta-column", "alpha-row"],
)
def test_a_class_gathers_rows_only_for_its_later_members(argv, gathers, capsys, monkeypatch):
    real, calls = cli.obm_point_ids, []

    def counted(ctx, alpha, betas):
        calls.append(len(betas))
        return real(ctx, alpha, betas)

    monkeypatch.setattr(cli, "obm_point_ids", counted)
    code, report = run_json([*argv, "--jobs", "1"], capsys)
    assert code == 0
    ctx = cli._WORKER["ctx"]
    sizes = {}
    for rec in report["records"]:
        if "beta_real" in rec:
            key = (rec["alpha"], ctx.im(ctx.parse_fq2(rec["beta"])))
            sizes[key] = sizes.get(key, 0) + 1
    assert sizes and len(calls) == sum(size >= 2 for size in sizes.values()) == gathers
    assert calls == [size - 1 for size in sizes.values() if size >= 2]


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["verify", "--p", "5", "--alpha", "1"], 2),
        (["scan", "--p", "5", "--problem", "four-lines", "--alpha", "1"], 2),
        (["scan", "--p", "5", "--problem", "conics", "--alpha", "1"], 0),  # reads no line count
    ],
)
def test_a_sweep_runs_one_line_pass_per_class_that_reads_it(argv, passes, capsys, monkeypatch):
    # the row alpha = 1 at q = 5 has two classes of five valid members, and
    # each class builds one model, its reference
    real, real_init = UnitalModel._lines_pass, UnitalModel.__init__
    fills, models = [], []

    def counted(model):
        if model._line_stats is None:
            fills.append(model)
        return real(model)

    def init(model, *args, **kwargs):
        models.append(model)
        real_init(model, *args, **kwargs)

    monkeypatch.setattr(UnitalModel, "_lines_pass", counted)
    monkeypatch.setattr(UnitalModel, "__init__", init)
    code, report = run_json([*argv, "--jobs", "1"], capsys)
    assert code == 0  # no fail record
    assert len({rec["beta"] for rec in report["records"] if "beta_real" in rec}) == 10
    assert len(fills) == passes
    assert len(models) == 2


@pytest.mark.parametrize("q", [3, 5, 7])
def test_verify_equals_the_per_pair_route(q, geometry, capsys):
    p, n = PN_BY_Q[q]
    ctx, plane = geometry(p, n)
    pairs = [(a, b) for a in range(ctx.q2) for b in range(ctx.q2)]
    valid = {(par.alpha, par.beta): par for par in valid_parameter_pairs(ctx)}
    classes = {}
    for alpha, beta in pairs:
        classes.setdefault((alpha, ctx.unpack(beta)[1]), []).append((alpha, beta))
    for members in classes.values():
        params = [valid[pair] for pair in members if pair in valid]
        assert len(members) == q and len(params) in (0, q)
        masks = [build_obm_unital(ctx, plane, par).mask for par in params]
        assert all(np.array_equal(mask, masks[0]) for mask in masks[1:])
    code, report = run_json(["verify", "--p", str(p), "--n", str(n)], capsys)
    expected = json.loads(json.dumps(verify_records_per_pair(ctx, plane, pairs)))
    assert len(report["records"]) == len(expected) == q**4
    for rec, ref in zip(report["records"], expected):
        assert rec == ref
    assert code == 0



@pytest.mark.parametrize("problem", list(cli._SCANS))
@pytest.mark.parametrize("q", [3, 5, 7])
def test_scan_equals_the_per_pair_route(q, problem, geometry, capsys):
    p, n = PN_BY_Q[q]
    ctx, plane = geometry(p, n)
    pairs = [(a, b) for a in range(ctx.q2) for b in range(ctx.q2)]
    code, report = run_json(["scan", "--p", str(p), "--n", str(n), "--problem", problem], capsys)
    expected = json.loads(json.dumps(scan_records_per_pair(problem, ctx, plane, pairs)))
    assert len(report["records"]) == len(expected) > 0
    for rec, ref in zip(report["records"], expected):
        assert rec == ref
    assert code == 0
