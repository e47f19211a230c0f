import json
from types import SimpleNamespace

import pytest

from unital_lab import (
    DegenerateConfiguration,
    DegenerateInput,
    InternalConsistencyError,
    StructuralViolation,
    TheoremViolation,
    canonical_base_point,
    cli,
    validate_params,
)

from conftest import swapped_for_external


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
    real = cli._verify_pair

    def sabotaged(pair):
        out = real(pair)
        for rec in out:
            if rec.get("status") == "pass":
                rec["checks"]["blocking"] = False
                rec["status"] = "fail"
        return out

    monkeypatch.setattr(cli, "_verify_pair", sabotaged)
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
    assert rec["census"]["histogram"] == {"0": "57", "1": "28", "2": "6"} or rec["census"][
        "histogram"
    ] == {"0": 57, "1": 28, "2": 6}
    assert rec["arc_report"]["parts"] == [4, 0]
    assert rec["arc_report"]["single_arc"] is True
    assert "trace_classes" in rec and "foot_params" in rec


def test_pedal_point_route_matches_lambda(capsys):
    code1, rep1 = run_json(
        ["pedal", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--lambda", "w"],
        capsys,
    )
    code2, rep2 = run_json(
        ["pedal", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--point", "0,e*2,1"],
        capsys,
    )
    assert code1 == code2 == 0
    assert rep1["records"][0]["feet"] == rep2["records"][0]["feet"]


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


def test_census_schema(capsys):
    code, report = run_json(
        ["census", "--p", "3", "--n", "1", "--alpha", "1+e", "--beta", "0", "--lambda", "1"],
        capsys,
    )
    assert code == 0
    (rec,) = report["records"]
    assert set(rec) >= {"base_point", "histogram", "witnesses"}
    assert sum(int(v) for v in rec["histogram"].values()) == 91
    for line, pts in rec["witnesses"]:
        assert isinstance(line, str) and isinstance(pts, list)


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


def test_env_variable_defaults(capsys, monkeypatch):
    monkeypatch.setenv("UNITAL_LAB_FORMAT", "csv")
    monkeypatch.setenv("UNITAL_LAB_P", "3")
    code, out = run_cli(["verify", "--alpha", "1+e", "--beta", "0"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("alpha,") and "checks.blocking" in header
    # explicit flag beats the environment
    monkeypatch.setenv("UNITAL_LAB_FORMAT", "csv")
    code2, out2 = run_cli(
        ["verify", "--p", "3", "--alpha", "1+e", "--beta", "0", "--format", "json"], capsys
    )
    assert code2 == 0 and out2.lstrip().startswith("{")


def test_env_defaults_read_on_every_call(capsys, monkeypatch):
    # one parser serves the whole process, so the environment is read per call
    args = ["verify", "--p", "3", "--alpha", "1+e", "--beta", "0"]
    monkeypatch.delenv("UNITAL_LAB_FORMAT", raising=False)
    code, out = run_cli(args, capsys)
    assert code == 0 and out.lstrip().startswith("{")
    monkeypatch.setenv("UNITAL_LAB_FORMAT", "csv")
    code, out = run_cli(args, capsys)
    assert code == 0 and out.startswith("alpha,")
    code, out = run_cli([*args, "--format", "json"], capsys)
    assert code == 0 and out.lstrip().startswith("{")


@pytest.mark.parametrize(
    "name, value, args",
    [
        ("LAMBDA", "x", ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0"]),
        ("FORMAT", "xml", ["verify", "--p", "3", "--alpha", "1+e", "--beta", "0"]),
        ("PROBLEM", "bogus", ["scan", "--p", "3"]),
        ("JOBS", "abc", ["verify", "--p", "3", "--alpha", "1+e", "--beta", "0"]),
        ("P", "three", ["verify", "--alpha", "1+e", "--beta", "0"]),
    ],
)
def test_env_values_are_checked_like_flags(name, value, args, capsys, monkeypatch):
    monkeypatch.setenv(f"UNITAL_LAB_{name}", value)
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "invalid" in captured.err and repr(value) in captured.err
    assert f"UNITAL_LAB_{name}" in captured.err


def test_bad_typed_flag_is_reported_under_its_flag(capsys):
    code = cli.main(["verify", "--p", "3", "--alpha", "1+e", "--beta", "0", "--jobs", "abc"])
    err = capsys.readouterr().err
    assert code == 1 and "argument --jobs: invalid int value: 'abc'" in err
    assert "UNITAL_LAB" not in err


def test_explicit_flag_overrides_invalid_or_valid_env(capsys, monkeypatch):
    pedal = ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0"]
    _, reference = run_json([*pedal, "--lambda", "w"], capsys)
    monkeypatch.setenv("UNITAL_LAB_LAMBDA", "1")
    code, report = run_json([*pedal, "--lambda", "w"], capsys)
    assert code == 0 and report == reference
    monkeypatch.setenv("UNITAL_LAB_LAMBDA", "x")  # argparse checks the env value first
    assert run_cli([*pedal, "--lambda", "w"], capsys)[0] == 1
    monkeypatch.setenv("UNITAL_LAB_JOBS", "0")  # below 1 means 1
    monkeypatch.setenv("UNITAL_LAB_LAMBDA", "w")
    code, report = run_json(pedal, capsys)
    assert code == 0 and report == reference


def test_commands_share_one_context(capsys):
    pedal = ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
    cli._WORKER.clear()
    assert run_cli(pedal, capsys)[0] == 0
    plane = cli._WORKER["plane"]
    assert run_cli(pedal, capsys)[0] == 0
    assert run_cli(["census", *pedal[1:]], capsys)[0] == 0
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


def _refused(args, capsys) -> str:
    """The stderr of a call that must exit 1 with one error line and no report."""
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("unital-lab: error: ") and captured.err.count("\n") == 1
    return captured.err


def test_out_in_a_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch):
    target = tmp_path / "missing" / "r.json"

    def no_context(*_):
        raise AssertionError("the context was built")

    monkeypatch.setattr(cli, "_context", no_context)
    verify = ["verify", "--p", "3", "--alpha", "1", "--beta", "0"]
    err = _refused([*verify, "--out", str(target)], capsys)
    assert str(target) in err and "Traceback" not in err
    assert not target.parent.exists()


def test_out_write_error_is_one_error_line(tmp_path, capsys):
    verify = ["verify", "--p", "3", "--alpha", "1+e", "--beta", "0"]
    err = _refused([*verify, "--out", str(tmp_path)], capsys)
    assert str(tmp_path) in err  # open() on a directory raises IsADirectoryError


def test_census_of_a_classical_unital_is_a_usage_error(capsys):
    census = ["census", "--p", "3", "--alpha", "0", "--beta", "e", "--lambda", "1"]
    err = _refused(census, capsys)
    assert "this operation requires an OBM unital with alpha != 0" in err


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


@pytest.mark.parametrize("command", ["pedal", "census", "orbit"])
def test_lambda_and_point_on_the_command_line_are_a_usage_error(command, capsys):
    args = [command, "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
    err = _refused([*args, "--point", "1,1,1"], capsys)
    assert "--lambda" in err and "--point" in err


def test_explicit_point_beats_lambda_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("UNITAL_LAB_LAMBDA", "1")
    pedal = ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0", "--point", "1,1,1"]
    code, report = run_json(pedal, capsys)
    assert code == 0 and report["records"][0]["base_point"] == "[1,1,1]"
    assert report["config"]["lambda"] is None


def test_explicit_lambda_beats_point_from_the_environment(capsys, monkeypatch):
    pedal = ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0", "--lambda", "1"]
    _, reference = run_json(pedal, capsys)
    monkeypatch.setenv("UNITAL_LAB_POINT", "1,1,1")
    code, report = run_json(pedal, capsys)
    assert code == 0 and report == reference
    assert report["records"][0]["base_point"] == "[0,1,e*2]"


def test_an_abbreviated_flag_is_unrecognised(capsys, monkeypatch):
    # argparse would read --poi as --point, which the environment's --lambda
    # does not know to yield to; each flag has one spelling
    monkeypatch.setenv("UNITAL_LAB_LAMBDA", "1")
    pedal = ["pedal", "--p", "3", "--alpha", "1+e", "--beta", "0"]
    code = cli.main([*pedal, "--poi", "1,1,1"])
    err = capsys.readouterr().err
    assert code == 1 and "unrecognized arguments: --poi 1,1,1" in err
    assert run_cli([*pedal, "--point", "1,1,1"], capsys)[0] == 0


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

    reference = run([*scan, "--jobs", "1"], cpus=2)
    assert recorder.processes == []
    assert run([*scan, "--jobs", "8"], cpus=2) == reference  # 12 tuples, 2 CPUs
    assert recorder.processes == [2]
    assert run([*scan, "--jobs", "2"], cpus=None) == reference  # unknown CPU count: 1
    assert recorder.processes == [2]
    run([*scan, "--alpha", "1+e", "--jobs", "8"], cpus=64)  # 3 tuples
    assert recorder.processes == [2, 3]
    run([*scan, "--alpha", "1+e", "--beta", "0", "--jobs", "8"], cpus=64)  # one tuple
    assert recorder.processes == [2, 3]


def test_scan_records_a_failed_tuple_and_goes_on(capsys, monkeypatch):
    scan = ["scan", "--p", "3", "--n", "1", "--problem", "conics"]
    code, clean = run_json(scan, capsys)
    assert code == 0
    real = cli._SCANS["conics"]
    tuple_of = lambda r: (r["alpha"], r["beta"])
    broken = tuple_of(clean["records"][4])

    def conics(model):
        ctx, params = model.ctx, model.params
        if (ctx.format_fq2(params.alpha), ctx.format_fq2(params.beta)) == broken:
            raise TheoremViolation("arc split failed")
        return real(model)

    monkeypatch.setitem(cli._SCANS, "conics", conics)
    code, out = run_cli(scan, capsys)
    assert code == 2
    # forked workers inherit the patched registry and keep tuple order
    assert run_cli([*scan, "--jobs", "8"], capsys) == (2, out)
    report = json.loads(out)
    failed = [r for r in report["records"] if r.get("status") == "fail"]
    assert len(failed) == 1
    (fail,) = failed
    assert tuple_of(fail) == broken
    assert fail["check"] == "conics"
    assert fail["error"] == "TheoremViolation: arc split failed"
    rest = [r for r in report["records"] if r.get("status") != "fail"]
    assert rest == [r for r in clean["records"] if tuple_of(r) != broken]
    assert {tuple_of(r) for r in clean["records"]} == {tuple_of(r) for r in report["records"]}
    assert report["summary"] == {"pass": len(rest), "fail": 1, "skipped": 0, "tuples": 12}


def test_verify_record_of_corrupted_model_fails_its_checks(monkeypatch):
    real = cli.build_obm_unital
    monkeypatch.setattr(
        cli, "build_obm_unital", lambda ctx, plane, params: swapped_for_external(real(ctx, plane, params))
    )
    cli._context(3, 1, None)
    ctx = cli._WORKER["ctx"]
    (rec,) = cli._verify_pair((ctx.pack(1, 1), 0))
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
        bases = real(model)
        return bases[bases != canonical_base_point(model, 1)]

    monkeypatch.setattr(cli, "_scan_bases", bases_without_lambda_1)
    cli._context(3, 1, None)
    ctx = cli._WORKER["ctx"]
    (rec,) = cli._scan_tuple("four-lines", validate_params(ctx, ctx.pack(1, 1), 0))
    assert rec["status"] == "fail" and rec["check"] == "four-lines"
    assert rec["error"] == (
        "InternalConsistencyError: a canonical base is not among the scanned bases"
    )


def test_scan_records_an_inconsistent_tuple_and_goes_on(capsys, monkeypatch):
    scan = ["scan", "--p", "3", "--n", "1", "--problem", "conics"]
    code, clean = run_json(scan, capsys)
    assert code == 0
    real = cli.feet_closed_form
    tuple_of = lambda r: (r["alpha"], r["beta"])
    broken = tuple_of(clean["records"][4])

    def feet_closed_form(model, lam):
        ctx, params = model.ctx, model.params
        if (ctx.format_fq2(params.alpha), ctx.format_fq2(params.beta)) == broken:
            raise InternalConsistencyError("closed-form feet are not all unital points")
        return real(model, lam)

    monkeypatch.setattr(cli, "feet_closed_form", feet_closed_form)
    code, report = run_json(scan, capsys)
    assert code == 2
    (fail,) = [r for r in report["records"] if r.get("status") == "fail"]
    assert tuple_of(fail) == broken and fail["check"] == "conics"
    assert fail["error"] == "InternalConsistencyError: closed-form feet are not all unital points"
    rest = [r for r in report["records"] if r.get("status") != "fail"]
    assert rest == [r for r in clean["records"] if tuple_of(r) != broken]


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
