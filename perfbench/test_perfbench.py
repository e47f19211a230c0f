"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from spans import Tracer, self_times

SMOKE = wl.WORKLOADS["smoke-q3"]


def test_self_times_of_a_synthetic_nested_call():
    # outer [0, 10] holds child [1, 3] and child [4, 8]; the latter holds [5, 6]
    starts, ends, parents = [0, 1, 4, 5], [10, 3, 8, 6], [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [4, 2, 3, 1]


def test_wrapped_calls_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer("spans", clock=lambda: next(ticks))
    inner = tracer.wrap("x.inner", lambda: None)
    outer = tracer.wrap("x.outer", lambda: [inner(), inner()])
    tracer.call_id = 7
    outer()
    # clock reads: outer start 0, inner 1-2, inner 3-4, outer end 5
    rows = list(tracer.span_rows())
    assert [(r[0], r[2], r[3], r[6]) for r in rows] == [
        (7, -1, "x.outer", 3), (7, 0, "x.inner", 1), (7, 0, "x.inner", 1)
    ]
    assert tracer.summary()["x.inner"]["calls"] == 2


def test_install_reaches_imported_names_and_properties_and_uninstall_restores():
    cli = run.import_cli()
    from unital_lab import elations, fields, pedals, plane, unitals

    def holders():
        return {
            "cli.feet_of": cli.feet_of,
            "cli.line_pedal_census": cli.line_pedal_census,
            "elations.feet_of_many": elations.feet_of_many,
            "pedals.feet_of": pedals.feet_of,
            "cli._COMMANDS[verify]": cli._COMMANDS["verify"],
            "UnitalModel.line_counts": vars(unitals.UnitalModel)["line_counts"],
            "UnitalModel.__contains__": vars(unitals.UnitalModel)["__contains__"],
            "UnitalModel.generating_pair": vars(unitals.UnitalModel)["generating_pair"],
            "ProjectivePlane.collinear": vars(plane.ProjectivePlane)["collinear"],
            "ProjectivePlane.incidence": vars(plane.ProjectivePlane)["incidence"],
            "FieldCtx.mul": vars(fields.FieldCtx)["mul"],
        }

    before = holders()
    with Tracer("spans").installed():
        during = holders()
    assert holders() == before
    changed = {k for k in before if during[k] is not before[k]}
    assert changed == {
        "cli.feet_of", "cli.line_pedal_census", "elations.feet_of_many", "pedals.feet_of",
        "cli._COMMANDS[verify]", "UnitalModel.line_counts", "ProjectivePlane.collinear",
    }
    assert during["cli.feet_of"] is during["pedals.feet_of"]
    assert isinstance(during["UnitalModel.line_counts"], property)

    with Tracer("counts").installed():
        assert vars(fields.FieldCtx)["mul"] is not before["FieldCtx.mul"]
        assert cli.feet_of is before["cli.feet_of"]
    assert holders() == before


def test_checks_flag_a_corrupted_report():
    cli = run.import_cli()
    alpha = wl.row_classes(SMOKE)[-1][0]
    call = wl.row_calls(SMOKE, alpha)[0]  # four-lines
    code, text, _ = run.run_call(cli, call.argv)
    tuples, errors = wl.check_report(SMOKE, call, code, text)
    assert (tuples, errors) == (3, [])
    report = json.loads(text)
    report["records"][0]["scanned_bases"] -= 1
    assert wl.check_report(SMOKE, call, code, json.dumps(report))[1]
    assert run.check(SMOKE, call, code, text + " ", run.load_golden())[1] == [
        "report differs from its golden digest"
    ]


def test_tail_percentile_keeps_ten_calls_beyond():
    assert run.tail([float(i) for i in range(1, 46)]) == (77, 35.0, 10)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def _traced_smoke(seed):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", SMOKE.name, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_two_traced_smoke_runs_give_identical_counts_and_digests():
    first, second = _traced_smoke(3), _traced_smoke(3)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0  # every digest matched
    exact = [
        name for name, m in first["metrics"].items() if m["unit"] in ("count", "B", "MB")
        or name.endswith("valid_ratio") or name.endswith("fit_ratio")
    ]
    assert len(exact) >= 12
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["pedals.feet_of.calls"]["value"] > 0
    assert first["metrics"]["fields.scalar_ops"]["value"] > 0
