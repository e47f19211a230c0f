"""Mutants that the test suite must kill, and an opt-in runner for them.

Each mutant replaces one exact text in one file under ``src/`` and names the
tests that must fail once it is applied.  ``tests/test_mutants.py`` checks in
every tier-1 run that each old text still occurs exactly once in its file and
that each named test still exists, so a refactor that moves the code or
renames a test shows at once.

Run all mutants, or one, with::

    python tests/mutants.py [--only ID]

The runner copies ``src/`` into a temporary directory, applies one mutant,
and runs that mutant's tests in one pytest subprocess against the copy, one
mutant after another.  A mutant survives unless every test it names fails;
the runner exits 1 if any mutant survives.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = (
    Mutant(
        id="foot-parameters-conj-sign",
        path="unital_lab/pedals.py",
        old="neg[mul[ctx.conj(p.alpha), mul[xbar, xbar]]]",
        new="mul[ctx.conj(p.alpha), mul[xbar, xbar]]",
        tests=(
            "tests/test_pedals.py::test_parameter_set_properties",
            "tests/test_pedals.py::test_foot_parameters_are_the_x_of_the_brute_force_feet",
            "tests/test_pedals.py::test_closed_form_equals_brute_force[3]",
        ),
    ),
    Mutant(
        id="conic-pencil-weights-swapped",
        path="unital_lab/pedals.py",
        old="coeffs = add[mul[w1, form[0]], neg[mul[w0, form[1]]]]",
        new="coeffs = add[mul[w0, form[0]], neg[mul[w1, form[1]]]]",
        tests=(
            "tests/test_pedals.py::test_conic_through_against_scalar_oracle[3-1]",
            "tests/test_pedals.py::test_conic_through_is_the_one_conic_of_a_brute_force_search",
            "tests/test_golden_reports.py::test_report_bytes_match_golden_digest"
            "[scan --p 7 --n 1 --problem conics --alpha 1+e]",
        ),
    ),
    Mutant(
        id="conic-cross-terms-unsymmetrised",
        path="unital_lab/pedals.py",
        old="add[form[:, 3:], mul[l[:, _MONO_J[3:]], m[:, _MONO_I[3:]]]]",
        new="form[:, 3:]",
        tests=(
            "tests/test_pedals.py::test_conic_through_parabola_points",
            "tests/test_pedals.py::test_arc_in_conic",
            "tests/test_pedals.py::test_conic_through_against_scalar_oracle[3-1]",
        ),
    ),
    Mutant(
        id="trace-class-moved",
        path="unital_lab/pedals.py",
        old="tuple(xs[traces == t].tolist())",
        new="tuple(xs[np.roll(traces, 1) == t].tolist())",
        tests=(
            "tests/test_pedals.py::test_trace_class_structure[3]",
            "tests/test_pedals.py::test_same_trace_solutions_dual_route[3]",
        ),
    ),
    Mutant(
        id="max-collinear-capped-at-3",
        path="unital_lab/plane.py",
        old="best[hit] = gap",
        new="best[hit] = min(gap, 3)",
        tests=(
            "tests/test_pedals.py::test_classical_pedals_always_collinear",
            "tests/test_pedals.py::test_feet_counts_and_dichotomy_q3",
        ),
    ),
    Mutant(
        id="incidence-block-slice-short",
        path="unital_lab/plane.py",
        old="stop = min(start + step, self.size)",
        new="stop = min(start + step - 1, self.size)",
        tests=(
            "tests/test_plane.py::test_block_edges_inside_and_between_the_row_families[3-39]",
            "tests/test_plane.py::test_block_edges_inside_and_between_the_row_families[5-130]",
            "tests/test_plane.py::test_rows_on_both_sides_of_every_block_edge_q13",
        ),
    ),
    Mutant(
        id="incidence-rows-affine-family-overreach",
        path="unital_lab/plane.py",
        old="np.flatnonzero(ids < k * k)",
        new="np.flatnonzero(ids <= k * k)",
        tests=(
            "tests/test_plane.py::test_block_edges_inside_and_between_the_row_families[3-1]",
            "tests/test_plane.py::test_rows_on_both_sides_of_every_block_edge_q13",
            "tests/test_plane.py::test_building_the_q13_table_stays_within_table_bytes_plus_32_mib",
        ),
    ),
    Mutant(
        id="sweep-pool-reversed",
        path="unital_lab/cli.py",
        old="parts = pool.map(per_tuple, tuples,",
        new="parts = pool.map(per_tuple, tuples[::-1],",
        tests=("tests/test_cli.py::test_reports_byte_identical_across_jobs",),
    ),
    Mutant(
        id="obm-tangent-sign",
        path="unital_lab/unitals.py",
        old="u = add[neg[mul[two, mul[p.alpha, xs]]], mul[bbar_minus_b, conj[xs]]]",
        new="u = add[mul[two, mul[p.alpha, xs]], mul[bbar_minus_b, conj[xs]]]",
        tests=(
            "tests/test_unitals.py::test_tangent_formula_vs_oracle_all_tuples_q3",
            "tests/test_pedals.py::test_two_pedals_share_at_most_one_point",
        ),
    ),
    Mutant(
        id="obm-ids-x0-column-uninverted",
        path="unital_lab/unitals.py",
        old="k * k + inv[y0]",
        new="k * k + y0",
        tests=(
            "tests/test_unitals.py::test_obm_point_ids_equal_the_scalar_point_ids[5]",
            "tests/test_unitals.py::test_obm_point_ids_equal_the_scalar_point_ids[9]",
        ),
    ),
    Mutant(
        id="closed-form-feet-lam-sign",
        path="unital_lab/pedals.py",
        old="y = ctx.add_t[traces, ctx.neg(ctx.pack(0, lam))]",
        new="y = ctx.add_t[traces, ctx.pack(0, lam)]",
        tests=(
            "tests/test_pedals.py::test_foot_r_values",
            "tests/test_pedals.py::test_trace_class_structure[3]",
        ),
    ),
    Mutant(
        id="companion-column-sign",
        path="unital_lab/fields.py",
        old="companion[:, -1] = -low % p",
        new="companion[:, -1] = low % p",
        tests=(
            "tests/test_fields.py::test_gf_q_tables_above_the_cap_match_galoistools[3-3]",
            "tests/test_fields.py::test_gf_q_tables_above_the_cap_match_galoistools[5-2]",
            "tests/test_fields.py::test_gf_q_tables_above_the_cap_match_galoistools[7-2]",
            "tests/test_fields.py::test_gf9_irreducible_is_minimal",
        ),
    ),
    Mutant(
        id="field-test-accepts-first-candidate",
        path="unital_lab/fields.py",
        old="np.any(mul[1:] == 1, axis=1)",
        new="np.any(mul[1:] >= 0, axis=1)",
        tests=(
            "tests/test_fields.py::test_gf_q_tables_above_the_cap_match_galoistools[3-3]",
            "tests/test_fields.py::test_gf_q_tables_above_the_cap_match_galoistools[5-2]",
            "tests/test_fields.py::test_gf_q_tables_above_the_cap_match_galoistools[7-2]",
            "tests/test_fields.py::test_gf9_irreducible_is_minimal",
        ),
    ),
    Mutant(
        id="failed-tuple-always-check-build",
        path="unital_lab/cli.py",
        old='rec.update(status="fail", check=check,',
        new='rec.update(status="fail", check="build",',
        tests=(
            "tests/test_cli.py::test_scan_records_a_failed_tuple_and_goes_on",
            "tests/test_cli.py::test_four_lines_fails_a_tuple_whose_canonical_base_is_not_scanned",
        ),
    ),
    Mutant(
        id="pedal-frame-first-lambda-only",
        path="unital_lab/cli.py",
        old="for frame in _lambdas(ctx) if base == canonical_base_point(",
        new="for frame in _lambdas(ctx)[:1] if base == canonical_base_point(",
        tests=(
            "tests/test_cli.py::test_pedal_point_route_matches_lambda[3-1+e-0-w-0,e*2,1]",
            "tests/test_cli.py::test_pedal_point_route_matches_lambda[5-1-e-w-0,e*2,1]",
            "tests/test_golden_reports.py::test_report_bytes_match_golden_digest"
            "[pedal --p 3 --n 1 --alpha 1+e --beta 0 --lambda w]",
            "tests/test_golden_reports.py::test_report_bytes_match_golden_digest"
            "[pedal --p 5 --n 1 --alpha 1 --beta e --lambda w]",
        ),
    ),
    Mutant(
        id="pedal-census-witnesses-dropped",
        path="unital_lab/pedals.py",
        old="for size in sorted(self.witnesses)\n",
        new="for size in sorted(self.witnesses) if size > 4\n",
        tests=(
            "tests/test_cli.py::test_pedal_census_schema",
            "tests/test_golden_reports.py::test_report_bytes_match_golden_digest"
            "[pedal --p 3 --n 1 --alpha 1+e --beta 0 --lambda 1]",
            "tests/test_golden_reports.py::test_report_bytes_match_golden_digest"
            "[pedal --p 5 --n 1 --alpha 1 --beta e --point 1,1,1]",
        ),
    ),
    Mutant(
        id="class-identity-skipped",
        path="unital_lab/cli.py",
        old="if not np.array_equal(row, affine):",
        new="if False:",
        tests=(
            "tests/test_cli.py::test_verify_fails_the_member_whose_set_differs_from_its_class",
            "tests/test_cli.py::test_scan_fails_the_member_whose_set_differs_from_its_class",
            "tests/test_cli.py::test_verify_fails_a_later_member_whose_row_has_a_collision",
        ),
    ),
    Mutant(
        id="four-lines-elation-check-skipped",
        path="unital_lab/elations.py",
        old="if moved.any():",
        new="if False:",
        tests=(
            "tests/test_cli.py::test_four_lines_fails_a_class_whose_set_an_elation_moves",
            "tests/test_elations.py::test_generator_check_covers_a_gf_p_basis_of_gf_q",
        ),
    ),
    Mutant(
        id="scan-keeps-classical-pairs",
        path="unital_lab/cli.py",
        old="keep = (alphas != 0) & ~ctx.square_mask",
        new="keep = ~ctx.square_mask",
        tests=(
            "tests/test_cli.py::test_scan_of_rows_without_a_nonclassical_unital_is_an_empty_report"
            "[args0]",
            "tests/test_cli.py::test_scan_of_rows_without_a_nonclassical_unital_is_an_empty_report"
            "[args1]",
        ),
    ),
    Mutant(
        id="refused-flag-top-level-usage",
        path="unital_lab/cli.py",
        old="_COMMAND_PARSERS[args.command].error(",
        new="_PARSER.error(",
        tests=("tests/test_cli.py::test_a_refused_flag_shows_the_usage_of_its_command",),
    ),
)


def failed_tests(pytest_output: str) -> set[str]:
    """Node ids of the FAILED and ERROR lines of pytest's short summary."""
    out = set()
    for line in pytest_output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR") and rest:
            out.add(rest.split(" - ")[0].strip())
    return out


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """(killed, detail): apply the mutant to a copy of src/ and run its tests."""
    with tempfile.TemporaryDirectory(prefix="unital-lab-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return False, f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        where = subprocess.run(
            [sys.executable, "-c", "import unital_lab; print(unital_lab.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):  # an installed copy would shadow the mutant
            return False, f"unital_lab imports from {where or 'nowhere'}, not from the patched copy"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):
        return False, f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    survived = [t for t in mutant.tests if t not in failed_tests(proc.stdout)]
    if survived:
        return False, "these tests passed: " + ", ".join(survived)
    return True, f"{len(mutant.tests)} of {len(mutant.tests)} tests failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=[m.id for m in MUTANTS], help="run this mutant alone")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.id)]
    survivors = 0
    started = time.perf_counter()
    for mutant in chosen:
        t0 = time.perf_counter()
        killed, detail = run_mutant(mutant)
        survivors += not killed
        verdict = "killed  " if killed else "SURVIVED"
        print(f"{verdict} {mutant.id} ({time.perf_counter() - t0:.1f}s): {detail}", flush=True)
    print(
        f"{len(chosen) - survivors} of {len(chosen)} mutants killed "
        f"in {time.perf_counter() - started:.1f}s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
