"""Line coverage of the verify path, by the standard library's sys.settrace.

Run from the repository root:

    PYTHONPATH=src:tests python3 tests/coverage_probe.py

It runs run_verify (2 pairs, seed 3) on the five shipped scenario files,
loaded by load_scenario_file, and on the scenarios of every type of
oracles.TYPES, built as tests/conftest.py builds them: every simple grading
of G, every nontrivial s, H quasi-split, base point (1/2, 2/3, 3/4, ...).
On the shipped files it also runs emit_report in both formats and
cli.main(["verify", ...]).  It then prints, for each module of the package,
the function-body lines that ran over all function-body lines, and apart
from them the module- and class-level lines that ran at import.  A line is
the first line of a statement; a docstring is no line.  The probe does not
reach the refusal branches that bad input needs, so a line it does not run
is a line to read, not a line to delete.  Not collected by pytest.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "endotransfer"
SHIPPED = ("sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")


def _statement_lines(tree) -> tuple[set[int], set[int]]:
    """The first lines of the statements inside function bodies, and of the
    statements outside them; docstrings left out."""
    body, top = set(), set()

    def visit(statements, inside):
        for i, node in enumerate(statements):
            is_doc = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str)
            if not is_doc:
                (body if inside else top).add(node.lineno)
            nested = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), nested)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, nested)
            for case in getattr(node, "cases", []):
                visit(case.body, nested)

    visit(tree.body, False)
    return body, top


def _run(hit: dict[str, set[int]]) -> None:
    """The workloads, with every line of the package that runs added to hit."""
    files = {str(path): path.stem for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            hit[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(trace)
    try:
        from endotransfer import cli
        from endotransfer.distributions import make_scenario
        from endotransfer.endoscopy import EllipticElement, TransferFactorEngine, build_endoscopic_datum
        from endotransfer.realform import build_grading, real_weyl_group
        from endotransfer.rootdata import build_root_datum
        from endotransfer.scenario import builtin_scenario_path, load_scenario_file
        from endotransfer.verify import emit_report, run_verify
        from oracles import TYPES

        for name in SHIPPED:
            path = str(builtin_scenario_path(name))
            report = run_verify(load_scenario_file(path), 2, 3)
            emit_report(report, "machine")
            emit_report(report, "human")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["verify", path, "--samples", "2", "--seed", "3"])
        for g_type in TYPES:
            g = build_root_datum(g_type)
            point = EllipticElement(tuple(Fraction(k + 1, k + 2) for k in range(g.rank)))
            for grades in itertools.product((0, 1), repeat=g.rank):
                grading_g = build_grading(g, grades)
                rw_g = real_weyl_group(grading_g)
                for signs in itertools.product((1, -1), repeat=g.rank):
                    if all(s == 1 for s in signs):
                        continue
                    datum = build_endoscopic_datum(g, signs)
                    grading_h = build_grading(datum.h_datum, [1] * len(datum.h_datum.simple_roots))
                    eng = TransferFactorEngine(
                        datum, grading_g, grading_h, rw_g, partial(real_weyl_group, grading_h), point, point
                    )
                    run_verify(make_scenario(f"{g_type}{grades}{signs}", eng), 2, 3)
    finally:
        sys.settrace(None)


def main() -> int:
    if any(name == "endotransfer" or name.startswith("endotransfer.") for name in sys.modules):
        print("run the probe in a fresh interpreter: endotransfer is already imported", file=sys.stderr)
        return 2
    hit = {path.stem: set() for path in PACKAGE.glob("*.py")}
    _run(hit)
    totals = [0, 0, 0, 0]
    print(f"{'module':<14} {'body lines run':>16} {'import lines run':>18}")
    for path in sorted(PACKAGE.glob("*.py")):
        body, top = _statement_lines(ast.parse(path.read_text(encoding="utf-8")))
        ran = hit[path.stem]
        row = (len(ran & body), len(body), len(ran & top), len(top))
        totals = [t + x for t, x in zip(totals, row)]
        print(f"{path.stem:<14} {f'{row[0]} / {row[1]}':>16} {f'{row[2]} / {row[3]}':>18}")
    share = totals[0] / totals[1]
    print(f"{'total':<14} {f'{totals[0]} / {totals[1]}':>16} {f'{totals[2]} / {totals[3]}':>18}")
    print(f"function-body lines run: {share:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
