"""Command-line interface.

Commands:
  verify  <scenario-file> [--samples N] [--seed S] [--tol T] [--format F]
  factors <scenario-file> --xh <vector> --xg <vector>
  orbits  <scenario-file> --xg <vector>
  h1      <lattice-file>

The default tolerance can be set through the ENDOTRANSFER_TOL environment
variable.  Exit status of `verify` is 0 exactly when every pair passes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .cohomology import RealTorus, h1 as compute_h1, kappa_from_s, CohomologyError
from .endoscopy import ADatum, EllipticElement, EndoscopyError, build_diagram
from .scenario import ScenarioError, _parse_vector, load_scenario_file
from .verify import PrecisionError, emit_report, run_verify


DEFAULT_TOL = 1e-12


class InputError(ValueError):
    pass


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"expected a nonnegative finite number, got {text!r}")
    return tol


def _parse_vec(text: str, option: str, rank: int) -> EllipticElement:
    """The point of a vector option, read as the scenario loader reads
    base points."""
    try:
        vec = _parse_vector(text)
    except ValueError as e:
        raise InputError(f"{option} {text!r} is not a vector of rationals: {e}")
    if len(vec) != rank:
        raise InputError(f"{option} has {len(vec)} coordinates, the rank is {rank}")
    return EllipticElement(vec)


def _load_scenario(path):
    """The scenario in the file, or None once the reason it cannot be
    loaded is printed."""
    try:
        return load_scenario_file(path)
    except ScenarioError as e:
        print(f"invalid scenario: {e}", file=sys.stderr)
    except OSError as e:
        print(f"cannot read scenario: {e}", file=sys.stderr)
    return None


def _cmd_verify(args) -> int:
    tol = args.tol
    if tol is None:
        raw = os.environ.get("ENDOTRANSFER_TOL", "")
        try:
            tol = _tolerance(raw) if raw else DEFAULT_TOL
        except argparse.ArgumentTypeError as e:
            print(f"invalid ENDOTRANSFER_TOL: {e}", file=sys.stderr)
            return 2
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return 2
    try:
        report = run_verify(scenario, args.samples, args.seed, tol)
    except PrecisionError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, args.format))
    return 0 if report.all_passed else 1


def _cmd_factors(args) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return 2
    eng = scenario.engine
    try:
        x_h = _parse_vec(args.xh, "--xh", eng.g_datum.rank)
        x_g = _parse_vec(args.xg, "--xg", eng.g_datum.rank)
    except InputError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    try:
        diagram = build_diagram(eng.datum, eng.weyl_g, x_h, x_g)
    except EndoscopyError as e:
        print(f"non-regular input: {e}", file=sys.stderr)
        return 2
    if diagram is None:
        print("no diagram exists for this pair; transfer factor = 0")
        return 0
    a = ADatum.default(eng.g_datum)
    base = eng.base_diagram
    d1, d1b = eng.delta_i(diagram, a), eng.delta_i(base, a)
    d2, d2b = eng.delta_ii(diagram, a), eng.delta_ii(base, a)
    d3 = eng.delta_iii(diagram, base)
    total = eng.relative_factor(diagram, a) * eng.base_value
    print(f"diagram Weyl word: {tuple(i + 1 for i in diagram.w.word)}")
    print(f"delta_I   = {d1:+d}   (base {d1b:+d})")
    print(f"delta_II  = {d2:+d}   (base {d2b:+d})")
    print(f"delta_III = {d3:+d}")
    print(f"transfer factor = {total}")
    return 0


def _cmd_orbits(args) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return 2
    eng = scenario.engine
    try:
        x_g = _parse_vec(args.xg, "--xg", eng.g_datum.rank)
    except InputError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    try:
        stable = eng.stable_orbit_representatives(x_g)
        matching = eng.matching_h_orbits(x_g)
    except EndoscopyError as e:
        print(f"non-regular input: {e}", file=sys.stderr)
        return 2
    try:
        g_reps = [" ".join(str(c) for c in el.coords) for el in stable]
        h_reps = [" ".join(str(c) for c in el.coords) for el in matching]
    except ValueError:
        # str of an int beyond Python's int-to-str digit limit
        print(
            f"invalid input: --xg has orbit representatives with integers of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to print",
            file=sys.stderr,
        )
        return 2
    print(f"stable class of x_g splits into {len(stable)} rational classes:")
    for rep in g_reps:
        print("  G-side rep:", rep)
    print(f"matching endoscopic orbits: {len(matching)}")
    for rep in h_reps:
        print("  H-side rep:", rep)
    print(f"stable class size on the endoscopic side: {eng.stable_class_size_h(x_g)}")
    return 0


def _cmd_h1(args) -> int:
    try:
        rows = _read_lattice(args.lattice)
    except InputError as e:
        print(f"invalid lattice file: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot read lattice file: {e}", file=sys.stderr)
        return 2
    try:
        torus = RealTorus(len(rows), tuple(rows))
        group = compute_h1(torus)
    except CohomologyError as e:
        print(f"invalid involution: {e}", file=sys.stderr)
        return 2
    divisors = group.divisors
    if divisors:
        desc = " x ".join(f"Z/{d}" for d in divisors)
    else:
        desc = "trivial"
    print(f"H^1(R, T) = {desc}  (order {group.order})")
    n = torus.lattice_rank
    classes = _all_classes(group)
    characters = _character_reps(torus, group)
    if classes and characters:
        print("pairing table (rows: classes, columns: characters):")
        header = "        " + "  ".join(f"k{j:<4d}" for j in range(len(characters)))
        print(header)
        from .cohomology import CohomologyClass, tate_nakayama_pair

        for i, coords in enumerate(classes):
            cls = CohomologyClass(torus, group, coords)
            row = [tate_nakayama_pair(cls, kap) for kap in characters]
            print(f"  c{i:<4d} " + "  ".join(f"{v:+d}   " for v in row))
    return 0


def _read_lattice(path) -> tuple[tuple[int, ...], ...]:
    """Rows of an integer square matrix, one per non-comment line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append(tuple(int(p) for p in line.split()))
            except ValueError:
                raise InputError(f"line {lineno}: entries must be integers, got {line!r}")
            if len(rows[-1]) != len(rows[0]):
                raise InputError(
                    f"line {lineno}: row has {len(rows[-1])} entries, the first row has {len(rows[0])}"
                )
    if not rows:
        raise InputError("no matrix rows")
    if len(rows) != len(rows[0]):
        raise InputError(f"{len(rows)} rows of {len(rows[0])} entries; the matrix must be square")
    return tuple(rows)


def _all_classes(group):
    out = [()]
    for d in group.divisors:
        out = [c + (k,) for c in out for k in range(d)]
    return [c for c in out if len(c) == len(group.divisors)]


def _character_reps(torus, group):
    """Distinct component-group characters among half-integral vectors."""
    n = torus.lattice_rank
    reps = []
    seen_rows = set()
    for mask in range(2 ** n):
        xhat = tuple(Fraction(1, 2) if (mask >> j) & 1 else Fraction(0) for j in range(n))
        try:
            kap = kappa_from_s(xhat, torus)
        except CohomologyError:
            continue
        from .cohomology import CohomologyClass, tate_nakayama_pair

        row = tuple(
            tate_nakayama_pair(CohomologyClass(torus, group, coords), kap)
            for coords in _all_classes(group)
        )
        if row not in seen_rows:
            seen_rows.add(row)
            reps.append(kap)
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="endotransfer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity verification on sampled pairs")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--samples", type=_count, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=_tolerance, default=None)
    p_verify.add_argument("--format", choices=("human", "machine"), default="human")
    p_verify.set_defaults(func=_cmd_verify)

    p_factors = sub.add_parser("factors", help="print the factor decomposition for one pair")
    p_factors.add_argument("scenario")
    p_factors.add_argument("--xh", required=True)
    p_factors.add_argument("--xg", required=True)
    p_factors.set_defaults(func=_cmd_factors)

    p_orbits = sub.add_parser("orbits", help="print orbit enumerations for one element")
    p_orbits.add_argument("scenario")
    p_orbits.add_argument("--xg", required=True)
    p_orbits.set_defaults(func=_cmd_orbits)

    p_h1 = sub.add_parser("h1", help="cohomology group and pairing table of an involution lattice")
    p_h1.add_argument("lattice")
    p_h1.set_defaults(func=_cmd_h1)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
