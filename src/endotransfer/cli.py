"""Command-line interface.

Commands:
  verify  <scenario-file> [--samples N] [--seed S] [--tol T] [--format F]
  factors <scenario-file> --xh <vector> --xg <vector>
  orbits  <scenario-file> --xg <vector>
  h1      <lattice-file>

The default tolerance can be set through the ENDOTRANSFER_TOL environment
variable.  Exit status of `verify` is 0 exactly when every pair passes.  A
command whose standard output is closed early stops with status 1 and no
message.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from fractions import Fraction

from .cohomology import (
    CohomologyClass,
    CohomologyError,
    RealTorus,
    h1 as compute_h1,
    kappa_from_s,
    tate_nakayama_pair,
)
from .endoscopy import ADatum, EllipticElement, EndoscopyError, build_diagram
from .lattice import gf2_basis
from .scenario import ScenarioError, _parse_vector, load_scenario_file
from .verify import PrecisionError, emit_report, run_verify


DEFAULT_TOL = 1e-12

# `h1` prints its pairing table only for groups of at most this many classes.
H1_TABLE_LIMIT = 256


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
    except UnicodeDecodeError as e:
        print(f"invalid lattice file: {args.lattice} is not UTF-8 text: {e.reason}", file=sys.stderr)
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
    if group.order > H1_TABLE_LIMIT:
        print(f"pairing table left out: more than {H1_TABLE_LIMIT} classes")
        return 0
    classes = [
        CohomologyClass(torus, group, coords)
        for coords in itertools.product((0, 1), repeat=len(group.divisors))
    ]
    columns = _character_columns(group, classes)
    print("pairing table (rows: classes, columns: characters):")
    print("        " + "  ".join(f"k{j:<4d}" for j in range(len(columns))))
    for i in range(len(classes)):
        print(f"  c{i:<4d} " + "  ".join(f"{column[i]:+d}   " for column in columns))
    return 0


def _read_lattice(path) -> tuple[tuple[int, ...], ...]:
    """Rows of an integer square matrix, one per non-comment line."""
    rows = []
    # A UTF-8 byte-order mark is not part of the first row.
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def _character_columns(group, classes):
    """The pairings with the classes of each distinct component-group
    character among the half-integral vectors, in the order of the first
    vector of each.  A vector xhat = m/2, m read as a bit mask, is accepted
    by kappa_from_s when sigma^T m = m mod 2: the masks form a GF(2) space
    A.  The pairing of m with a class is (-1)^(m . lambda), lambda the
    class's representative, so m's column is fixed by the parities of
    m . g at the generators g, a linear map on A.  The masks of one column
    are a coset of its kernel K, and the first is the one with a 0 at every
    pivot of K's reduced echelon basis.  The complement masks come from the
    same reduced elimination, so they and their sums have those 0s."""
    torus = group.torus
    n = torus.lattice_rank
    sigma = torus.involution
    generators = group.generators

    def moved(j):
        """The bits of (sigma^T - 1) e_j mod 2."""
        return sum(1 << i for i in range(n) if (sigma[j][i] - (i == j)) % 2)

    def character(m):
        """The bits of m . g mod 2 over the generators g."""
        return sum(
            1 << p for p, g in enumerate(generators)
            if sum(g[j] for j in range(n) if m >> j & 1) % 2
        )

    admissible, _ = _gf2_split([(moved(j), 1 << j) for j in range(n)], n)
    _, complement = _gf2_split([(character(m), m) for m in admissible], n)
    cosets = [0]
    for c in complement:
        cosets += [m ^ c for m in cosets]
    columns = []
    for m in sorted(cosets):
        xhat = tuple(Fraction(1, 2) if m >> j & 1 else Fraction(0) for j in range(n))
        kap = kappa_from_s(xhat, torus)
        columns.append(tuple(tate_nakayama_pair(cls, kap) for cls in classes))
    return columns


def _gf2_split(pairs, width):
    """Elimination over GF(2) of (key, mask) pairs, both bit sets, the masks
    independent and below 2^width, as one reduced echelon basis of the
    vectors key << width | mask: the masks of its vectors whose keys cancel,
    a reduced echelon basis of those combinations, and the masks of the
    others, which complete it to a basis of all combinations and have a 0
    at each of its pivots."""
    low = (1 << width) - 1
    basis = gf2_basis(key << width | mask for key, mask in pairs)
    return [b for b in basis if b <= low], [b & low for b in basis if b > low]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="endotransfer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity verification on sampled pairs")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--samples", type=_count, default=100)
    p_verify.add_argument("--seed", type=_count, default=0)
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
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output, as `| head` does.  Point it at
        # devnull, so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
