"""Batch verification runs with seeded sampling and stable reports.

The machine report format is versioned (v1) and line-oriented; numeric
fields use repr round-tripping so that parsing a report reproduces the
values bit-exactly.  Identical (scenario, samples, seed, tolerance) inputs
produce byte-identical machine reports.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .cohomology import DUALITY_CONVENTION
from .distributions import EllipticScenario, require_tolerance, verify_identity
from .endoscopy import EllipticElement
from .lattice import dot_in_order
from .record import Record
from .rootdata import RootDatum

FORMAT_VERSION = 1
SAMPLING_BOX = 3.0
WALL_MARGIN = 1e-3

CONVENTIONS = (
    ("fourier_kernel", "exp(+i<.,.>) with <iu,iv> = -B(u,v), B positive definite"),
    ("a_data", "a_alpha = i * ratio with default ratio 1 on positive roots"),
    ("measure", "no extra 1/|W_real| factor in the kernel normalization"),
    ("weil_constant", "signature (p,q) -> exp(i*pi*(p-q)/4)"),
    ("duality_sign", DUALITY_CONVENTION),
    ("torus_twist", "compact-Cartan realization t_q = e(-rho_check/2)"),
    ("base_normalization", "transfer factor equals base_value on the base diagram"),
)


class PairRecord(Record):
    __slots__ = _fields = ("index", "x_h", "x_g", "report")


# The one dataclass the CLI imports: perfbench/pass_runner.py shortens a
# RunReport with dataclasses.replace.  Every other record is a Record,
# whose class generates no code when the package is imported.
@dataclass(frozen=True)
class RunReport:
    scenario: str
    samples: int
    seed: int
    tolerance: float
    records: tuple[PairRecord, ...]
    base_x_h: tuple[float, ...] = ()
    base_x_g: tuple[float, ...] = ()
    format_version: int = FORMAT_VERSION

    @property
    def pass_count(self) -> int:
        return sum(1 for r in self.records if r.report.passed)

    @property
    def max_abs_error(self) -> float:
        return max((r.report.abs_error for r in self.records), default=0.0)

    @property
    def max_termwise(self) -> float:
        return max((r.report.termwise_max for r in self.records), default=0.0)

    @property
    def all_passed(self) -> bool:
        return self.pass_count == len(self.records)


def sample_regular_vector(scenario: EllipticScenario, rng: random.Random) -> tuple[float, ...]:
    """Uniform on the coordinate box, rejecting a wall margin relative to
    the vector norm."""
    datum = scenario.engine.g_datum
    while True:
        v = tuple(rng.uniform(-SAMPLING_BOX, SAMPLING_BOX) for _ in range(datum.rank))
        norm = max(1e-30, dot_in_order(v, v) ** 0.5)
        ok = True
        for alpha in datum.positive_roots:
            val = dot_in_order(alpha, v)
            if abs(val) < WALL_MARGIN * norm:
                ok = False
                break
        if ok:
            return v


def phase_bound(datum: RootDatum, points) -> float:
    """A bound on |B(u, v)| for u and v on verify's sampling box, among the
    given points, or Weyl images of these.  B is Weyl-invariant and positive
    definite, so by Cauchy-Schwarz the largest B(u, u) bounds it; on the
    box, a convex function, B(u, u) is largest at a corner.  In floats,
    the datum's float_form: a bound that overflows is inf, which refuses
    every scale."""
    form = datum.float_form

    def square(u) -> float:
        u = [float(c) for c in u]
        return dot_in_order(u, [dot_in_order(row, u) for row in form])

    corners = itertools.product((-SAMPLING_BOX, SAMPLING_BOX), repeat=datum.rank)
    return max(square(u) for u in itertools.chain(corners, points))


class PrecisionError(ValueError):
    """The scenario's form_scale is too large for its phases to be computed
    in floats to within the tolerance."""


def precision_floor(scenario: EllipticScenario) -> float:
    """scale * B_max * 2^-52, B_max the scenario's phase_bound: the size of
    the last bit of the largest phase scale * B(u, v) that verify meets."""
    return float(scenario.form_scale) * scenario.phase_bound * 2.0**-52


def run_verify(
    scenario: EllipticScenario,
    samples: int,
    seed: int,
    tolerance: float = 1e-12,
) -> RunReport:
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    # random.Random(seed) seeds with |seed|, so -n would draw the pairs of n.
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    require_tolerance(tolerance)
    floor = precision_floor(scenario)
    if floor > tolerance / 4:
        raise PrecisionError(
            f"form_scale {float(scenario.form_scale):.3g} cannot meet the tolerance "
            f"{tolerance:.3g}: the phases it gives round by up to {floor:.3g}, "
            f"above tolerance/4"
        )
    rng = random.Random(seed)
    records = []
    for idx in range(samples):
        x_h = sample_regular_vector(scenario, rng)
        x_g = sample_regular_vector(scenario, rng)
        report = verify_identity(scenario, EllipticElement(x_h), EllipticElement(x_g), tolerance)
        records.append(PairRecord(idx, x_h, x_g, report))
    base = scenario.engine.base_diagram
    return RunReport(
        scenario=scenario.name,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        records=tuple(records),
        base_x_h=base.x_h.floats(),
        base_x_g=base.x_g.floats(),
    )


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _fmt_vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def emit_report(report: RunReport, fmt: str = "machine") -> str:
    if fmt == "machine":
        return _emit_machine(report)
    if fmt == "human":
        return _emit_human(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _emit_machine(report: RunReport) -> str:
    lines = [
        "# endotransfer verification report",
        f"format_version = {report.format_version}",
        f"scenario = {report.scenario}",
        f"samples = {report.samples}",
        f"seed = {report.seed}",
        f"tolerance = {report.tolerance!r}",
    ]
    for key, value in CONVENTIONS:
        lines.append(f"convention.{key} = {value}")
    lines.append(f"convention.base_point = xh={_fmt_vec(report.base_x_h)} xg={_fmt_vec(report.base_x_g)}")
    for r in report.records:
        lines.append(
            "record = "
            f"{r.index} | xh={_fmt_vec(r.x_h)} | xg={_fmt_vec(r.x_g)} | "
            f"lhs={_fmt_complex(r.report.lhs)} | rhs={_fmt_complex(r.report.rhs)} | "
            f"abs_error={r.report.abs_error!r} | termwise_max={r.report.termwise_max!r}"
        )
    lines.append(f"summary.pass_count = {report.pass_count}")
    lines.append(f"summary.total = {len(report.records)}")
    lines.append(f"summary.max_abs_error = {report.max_abs_error!r}")
    lines.append(f"summary.max_termwise = {report.max_termwise!r}")
    lines.append(f"status = {'PASS' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _emit_human(report: RunReport) -> str:
    rows = [
        f"scenario {report.scenario}: {report.samples} pairs, seed {report.seed}, "
        f"tolerance {report.tolerance:g}",
        f"{'pair':>5} {'abs error':>14} {'termwise max':>14} {'status':>8}",
    ]
    for r in report.records:
        rows.append(
            f"{r.index:>5} {r.report.abs_error:>14.3e} {r.report.termwise_max:>14.3e} "
            f"{'ok' if r.report.passed else 'FAIL':>8}"
        )
    rows.append(
        f"summary: {report.pass_count}/{len(report.records)} passed, "
        f"max abs error {report.max_abs_error:.3e}, status "
        f"{'PASS' if report.all_passed else 'FAIL'}"
    )
    return "\n".join(rows) + "\n"


class ParsedRecord(Record):
    __slots__ = _fields = ("index", "x_h", "x_g", "lhs", "rhs", "abs_error", "termwise_max")


def parse_machine_report(text: str) -> dict:
    """Round-trip parser for the machine format; numeric fields bit-exact."""
    out: dict = {"records": [], "conventions": {}}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, value = (p.strip() for p in line.split("=", 1))
        if key == "record":
            fields = [p.strip() for p in value.split("|")]
            index = int(fields[0])
            data = {}
            for f in fields[1:]:
                k, v = f.split("=", 1)
                data[k.strip()] = v.strip()
            xh = tuple(float(p) for p in data["xh"].split())
            xg = tuple(float(p) for p in data["xg"].split())
            lr, li = (float(p) for p in data["lhs"].split(","))
            rr, ri = (float(p) for p in data["rhs"].split(","))
            out["records"].append(
                ParsedRecord(
                    index,
                    xh,
                    xg,
                    complex(lr, li),
                    complex(rr, ri),
                    float(data["abs_error"]),
                    float(data["termwise_max"]),
                )
            )
        elif key.startswith("convention."):
            out["conventions"][key[len("convention."):]] = value
        else:
            out[key] = value
    return out
