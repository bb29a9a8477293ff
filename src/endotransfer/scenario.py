"""Scenario files: a line-oriented `key = value` format with [sections].

A scenario fixes the ambient Cartan type, the real form gradings for both
groups, the order-2 character cutting out the endoscopic group, a base
point with an identity diagram, and optional extra real-Weyl generators
for H.  Parsing reports every violation, an unknown key or section among
them, with its line number and the name of the violated invariant.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .distributions import EllipticScenario, make_scenario
from .endoscopy import (
    EllipticElement,
    EndoscopyError,
    TransferFactorEngine,
    build_endoscopic_datum,
    require_regular,
)
from .realform import GradingError, build_grading, parse_grade, real_weyl_group
from .record import MutableRecord
from .rootdata import RootDatumError, build_root_datum
from .verify import phase_bound


class ScenarioError(ValueError):
    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = problems
        lines = "; ".join(f"line {n}: {msg}" for n, msg in problems)
        super().__init__(lines)


class Scenario(MutableRecord):
    """A parsed scenario file.  lines maps each key of the top,
    [base_point] and [real_weyl_extras] sections that the file sets, and
    each section header in brackets, to its line; the loader's refusals
    name these lines, 0 for an entry the file leaves out."""

    __slots__ = _fields = (
        "name", "g_type", "form_scale", "grading_g", "s_character", "grading_h",
        "base_x_h", "base_x_g", "extras_h", "lines",
    )


# Fraction(text) builds 10**e for a decimal exponent e, so e is bounded
# from the text first.  A mantissa has at most 4300 digits (int's limit on
# conversions from str), so beyond this bound a nonzero value is always
# above the float range or below it; a zero mantissa is refused there too.
_MAX_EXPONENT = 5000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

# The largest scale * B(u, v) the routes may meet: half the largest float,
# so that rounding in the float contraction cannot carry it past.
_MAX_PHASE = sys.float_info.max / 2

# The keys each section reads; the sections of simple-root entries read
# alpha1, alpha2, ... instead.
_KEYS = {
    "": ("name", "g_type", "form_scale"),
    "base_point": ("x_h", "x_g"),
    "real_weyl_extras": ("h",),
}
_SIMPLE_ROOT_SECTIONS = ("grading_g", "s_character", "grading_h")
_ALPHA = re.compile(r"alpha[1-9][0-9]*\Z")


def _rational(text: str) -> Fraction:
    """Fraction(text); a zero denominator, or a value out of the range of
    the float the routes take of it (too large, or nonzero but 0.0), is a
    ValueError as well."""
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
        raise ValueError(f"{text!r} has an exponent beyond {_MAX_EXPONENT}, out of a float's range")
    try:
        value = Fraction(text)
        as_float = float(value)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{text!r} has a zero denominator or is too large for a float")
    if value and not as_float:
        raise ValueError(f"{text!r} is too small for a float")
    return value


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    items = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(_rational(p) for p in items)


def _parse_words(lineno: int, text: str, problems: list) -> list[tuple[int, ...]]:
    """Comma-separated words in the simple reflections, letters numbered
    from 1, as 0-based index tuples; a bad word is a problem at its line."""
    words = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            letters = tuple(int(p) for p in chunk.split())
        except ValueError:
            letters = ()
        if not letters or min(letters) < 1:
            problems.append(
                (lineno, f"real_weyl_extras h: word {chunk!r} must be simple root numbers 1, 2, ...")
            )
            continue
        words.append(tuple(i - 1 for i in letters))
    return words


def _unknown_key(section: str, key: str) -> str:
    if section == "real_weyl_extras" and key == "g":
        return "real_weyl_extras g: G's real Weyl group is W_K; only h extras are read"
    where = f"[{section}]" if section else "the top section"
    return f"unknown key {key!r} in {where}"


def parse_scenario(text: str) -> Scenario:
    problems: list[tuple[int, str]] = []
    # The top section is "", and None an unknown section, whose header is
    # the problem reported and whose keys are not read.
    section: str | None = ""
    sections: dict[str, dict[str, tuple[int, str]]] = {"": {}}
    # The line of each section's first header.
    headers: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section and (section in _KEYS or section in _SIMPLE_ROOT_SECTIONS):
                sections.setdefault(section, {})
                headers.setdefault(section, lineno)
            else:
                problems.append((lineno, f"unknown section {line!r}"))
                section = None
            continue
        if "=" not in line:
            problems.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        if section is None:
            continue
        key, value = (p.strip() for p in line.split("=", 1))
        if not (_ALPHA.match(key) if section in _SIMPLE_ROOT_SECTIONS else key in _KEYS[section]):
            problems.append((lineno, _unknown_key(section, key)))
            continue
        store = sections[section]
        if key in store:
            problems.append((lineno, f"duplicate key {key!r}"))
        store[key] = (lineno, value)

    def need(store, key, where):
        if key not in store:
            problems.append((0, f"missing key {key!r} in {where}"))
            return None
        return store[key]

    top = sections[""]
    name = top.get("name", (0, "unnamed"))[1]
    g_entry = need(top, "g_type", "the top section")
    g_type = g_entry[1] if g_entry else "A1"
    form_scale = Fraction(1)
    if "form_scale" in top:
        lineno, value = top["form_scale"]
        try:
            form_scale = _rational(value)
            if form_scale <= 0:
                problems.append((lineno, "form_scale must be positive"))
        except ValueError:
            problems.append((lineno, f"bad rational {value!r}"))

    def simple_root_entries(section_name, parse) -> list:
        """parse of the values of alpha1, alpha2, ..., alphaN, N the number
        of entries; an entry numbered above N is a problem at its line."""
        store = sections.get(section_name, {})
        keys = [f"alpha{k}" for k in range(1, len(store) + 1)]
        missing = [key for key in keys if key not in store]
        for key, (lineno, _) in store.items():
            if key not in keys:
                problems.append((lineno, f"{key!r} in [{section_name}] without {missing[0]!r}"))
        out = []
        for key in keys:
            if key in store:
                lineno, value = store[key]
                try:
                    out.append(parse(value))
                except ValueError as e:
                    problems.append((lineno, str(e)))
        return out

    def character_sign(value: str) -> int:
        if value not in ("1", "+1", "-1"):
            raise ValueError(f"character sign must be +1 or -1, got {value!r}")
        return 1 if value in ("1", "+1") else -1

    grading_g = simple_root_entries("grading_g", parse_grade)
    s_character = simple_root_entries("s_character", character_sign)
    grading_h = simple_root_entries("grading_h", parse_grade)

    base = sections.get("base_point", {})
    points = {}
    for key in ("x_h", "x_g"):
        entry = need(base, key, "[base_point]")
        if entry:
            lineno, value = entry
            try:
                points[key] = _parse_vector(value)
            except ValueError:
                problems.append((lineno, f"bad rational vector {value!r}"))

    extras_h_line, words = sections.get("real_weyl_extras", {}).get("h", (0, ""))
    extras_h = _parse_words(extras_h_line, words, problems)

    if problems:
        raise ScenarioError(problems)
    # The keys of the simple-root sections, alpha1, alpha2, ..., repeat from
    # section to section; refusals name those sections by their headers.
    lines = {f"[{section}]": lineno for section, lineno in headers.items()}
    for section, store in sections.items():
        if section not in _SIMPLE_ROOT_SECTIONS:
            lines.update((key, lineno) for key, (lineno, _) in store.items())
    return Scenario(
        name=name,
        g_type=g_type,
        form_scale=form_scale,
        grading_g=grading_g,
        s_character=s_character,
        grading_h=grading_h,
        base_x_h=points.get("x_h", ()),
        base_x_g=points.get("x_g", ()),
        extras_h=extras_h,
        lines=lines,
    )


def build_scenario(config: Scenario, base_value: complex = 1.0) -> EllipticScenario:
    """Assemble and validate the full verification scenario."""
    problems: list[tuple[int, str]] = []
    try:
        g_datum = build_root_datum(config.g_type)
    except RootDatumError as e:
        raise ScenarioError([(0, f"g_type: {e}")])

    line = config.lines.get
    if len(config.grading_g) != len(g_datum.simple_roots):
        problems.append((line("[grading_g]", 0), "grading_g does not match the number of simple roots"))
    if len(config.s_character) != len(g_datum.simple_roots):
        problems.append((line("[s_character]", 0), "s_character does not match the number of simple roots"))
    if problems:
        raise ScenarioError(problems)

    grading_g = build_grading(g_datum, config.grading_g)
    datum = build_endoscopic_datum(g_datum, config.s_character)

    n_h_simple = len(datum.h_datum.simple_roots)
    if len(config.grading_h) != n_h_simple:
        raise ScenarioError([(
            line("[grading_h]", 0),
            f"grading_h needs {n_h_simple} entries for the derived endoscopic simple roots",
        )])
    grading_h = build_grading(datum.h_datum, config.grading_h)

    for word in config.extras_h:
        if any(i >= n_h_simple for i in word):
            raise ScenarioError([(
                line("h", 0),
                f"real_weyl_extras h: word {' '.join(str(i + 1) for i in word)!r} "
                f"uses a simple root number above {n_h_simple}",
            )])
    # G is simply connected, so its real Weyl group is W_K, which the compact
    # reflections generate; only H takes extras.
    try:
        extras_h = tuple(datum.h_datum.element_from_word(word) for word in config.extras_h)
        rw_g = real_weyl_group(grading_g)
        rw_h = real_weyl_group(grading_h, extras_h)
    except (GradingError, RootDatumError) as e:
        raise ScenarioError([(0, f"real Weyl group: {e}")])

    problems = [
        (line(key, 0), "base_point vectors must have length equal to the rank")
        for key, point in (("x_h", config.base_x_h), ("x_g", config.base_x_g))
        if len(point) != g_datum.rank
    ]
    if problems:
        raise ScenarioError(problems)
    bound = phase_bound(g_datum, (config.base_x_h, config.base_x_g))
    if float(config.form_scale) * bound > _MAX_PHASE:
        raise ScenarioError([(
            line("form_scale", 0),
            f"form_scale {float(config.form_scale):.3g} can overflow a float: "
            f"|B(u, v)| reaches {float(bound):.3g} on the sampling box and the base points",
        )])
    try:
        engine = TransferFactorEngine(
            datum,
            grading_g,
            grading_h,
            rw_g,
            rw_h,
            EllipticElement(config.base_x_h),
            EllipticElement(config.base_x_g),
            base_value=base_value,
        )
    except EndoscopyError as e:
        lineno = _base_point_line(config, g_datum) if str(e).startswith("regularity/base diagram") else 0
        raise ScenarioError([(lineno, f"violated invariant: {e}")])

    scenario = make_scenario(config.name, engine, config.form_scale)
    scenario.phase_bound = bound
    return scenario


def _base_point_line(config: Scenario, g_datum) -> int:
    """The line of the base point a base-diagram refusal names: x_h's when
    it lies on a wall, else x_g's, which lies on one or is not x_h."""
    try:
        require_regular(g_datum, EllipticElement(config.base_x_h))
    except EndoscopyError:
        return config.lines.get("x_h", 0)
    return config.lines.get("x_g", 0)


def load_scenario_file(path, base_value: complex = 1.0) -> EllipticScenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # A UTF-8 byte-order mark is read as the start of the text, not as
        # part of its first line.
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        # The codec's offsets start after the mark it strips.
        start = e.start + len(data) - len(e.object)
        line = data.count(b"\n", 0, start) + 1
        raise ScenarioError([(line, f"{path} is not UTF-8 text: {e.reason} at byte {start}")]) from None
    return build_scenario(parse_scenario(text), base_value=base_value)


def builtin_scenario_path(name: str):
    from importlib.resources import files

    return files("endotransfer").joinpath("scenarios", f"{name}.scn")


def load_builtin(name: str, base_value: complex = 1.0) -> EllipticScenario:
    text = builtin_scenario_path(name).read_text(encoding="utf-8")
    return build_scenario(parse_scenario(text), base_value=base_value)
