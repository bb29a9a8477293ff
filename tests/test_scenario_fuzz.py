"""Hypothesis fuzz of the scenario loader.  On arbitrary text
parse_scenario returns a Scenario or raises ScenarioError; on a shipped
file with one line replaced by drawn text, so does parse_scenario followed
by build_scenario.  Nothing else escapes."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from endotransfer.scenario import (
    Scenario,
    ScenarioError,
    build_scenario,
    builtin_scenario_path,
    parse_scenario,
)

# A shipped file with an identity word for the real Weyl extras of H.
LINES = builtin_scenario_path("sl2xsl2_mixed").read_text(encoding="utf-8").splitlines() + [
    "[real_weyl_extras]",
    "h = 1 1",
]

# Keys, section headers and value characters of the format, so that drawn
# lines reach the value parsers and not only the 'key = value' split.
KEYS = ("name", "g_type", "form_scale", "alpha1", "alpha2", "alpha3", "x_h", "x_g", "g", "h")
SECTIONS = ("[grading_g]", "[grading_h]", "[s_character]", "[base_point]", "[real_weyl_extras]", "[]")
VALUES = st.one_of(
    st.text(alphabet="0123456789/-+ ,.e_xaA#=", max_size=16),
    st.sampled_from(("compact", "noncompact", "A1xA1", "B3", "G2", "A5", "+1", "-1", "1/0")),
)
LINE = st.one_of(
    st.text(max_size=40),
    st.sampled_from(SECTIONS),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS), VALUES),
)


def _loads_or_refuses(text, build=False):
    try:
        config = parse_scenario(text)
        assert isinstance(config, Scenario)
        if build:
            build_scenario(config)
    except ScenarioError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(LINE, max_size=12).map("\n".join) | st.text())
def test_parser_on_arbitrary_text(text):
    _loads_or_refuses(text)


@st.composite
def one_line_replaced(draw):
    """The file with one line replaced by a drawn line or, half the time
    when it is a 'key = value' line, by the same key with a drawn value."""
    index = draw(st.integers(0, len(LINES) - 1))
    key, eq, _ = LINES[index].partition("=")
    line = LINE
    if eq:
        line = st.one_of(LINE, VALUES.map(lambda v: f"{key.strip()} = {v}"))
    lines = list(LINES)
    lines[index] = draw(line)
    return "\n".join(lines)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(one_line_replaced())
def test_loader_on_a_shipped_file_with_one_line_replaced(text):
    _loads_or_refuses(text, build=True)
