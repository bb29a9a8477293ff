"""Hypothesis fuzz of the command line.  cli.main on verify, factors and
orbits with drawn options and vectors returns 0, 1 or 2, or argparse exits
with 2; 1 comes only from verify, when a pair fails.  Nothing else
escapes."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from endotransfer import cli
from endotransfer.scenario import builtin_scenario_path

SCENARIOS = ("sl2_endoscopy", "sl2_compact", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")


# True seven times in eight.
MOSTLY = st.sampled_from((True,) * 7 + (False,))


def _mostly(good, bad):
    """good mostly, so that most command lines get past the option checks."""
    return MOSTLY.flatmap(lambda ok: good if ok else bad)


# Coordinates the rational parser must read or refuse: small rationals,
# drawn text of its alphabet, and values out of a float's range.
FRACTION = st.fractions(min_value=-5, max_value=5, max_denominator=12).map(str)
NUMBER = st.one_of(
    FRACTION,
    st.text(alphabet="0123456789/-+.e_ ", min_size=1, max_size=8),
    st.sampled_from(("0", "1/0", "nan", "inf", "1e400", "1e-400", "1e10000000", "1e-10000000")),
)
VECTOR = _mostly(
    st.lists(FRACTION, min_size=1, max_size=2).map(", ".join),
    st.one_of(st.lists(NUMBER, max_size=3).map(", ".join), st.text(max_size=10)),
)

# verify's options; counts stay small so that an example runs in a blink.
SAMPLES = _mostly(st.integers(0, 12).map(str), st.sampled_from(("-1", "1.5", "x", "")))
SEED = _mostly(st.integers(-5, 5).map(str), st.sampled_from(("1.5", "x", "")))
TOL = _mostly(
    st.one_of(st.sampled_from(("0", "1e-12", "1e-3")), st.floats(0, 1e-6).map(repr)),
    st.sampled_from(("-1", "nan", "inf", "1e400", "abc")),
)
FORMAT = _mostly(st.sampled_from(("human", "machine")), st.just("xml"))

OPTIONS = {
    "verify": (("--samples", SAMPLES), ("--seed", SEED), ("--tol", TOL), ("--format", FORMAT)),
    "factors": (("--xh", VECTOR), ("--xg", VECTOR)),
    "orbits": (("--xg", VECTOR),),
}


@st.composite
def command_lines(draw):
    """A command, a shipped scenario and each of the command's options with
    a drawn value or, now and then, left out (for factors and orbits, a
    required option left out is argparse's exit 2)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    path = str(builtin_scenario_path(draw(st.sampled_from(SCENARIOS))))
    argv = [command, path]
    for option, values in OPTIONS[command]:
        if draw(MOSTLY):
            argv.append(f"{option}={draw(values)}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_cli_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            assert e.code == 2, (argv, err.getvalue())
            code = 2
    assert code in (0, 1, 2), argv
    assert code != 1 or argv[0] == "verify", argv
    assert "Traceback" not in err.getvalue(), argv
