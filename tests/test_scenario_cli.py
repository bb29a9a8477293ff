import importlib.util
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import endotransfer

from endotransfer.scenario import (
    ScenarioError,
    build_scenario,
    builtin_scenario_path,
    load_builtin,
    load_scenario_file,
    parse_scenario,
)
from endotransfer import cli
from endotransfer.verify import (
    PrecisionError,
    emit_report,
    parse_machine_report,
    precision_floor,
    run_verify,
)

from oracles import BruteForceH1
from test_cohomology import involution_zoo

GOLDEN = builtin_scenario_path("sl2_endoscopy").read_text(encoding="utf-8")


def test_parse_golden_file():
    cfg = parse_scenario(GOLDEN)
    assert cfg.name == "sl2_endoscopy"
    assert cfg.g_type == "A1"
    assert cfg.s_character == [-1]
    assert cfg.grading_g == [1]  # noncompact
    assert cfg.base_x_h == (Fraction(1),)


def test_parse_reports_line_numbers():
    bad = GOLDEN.replace("alpha1 = -1", "alpha1 == -1")
    # the mangled line parses as key 'alpha1 =' with value '-1'? ensure an error
    bad2 = GOLDEN + "\nstray line without equals\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(bad2)
    assert any("stray line" in msg for _, msg in exc.value.problems)
    lineno = [n for n, _ in exc.value.problems][0]
    assert lineno == len(bad2.splitlines())


def test_parse_rejects_bad_grade_and_sign():
    bad = GOLDEN.replace("alpha1 = noncompact", "alpha1 = sideways")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)
    bad = GOLDEN.replace("alpha1 = -1", "alpha1 = 2")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_build_rejects_wall_base_point():
    text = GOLDEN.replace("x_h = 1", "x_h = 0").replace("x_g = 1", "x_g = 0")
    with pytest.raises(ScenarioError) as exc:
        build_scenario(parse_scenario(text))
    assert any("regularity" in msg for _, msg in exc.value.problems)


def test_build_rejects_mismatched_base_point():
    text = GOLDEN.replace("x_g = 1", "x_g = 2")
    with pytest.raises(ScenarioError) as exc:
        build_scenario(parse_scenario(text))
    assert any("base diagram" in msg for _, msg in exc.value.problems)


def test_build_rejects_wrong_h_grading_count():
    text = GOLDEN.replace("[base_point]", "[grading_h]\nalpha1 = compact\n\n[base_point]")
    with pytest.raises(ScenarioError) as exc:
        build_scenario(parse_scenario(text))
    assert any("grading_h" in msg for _, msg in exc.value.problems)


def _all_noncompact_text(g_type, rank):
    """A scenario of the given type with every simple root noncompact and
    s trivial, so that H = G."""
    simple = [f"alpha{k + 1}" for k in range(rank)]
    point = ", ".join(f"1/{2 * k + 1}" for k in range(rank))
    return "\n".join([
        "name = no_minus_one",
        f"g_type = {g_type}",
        "[grading_g]", *(f"{a} = noncompact" for a in simple),
        "[s_character]", *(f"{a} = 1" for a in simple),
        "[grading_h]", *(f"{a} = noncompact" for a in simple),
        "[base_point]", f"x_h = {point}", f"x_g = {point}",
    ]) + "\n"


def test_non_elliptic_scenario_refused(tmp_path):
    """A type without -1 in its Weyl group is refused by that invariant and
    by name, since the engine normalizes through n(omega) with omega = -1;
    its real forms, su(p, q) among them, do have a compact Cartan.  The CLI
    exits 2 with the same reason."""
    for g_type, rank, label in (
        ("A2", 2, "A2"), ("A3", 3, "A3"), ("A4", 4, "A4"), ("A1xA2", 3, "A1×A2"), ("A2xA2", 4, "A2×A2"),
    ):
        with pytest.raises(ScenarioError) as exc:
            build_scenario(parse_scenario(_all_noncompact_text(g_type, rank)))
        assert exc.value.problems == [(0, (
            f"violated invariant: -1 in the Weyl group: {label} has no Weyl element acting by -1, "
            "and the transfer factor is normalized through n(omega) with omega = -1"
        ))], g_type
    scn = tmp_path / "a2.scn"
    scn.write_text(_all_noncompact_text("A2", 2), encoding="utf-8")
    res = _run_cli("verify", str(scn), "--samples", "1")
    assert res.returncode == 2 and "Traceback" not in res.stderr
    assert "A2 has no Weyl element acting by -1" in res.stderr
    assert "elliptic" not in res.stderr and "regularity" not in res.stderr


def test_run_verify_zero_samples_vacuous_pass():
    sc = load_builtin("sl2_endoscopy")
    report = run_verify(sc, 0, 1)
    assert report.all_passed and report.pass_count == 0
    text = emit_report(report, "machine")
    parsed = parse_machine_report(text)
    assert parsed["status"] == "PASS"
    assert parsed["records"] == []


def test_run_verify_refuses_negative_samples():
    sc = load_builtin("sl2_endoscopy")
    with pytest.raises(ValueError, match="samples"):
        run_verify(sc, -3, 1)


def test_run_verify_refuses_a_negative_seed():
    """random.Random seeds with |seed|, so seed -7 would draw the pairs of
    seed 7 under another name in the report."""
    sc = load_builtin("sl2_endoscopy")
    with pytest.raises(ValueError, match="seed must be nonnegative, got -7"):
        run_verify(sc, 2, -7)


@pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), -1.0])
def test_run_verify_refuses_a_tolerance_outside_zero_to_infinity(tolerance):
    """inf would pass every pair and nan fail every pair, each without a
    message; -1 would be refused for a form_scale it does not depend on.
    Each is refused by name, as the CLI's --tol refuses it."""
    sc = load_builtin("sl2_compact")
    message = f"tolerance must be a nonnegative finite number, got {tolerance!r}"
    with pytest.raises(ValueError, match=message) as err:
        run_verify(sc, 3, 1, tolerance)
    assert not isinstance(err.value, PrecisionError)


def test_reports_deterministic_and_roundtrip():
    sc = load_builtin("sl2_endoscopy")
    r1 = run_verify(sc, 7, 42)
    sc2 = load_builtin("sl2_endoscopy")
    r2 = run_verify(sc2, 7, 42)
    t1 = emit_report(r1, "machine")
    t2 = emit_report(r2, "machine")
    assert t1 == t2  # byte identical
    parsed = parse_machine_report(t1)
    for rec, orig in zip(parsed["records"], r1.records):
        assert rec.x_h == orig.x_h
        assert rec.x_g == orig.x_g
        assert rec.lhs == orig.report.lhs
        assert rec.rhs == orig.report.rhs
        assert rec.abs_error == orig.report.abs_error
        assert rec.termwise_max == orig.report.termwise_max
    assert parsed["conventions"]["duality_sign"]
    different = emit_report(run_verify(load_builtin("sl2_endoscopy"), 7, 43), "machine")
    assert different != t1


def test_human_report_contains_summary():
    sc = load_builtin("sl2_endoscopy")
    text = emit_report(run_verify(sc, 3, 1), "human")
    assert "summary:" in text and "PASS" in text


def _run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "endotransfer.cli", *args]
    full_env = dict(os.environ)
    # The CLI runs the package the tests import, installed or not.
    src = str(Path(endotransfer.__file__).resolve().parents[1])
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in (src, full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


def test_cli_verify_pass_and_exit_codes(tmp_path):
    scn = str(builtin_scenario_path("sl2_endoscopy"))
    res = _run_cli("verify", scn, "--samples", "5", "--seed", "3", "--format", "machine")
    assert res.returncode == 0
    assert "status = PASS" in res.stdout

    bad = tmp_path / "broken.scn"
    bad.write_text(GOLDEN + "\nnonsense\n", encoding="utf-8")
    res = _run_cli("verify", str(bad))
    assert res.returncode == 2


def test_cli_factors_and_orbits():
    scn = str(builtin_scenario_path("sl2_endoscopy"))
    res = _run_cli("factors", scn, "--xh", "3/2", "--xg=-3/2")
    assert res.returncode == 0
    assert "transfer factor = -1" in res.stdout
    res = _run_cli("factors", scn, "--xh", "3/2", "--xg", "5")
    assert "transfer factor = 0" in res.stdout

    res = _run_cli("orbits", scn, "--xg", "1")
    assert res.returncode == 0
    assert "splits into 2 rational classes" in res.stdout


def test_cli_h1_command(tmp_path):
    lat = tmp_path / "circle.lat"
    lat.write_text("-1\n", encoding="utf-8")
    res = _run_cli("h1", str(lat))
    assert res.returncode == 0
    assert "Z/2" in res.stdout


@pytest.mark.parametrize("rank, table", [(8, True), (9, False), (12, False)])
def test_cli_h1_table_limit(tmp_path, capsys, rank, table):
    """-1 on Z^rank has H^1 of order 2^rank.  The pairing table is printed
    up to 256 classes and left out above; either way the command returns
    within seconds."""
    lat = tmp_path / "minus.lat"
    lat.write_text(
        "".join(" ".join("-1" if i == j else "0" for j in range(rank)) + "\n" for i in range(rank)),
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert cli.main(["h1", str(lat)]) == 0
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr().out
    assert f"(order {2 ** rank})" in out
    if table:
        assert out.count("\n  c") == 2 ** rank and f"k{2 ** rank - 1} " in out
    else:
        assert "pairing table left out: more than 256 classes" in out
        assert "\n  c" not in out


def _oracle_table(sigma):
    """The h1 table by the sign-point oracle: one sign cocycle per class,
    and the distinct character columns in increasing order of the mask
    m = sum_j 2^j (2 xhat_j) of their first vector."""
    oracle = BruteForceH1(sigma)
    classes = []
    for nu in sorted(oracle.cocycles):
        if not any(oracle.same_class(nu, c) for c in classes):
            classes.append(nu)
    masks = {sum(int(2 * x) << j for j, x in enumerate(xhat)): xhat for xhat in oracle.fixed_half_characters()}
    columns = []
    for m in sorted(masks):
        column = tuple(oracle.pairing(nu, masks[m]) for nu in classes)
        if column not in columns:
            columns.append(column)
    return oracle.order, list(zip(*columns))


@pytest.mark.parametrize("index", range(27))
def test_cli_h1_table_matches_the_oracle(tmp_path, capsys, index):
    """On each zoo lattice the printed group and table are the oracle's:
    the same order, and the same rows as a multiset, over the same columns
    in the same order; a row's label is free."""
    sigma = involution_zoo()[index]
    lat = tmp_path / "zoo.lat"
    lat.write_text("".join(" ".join(map(str, row)) + "\n" for row in sigma), encoding="utf-8")
    order, rows = _oracle_table(sigma)
    assert cli.main(["h1", str(lat)]) == 0
    lines = capsys.readouterr().out.splitlines()
    group = " x ".join(["Z/2"] * (order.bit_length() - 1)) or "trivial"
    assert lines[0] == f"H^1(R, T) = {group}  (order {order})"
    assert lines[2].split() == [f"k{j}" for j in range(len(rows[0]))]
    printed = [line.split() for line in lines[3:]]
    assert [row[0] for row in printed] == [f"c{i}" for i in range(order)]
    assert sorted(tuple(int(x) for x in row[1:]) for row in printed) == sorted(rows)


def _diagonal_lattice(path, plus, minus):
    """diag(+1 x plus, -1 x minus), written to path."""
    n = plus + minus
    signs = ["1"] * plus + ["-1"] * minus
    path.write_text(
        "".join(" ".join(signs[i] if i == j else "0" for j in range(n)) + "\n" for i in range(n)),
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("plus, minus", [(4, 8), (8, 8)])
def test_cli_h1_characters_without_scanning_every_vector(tmp_path, capsys, plus, minus):
    """diag(+1 x plus, -1 x minus) has H^1 of order 2^minus and every one of
    its 2^(plus + minus) half-integral vectors is a character; the leading
    +1 coordinates do not change a column.  All 256 columns come within
    seconds, from one vector per column."""
    lat = _diagonal_lattice(tmp_path / "diag.lat", plus, minus)
    start = time.perf_counter()
    assert cli.main(["h1", str(lat)]) == 0
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr().out
    assert "(order 256)" in out
    header = out.splitlines()[2].split()
    assert header == [f"k{j}" for j in range(256)]
    rows = [line.split() for line in out.splitlines()[3:]]
    assert len(rows) == 256 and all(len(row) == 257 for row in rows)
    assert len(set(zip(*(row[1:] for row in rows)))) == 256


def test_cli_closed_stdout_gives_no_traceback(tmp_path):
    """A reader that stops after one line, as `| head -1` does, ends the
    command with status 1 and nothing on stderr."""
    lat = _diagonal_lattice(tmp_path / "diag.lat", 2, 8)
    src = str(Path(endotransfer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "endotransfer.cli", "h1", str(lat)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"H^1(R, T) = ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"", err.decode()


def test_cli_env_tolerance(tmp_path):
    scn = str(builtin_scenario_path("sl2_endoscopy"))
    res = _run_cli(
        "verify", scn, "--samples", "2", "--seed", "1", "--format", "machine",
        env={"ENDOTRANSFER_TOL": "1e-3"},
    )
    assert res.returncode == 0
    assert "tolerance = 0.001" in res.stdout


@pytest.mark.parametrize(
    "args,env,named",
    [
        (("--samples", "-3"), None, "--samples"),
        (("--seed", "-7"), None, "--seed"),
        (("--tol", "nan"), None, "--tol"),
        ((), {"ENDOTRANSFER_TOL": "abc"}, "ENDOTRANSFER_TOL"),
        # A run of no pairs would print a PASS that checked nothing.
        (("--samples", "0"), None, "--samples"),
    ],
)
def test_cli_verify_refuses_bad_counts_and_tolerances(args, env, named):
    scn = str(builtin_scenario_path("sl2_endoscopy"))
    res = _run_cli("verify", scn, "--format", "machine", *args, env=env)
    assert res.returncode == 2
    assert named in res.stderr
    assert "status" not in res.stdout and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "command,args,named",
    [
        ("factors", ("--xh", "1, 2", "--xg", "abc"), "--xg"),
        ("factors", ("--xh", "1", "--xg", "1, 2"), "--xh"),
        ("orbits", ("--xg", "1, 2, 3"), "--xg"),
        ("orbits", ("--xg", "1e-10000000, 1"), "--xg"),
        ("factors", ("--xh", "1e10000000, 1", "--xg", "1e10000000, 1"), "--xh"),
        ("orbits", ("--xg", "1e-4500, 1"), "--xg"),
        # in a float's range, but w x has ~8000-digit denominators
        ("orbits", ("--xg", f"{10**4000}/{10**4000 + 1}, {10**4000}/{10**4000 + 3}"), "--xg"),
    ],
)
def test_cli_vectors_are_checked(command, args, named):
    """A vector option is read by the loader's rational parser: a value out
    of a float's range, above or below it, is refused within a second."""
    scn = str(builtin_scenario_path("sp4_endoscopy"))
    start = time.perf_counter()
    assert cli.main([command, scn, *args]) == 2
    assert time.perf_counter() - start < 1.0
    res = _run_cli(command, scn, *args)
    assert res.returncode == 2
    assert named in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "text,named",
    [
        ("0 1\n1 0 0\n", "line 2"),
        ("1 0 0\n0 1 0\n", "must be square"),
        ("a b\nc d\n", "integers"),
    ],
)
def test_cli_h1_refuses_malformed_matrices(tmp_path, text, named):
    lat = tmp_path / "bad.lat"
    lat.write_text(text, encoding="utf-8")
    res = _run_cli("h1", str(lat))
    assert res.returncode == 2
    assert named in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_cli_missing_files_exit_2(tmp_path):
    res = _run_cli("verify", str(tmp_path / "absent.scn"))
    assert res.returncode == 2 and "absent.scn" in res.stderr
    res = _run_cli("h1", str(tmp_path / "absent.lat"))
    assert res.returncode == 2 and "absent.lat" in res.stderr


@pytest.mark.parametrize(
    "command,suffix,args",
    [
        ("verify", ".scn", ()),
        ("factors", ".scn", ("--xh", "1", "--xg", "1")),
        ("orbits", ".scn", ("--xg", "1")),
        ("h1", ".lat", ()),
    ],
)
def test_cli_non_utf8_files_exit_2(tmp_path, command, suffix, args):
    """Bytes that are not UTF-8 (here a UTF-16 byte-order mark) are refused
    with the file's path, not a UnicodeDecodeError traceback."""
    path = tmp_path / f"not_utf8{suffix}"
    path.write_bytes(b"\xff\xfe" + GOLDEN.encode("utf-16-le"))
    res = _run_cli(command, str(path), *args)
    assert res.returncode == 2
    assert str(path) in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


MIXED = builtin_scenario_path("sl2xsl2_mixed").read_text(encoding="utf-8")
SP4 = builtin_scenario_path("sp4_endoscopy").read_text(encoding="utf-8")


def _without(text, line):
    return text.replace(f"{line}\n", "", 1)


def _with_extras(line, section="real_weyl_extras"):
    return MIXED.replace("[base_point]", f"[{section}]\n{line}\n\n[base_point]")


@pytest.mark.parametrize(
    "text,line",
    [
        (MIXED.replace("form_scale = 1", "form_scale = 1/0"), "form_scale = 1/0"),
        (MIXED.replace("x_h = 1, 1/2", "x_h = 1, 1/0"), "x_h = 1, 1/0"),
        (MIXED.replace("form_scale = 1", "form_scale = 1e400"), "form_scale = 1e400"),
        (MIXED.replace("x_g = 1, 1/2", "x_g = 1e400, 1/2"), "x_g = 1e400, 1/2"),
        (_with_extras("g = a b"), "g = a b"),
        (_with_extras("g = 0"), "g = 0"),
        (_with_extras("g = -1"), "g = -1"),
        (_with_extras("g = 3"), "g = 3"),
        (_with_extras("h = 0"), "h = 0"),
        (_with_extras("h = 2"), "h = 2"),
        (_with_extras("h = 1 x"), "h = 1 x"),
        (MIXED.replace("x_h = 1, 1/2", "x_h = 1e10000000, 1/2"), "x_h = 1e10000000, 1/2"),
        (MIXED.replace("form_scale = 1", "form_scale = 1e-10000000"), "form_scale = 1e-10000000"),
        (_with_extras("g = 1"), "g = 1"),
        (_with_extras("g = 1 1"), "g = 1 1"),
        (MIXED.replace("form_scale = 1", "form_scal = 2"), "form_scal = 2"),
        (_with_extras("h = 1 1", "real_weyl_extra"), "[real_weyl_extra]"),
        (MIXED.replace("x_g = 1, 1/2", "x_g = 1, 1/2\nx_k = 5"), "x_k = 5"),
        (_with_extras("k = 1"), "k = 1"),
        (MIXED.replace("[grading_h]\n", "[grading_h]\nbeta = compact\n"), "beta = compact"),
        (MIXED.replace("x_h = 1, 1/2", "x_h = 1, 1e-400"), "x_h = 1, 1e-400"),
        (MIXED.replace("form_scale = 1", "form_scale = 1e308"), "form_scale = 1e308"),
        # Count mismatches name their section's header.
        (_without(SP4, "alpha2 = noncompact"), "[grading_g]"),
        (SP4.replace("alpha2 = -1", "alpha2 = -1\nalpha3 = 1"), "[s_character]"),
        (_without(SP4, "alpha2 = compact"), "[grading_h]"),
        # A base point of the wrong length names its own line.
        (SP4.replace("x_h = 1, 1/3", "x_h = 1"), "x_h = 1"),
        (SP4.replace("x_g = 1, 1/3", "x_g = 1, 1/3, 1"), "x_g = 1, 1/3, 1"),
        # The base diagram: x_h on a wall, x_g on a wall, x_g not x_h.
        (SP4.replace("x_h = 1, 1/3", "x_h = 1, 1"), "x_h = 1, 1"),
        (SP4.replace("x_g = 1, 1/3", "x_g = 1, 1"), "x_g = 1, 1"),
        (SP4.replace("x_g = 1, 1/3", "x_g = 1, 1/4"), "x_g = 1, 1/4"),
    ],
)
def test_bad_scenario_values_name_their_line(tmp_path, text, line):
    """A zero denominator, a value out of a float's range (an exponent too
    large to build is refused from the text, within a second), a form_scale
    at which the phases can overflow a float, a real-Weyl word whose letters
    are not simple root numbers of H, any word for G, an unknown key or
    section, a simple-root section whose count does not match (at its
    header), a base point of the wrong length, and a base point on a wall
    or without an identity base diagram are refused at their own line,
    once, in process and by verify with exit 2."""
    lineno = text.splitlines().index(line) + 1
    start = time.perf_counter()
    with pytest.raises(ScenarioError) as exc:
        build_scenario(parse_scenario(text))
    assert time.perf_counter() - start < 1.0
    assert [n for n, _ in exc.value.problems] == [lineno]
    scn = tmp_path / "bad.scn"
    scn.write_text(text, encoding="utf-8")
    res = _run_cli("verify", str(scn), "--samples", "1")
    assert res.returncode == 2
    assert f"line {lineno}:" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "key,value,reason",
    [
        ("form_scale", "1e-400", "is too small for a float"),
        ("form_scale", "1/0", "has a zero denominator"),
        ("form_scale", "1e400", "has a zero denominator or is too large for a float"),
        ("x_h", "1/0", "has a zero denominator"),
        ("x_h", "1e-400", "is too small for a float"),
        ("x_h", "1e99999", "has an exponent beyond 5000"),
    ],
)
def test_a_refused_rational_names_its_reason(tmp_path, key, value, reason):
    """The loader keeps the reason the rational parser gives, after the
    line and the refused text, as the vector options do: exit 2, no
    traceback."""
    if key == "form_scale":
        good, entry, refusal = "1", value, "bad rational"
    else:
        good, entry, refusal = "1, 1/2", f"1, {value}", "bad rational vector"
    text = MIXED.replace(f"{key} = {good}", f"{key} = {entry}")
    lineno = text.splitlines().index(f"{key} = {entry}") + 1
    scn = tmp_path / "bad.scn"
    scn.write_text(text, encoding="utf-8")
    res = _run_cli("verify", str(scn), "--samples", "1")
    assert res.returncode == 2 and "Traceback" not in res.stderr
    assert f"line {lineno}: {refusal} {entry!r}: {value!r} {reason}" in res.stderr, res.stderr


@pytest.mark.parametrize(
    "name", ["sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy"]
)
def test_form_scale_that_can_overflow_is_refused_by_name(tmp_path, name):
    """At form_scale 1e308, scale * B(u, v) overflows a float on the
    sampling box, and verify reported nan errors; the loader refuses the
    scale at its line and names it.  The bound is no tighter than needed:
    the A1 and A1xA1 files still load at 1e200, where run_verify refuses
    them for precision instead."""
    text = builtin_scenario_path(name).read_text(encoding="utf-8")
    scn = tmp_path / "big.scn"
    scn.write_text(text.replace("form_scale = 1", "form_scale = 1e308"), encoding="utf-8")
    res = _run_cli("verify", str(scn), "--samples", "1")
    assert res.returncode == 2 and "Traceback" not in res.stderr
    lineno = text.splitlines().index("form_scale = 1") + 1
    assert f"line {lineno}: form_scale" in res.stderr
    if name != "sp4_endoscopy":
        sc = build_scenario(parse_scenario(text.replace("form_scale = 1", "form_scale = 1e200")))
        with pytest.raises(PrecisionError):
            run_verify(sc, 3, 1)


@pytest.mark.parametrize(
    "name,scale,tol,refused",
    [
        ("sp4_endoscopy", "1e2", None, True),
        ("sp4_endoscopy", "1e2", "1e-9", False),
        ("sp4_endoscopy", "1e1", None, False),
        ("sl2_endoscopy", "1e2", None, True),
        ("sl2xsl2_double", "20", None, False),
        ("sl2xsl2_double", "40", None, True),
    ],
)
def test_form_scale_beyond_the_tolerance_is_refused(tmp_path, name, scale, tol, refused):
    """Phases scale * B(u, v) round by up to scale * B_max * 2^-52, B_max
    the loader's phase_bound; verify refuses, with exit 2 and a message
    naming form_scale and the tolerance, when that exceeds tolerance / 4.
    sp4_endoscopy at 1e2 failed its pairs before (7.2e-13 at 10 pairs)."""
    text = builtin_scenario_path(name).read_text(encoding="utf-8")
    text = text.replace("form_scale = 1", f"form_scale = {scale}")
    tolerance = 1e-12 if tol is None else float(tol)
    sc = build_scenario(parse_scenario(text))
    assert (precision_floor(sc) > tolerance / 4) == refused
    if refused:
        with pytest.raises(PrecisionError):
            run_verify(sc, 0, 1, tolerance)
    else:
        assert run_verify(sc, 5, 1, tolerance).all_passed
    if name == "sp4_endoscopy" and scale == "1e2":
        scn = tmp_path / "scaled.scn"
        scn.write_text(text, encoding="utf-8")
        res = _run_cli("verify", str(scn), "--samples", "3", *(("--tol", tol) if tol else ()))
        assert "Traceback" not in res.stderr
        if refused:
            assert res.returncode == 2 and "status" not in res.stdout
            assert "form_scale 100" in res.stderr and "tolerance 1e-12" in res.stderr
        else:
            assert res.returncode == 0 and "PASS" in res.stdout


def test_no_benchmark_scenario_is_refused_for_precision():
    """Every scenario of every perfbench workload is verified at the
    default tolerance: its precision floor stays below tolerance / 4."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    floors = []
    for generate, _ in workloads.WORKLOADS.values():
        for item in generate(0, root):
            sc = build_scenario(parse_scenario(item["text"]))
            floors.append(precision_floor(sc))
            run_verify(sc, 0, item["seed"])
    assert len(floors) == 5 + 1 + 45
    assert max(floors) <= 1e-12 / 4


def test_g_extra_is_refused_with_its_reason(tmp_path):
    """G is simply connected, so its real Weyl group is W_K, which the
    compact reflections generate; a word for G, even the identity, is
    refused with that reason."""
    scn = tmp_path / "extra.scn"
    scn.write_text(_with_extras("g = 1 1, 2 2"), encoding="utf-8")
    res = _run_cli("verify", str(scn), "--samples", "1")
    assert res.returncode == 2 and "Traceback" not in res.stderr
    assert "G's real Weyl group is W_K; only h extras are read" in res.stderr


def test_scenario_with_identity_extras():
    sc = build_scenario(parse_scenario(_with_extras("h = 1 1")))
    assert len(sc.engine.real_weyl_h) == 1  # s1 s1 = identity adds nothing


def test_sp4_scenario_with_a_reflection_extra():
    """An extra that enlarges W_real(H): on sp4_endoscopy, H's second
    simple root is compact, and s1, the reflection in its noncompact first
    simple root, preserves H's grading.  The two generate W_H, of order 4,
    and the identity still holds."""
    text = builtin_scenario_path("sp4_endoscopy").read_text(encoding="utf-8")
    text = text.replace("[base_point]", "[real_weyl_extras]\nh = 1\n\n[base_point]")
    sc = build_scenario(parse_scenario(text))
    assert [w.word for w in sc.engine.real_weyl_h] == [(), (0,), (1,), (1, 0)]
    report = run_verify(sc, 5, 0)
    assert report.all_passed and report.max_abs_error < 1e-12


def test_console_entry_point_help():
    import shutil
    import subprocess

    exe = shutil.which("endotransfer")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0 and "verify" in res.stdout


def test_a_missing_section_keeps_line_0():
    """Without a [grading_h] section there is no line to name."""
    text = SP4[:SP4.index("[grading_h]")] + SP4[SP4.index("[base_point]"):]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(parse_scenario(text))
    assert [n for n, _ in exc.value.problems] == [0]
    assert "grading_h needs 2 entries" in str(exc.value)
    assert "line 0" not in str(exc.value)


def test_cli_names_no_line_for_missing_keys(tmp_path, capsys):
    """An empty file leaves out every required key: each is printed without
    a line, since there is none to name, and a problem at a line keeps it."""
    empty = tmp_path / "empty.scn"
    empty.write_text("", encoding="utf-8")
    assert cli.main(["verify", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "invalid scenario: missing key 'g_type' in the top section; "
        "missing key 'x_h' in [base_point]; missing key 'x_g' in [base_point]\n"
    )
    stray = tmp_path / "stray.scn"
    stray.write_text("name = x\nstray\n", encoding="utf-8")
    assert cli.main(["verify", str(stray)]) == 2
    err = capsys.readouterr().err
    assert "line 2: expected 'key = value', got 'stray'" in err and "line 0" not in err


@pytest.mark.parametrize(
    "name", ["sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy"]
)
def test_a_utf8_byte_order_mark_is_read_past(tmp_path, capsys, name):
    """A shipped file behind a UTF-8 byte-order mark gives the
    byte-identical machine report, instead of a refusal of its first line."""
    plain = builtin_scenario_path(name)
    marked = tmp_path / f"{name}.scn"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for path in (plain, marked):
        assert cli.main(["verify", str(path), "--samples", "3", "--seed", "7", "--format", "machine"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and "status" in reports[0]


def test_a_bad_byte_behind_a_byte_order_mark_is_named_at_its_offset(tmp_path):
    """The mark counts in the offset of the first byte that is not UTF-8."""
    path = tmp_path / "marked.scn"
    path.write_bytes(b"\xef\xbb\xbfname = x\n\xff\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario_file(path)
    assert exc.value.problems == [(2, f"{path} is not UTF-8 text: invalid start byte at byte 12")]


def test_a_lattice_file_behind_a_byte_order_mark(tmp_path, capsys):
    """h1 reads past a UTF-8 byte-order mark; bytes that are not UTF-8 stay
    refused."""
    outs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        lat = tmp_path / "swap.lat"
        lat.write_bytes(prefix + b"0 1\n1 0\n")
        assert cli.main(["h1", str(lat)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "H^1(R, T)" in outs[0]
    lat.write_bytes(b"\xef\xbb\xbf0 1\n\xff 0\n")
    assert cli.main(["h1", str(lat)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err
