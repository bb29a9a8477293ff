"""The scenario's pair table (EllipticScenario.table) is built lazily: the
factors and orbits commands never build it, and a verify run builds it
once, on its first pair."""

import pytest

from endotransfer import cli
from endotransfer.endoscopy import TransferFactorEngine
from endotransfer.scenario import builtin_scenario_path, load_builtin
from endotransfer.verify import run_verify

# The engine methods that build the table's transfer entries and group laws.
BUILDERS = ("transfer_table", "group_products")


def _refuse(*args, **kwargs):
    raise AssertionError("the pair table was built")


@pytest.mark.parametrize(
    "command, args",
    [
        ("factors", ("--xh", "1, 1/3", "--xg", "-1, -1/3")),
        ("orbits", ("--xg", "1, 1/3")),
    ],
)
def test_factors_and_orbits_do_not_build_the_table(monkeypatch, capsys, command, args):
    for name in BUILDERS:
        monkeypatch.setattr(TransferFactorEngine, name, _refuse)
    assert cli.main([command, str(builtin_scenario_path("sp4_endoscopy")), *args]) == 0
    assert capsys.readouterr().out


def test_verify_builds_the_table_once(monkeypatch):
    calls = dict.fromkeys(BUILDERS, 0)

    def counted(name):
        original = getattr(TransferFactorEngine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(TransferFactorEngine, name, counted(name))
    sc = load_builtin("sp4_endoscopy")
    assert "table" not in vars(sc)
    report = run_verify(sc, 5, 0)
    assert report.all_passed
    # One transfer table, and one group law for each side.
    assert calls == {"transfer_table": 1, "group_products": 2}
    assert vars(sc)["table"] is sc.table
