"""The transfer table against the closed form of the character property,
oracles.closed_form_table: F(w) = kappa(w^{-1} lambda - lambda) prod
sign<alpha, w x_h> over each entry's roots.  The engine's table must equal
it on the five shipped files and on the benchmark's B3 datum (s = (+1, +1,
-1), alpha3 noncompact), and go on equalling it once every datum of rank
<= 3 does."""

import importlib.util
from pathlib import Path

import pytest

from endotransfer.scenario import build_scenario, load_builtin, parse_scenario

from oracles import closed_form_table, table_entries

SHIPPED = ("sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")


def _b3_kernel():
    """The b3_kernel datum, as the benchmark writes it."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (item,) = workloads.b3_kernel(0, root)
    return build_scenario(parse_scenario(item["text"]))


@pytest.mark.parametrize("name", SHIPPED + ("b3_kernel",))
def test_table_signs_equal_the_closed_form(name):
    sc = _b3_kernel() if name == "b3_kernel" else load_builtin(name)
    assert tuple(entry.sign for entry in table_entries(sc)) == closed_form_table(sc)
