"""The full standard output of endotransfer factors on every Weyl element
of the five shipped scenario files: x_h = (3/2, 5/4, ...), x_g = w x_h,
20 diagrams in all.  Each block opens with the file's name and w's word,
followed by what the command prints for it."""

import contextlib
import io
from fractions import Fraction

from endotransfer import cli
from endotransfer.scenario import builtin_scenario_path, load_builtin

SHIPPED = ("sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")

EXPECTED = """\
$ sl2_compact ()
diagram Weyl word: ()
delta_I   = +1   (base +1)
delta_II  = +1   (base +1)
delta_III = +1
transfer factor = 1.0
$ sl2_compact (0,)
diagram Weyl word: (1,)
delta_I   = +1   (base +1)
delta_II  = +1   (base +1)
delta_III = +1
transfer factor = 1.0
$ sl2_endoscopy ()
diagram Weyl word: ()
delta_I   = -1   (base -1)
delta_II  = +1   (base +1)
delta_III = +1
transfer factor = 1.0
$ sl2_endoscopy (0,)
diagram Weyl word: (1,)
delta_I   = -1   (base -1)
delta_II  = -1   (base +1)
delta_III = +1
transfer factor = -1.0
$ sl2xsl2_double ()
diagram Weyl word: ()
delta_I   = +1   (base +1)
delta_II  = +1   (base +1)
delta_III = +1
transfer factor = 1.0
$ sl2xsl2_double (0,)
diagram Weyl word: (1,)
delta_I   = +1   (base +1)
delta_II  = -1   (base +1)
delta_III = +1
transfer factor = -1.0
$ sl2xsl2_double (1,)
diagram Weyl word: (2,)
delta_I   = +1   (base +1)
delta_II  = -1   (base +1)
delta_III = +1
transfer factor = -1.0
$ sl2xsl2_double (0, 1)
diagram Weyl word: (1, 2)
delta_I   = +1   (base +1)
delta_II  = +1   (base +1)
delta_III = +1
transfer factor = 1.0
$ sl2xsl2_mixed ()
diagram Weyl word: ()
delta_I   = -1   (base -1)
delta_II  = +1   (base +1)
delta_III = +1
transfer factor = 1.0
$ sl2xsl2_mixed (0,)
diagram Weyl word: (1,)
delta_I   = -1   (base -1)
delta_II  = -1   (base +1)
delta_III = +1
transfer factor = -1.0
$ sl2xsl2_mixed (1,)
diagram Weyl word: (2,)
delta_I   = -1   (base -1)
delta_II  = +1   (base +1)
delta_III = +1
transfer factor = 1.0
$ sl2xsl2_mixed (0, 1)
diagram Weyl word: (1, 2)
delta_I   = -1   (base -1)
delta_II  = -1   (base +1)
delta_III = +1
transfer factor = -1.0
$ sp4_endoscopy ()
diagram Weyl word: ()
delta_I   = +1   (base +1)
delta_II  = -1   (base -1)
delta_III = +1
transfer factor = 1.0
$ sp4_endoscopy (0,)
diagram Weyl word: (1,)
delta_I   = +1   (base +1)
delta_II  = -1   (base -1)
delta_III = +1
transfer factor = 1.0
$ sp4_endoscopy (1,)
diagram Weyl word: (2,)
delta_I   = +1   (base +1)
delta_II  = +1   (base -1)
delta_III = +1
transfer factor = -1.0
$ sp4_endoscopy (0, 1)
diagram Weyl word: (1, 2)
delta_I   = +1   (base +1)
delta_II  = +1   (base -1)
delta_III = +1
transfer factor = -1.0
$ sp4_endoscopy (1, 0)
diagram Weyl word: (2, 1)
delta_I   = +1   (base +1)
delta_II  = +1   (base -1)
delta_III = +1
transfer factor = -1.0
$ sp4_endoscopy (0, 1, 0)
diagram Weyl word: (1, 2, 1)
delta_I   = +1   (base +1)
delta_II  = +1   (base -1)
delta_III = +1
transfer factor = -1.0
$ sp4_endoscopy (1, 0, 1)
diagram Weyl word: (2, 1, 2)
delta_I   = +1   (base +1)
delta_II  = -1   (base -1)
delta_III = +1
transfer factor = 1.0
$ sp4_endoscopy (0, 1, 0, 1)
diagram Weyl word: (1, 2, 1, 2)
delta_I   = +1   (base +1)
delta_II  = -1   (base -1)
delta_III = +1
transfer factor = 1.0
"""


def _vector(coords) -> str:
    return ", ".join(map(str, coords))


def test_factors_prints_every_shipped_diagram():
    out = io.StringIO()
    for name in SHIPPED:
        eng = load_builtin(name).engine
        x_h = tuple(Fraction(2 * k + 3, 2 * k + 2) for k in range(eng.g_datum.rank))
        for w in eng.weyl_g:
            path = str(builtin_scenario_path(name))
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(["factors", path, f"--xh={_vector(x_h)}", f"--xg={_vector(w.act(x_h))}"])
            assert code == 0, (name, w.word)
            out.write(f"$ {name} {w.word}\n{printed.getvalue()}")
    assert out.getvalue() == EXPECTED
