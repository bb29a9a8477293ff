"""W_real(H) stays off the verify path.

The loader checks H's extra generators but closes W_real(H) only on the
first read of engine.real_weyl_h (or of the H Side's real_weyl and
weyl_table), which no route makes.  So building a scenario and verifying
pairs closes one real Weyl group, G's, and the group read afterwards is the
one real_weyl_group closes at once, element for element and in order."""

import itertools

import pytest

from endotransfer import realform, scenario
from endotransfer.endoscopy import build_endoscopic_datum
from endotransfer.rootdata import build_root_datum
from endotransfer.scenario import build_scenario, builtin_scenario_path, parse_scenario
from endotransfer.verify import run_verify

from oracles import TYPES, scenario_text

SHIPPED = ("sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")


def _data_texts():
    """The scenario texts of the 330 data of tests/conftest.py."""
    texts = []
    for g_type in TYPES:
        g = build_root_datum(g_type)
        for grades in itertools.product((0, 1), repeat=g.rank):
            for signs in itertools.product((1, -1), repeat=g.rank):
                if all(s == 1 for s in signs):
                    continue
                h_rank = len(build_endoscopic_datum(g, signs).h_datum.simple_roots)
                texts.append(scenario_text(g_type, grades, signs, h_rank))
    return texts


def _with_h_extras(name, words):
    text = builtin_scenario_path(name).read_text(encoding="utf-8")
    return text.replace("[base_point]", f"[real_weyl_extras]\nh = {words}\n\n[base_point]")


def _eager(sc, config):
    """W_real(H) closed at once, as the loader closed it before."""
    h = sc.engine.datum.h_datum
    extras = tuple(h.element_from_word(word) for word in config.extras_h)
    return realform.real_weyl_group(sc.engine.grading_h, extras)


def _elements(group):
    return [(w.matrix, w.word) for w in group]


def test_verify_closes_the_real_weyl_group_of_g_alone(monkeypatch):
    texts = _data_texts()
    assert len(texts) == 330
    closed = []

    def counted(original):
        def wrapper(grading, *args):
            closed.append(grading.datum)
            return original(grading, *args)

        return wrapper

    for owner in (realform, scenario):
        monkeypatch.setattr(owner, "real_weyl_group", counted(owner.real_weyl_group))
    for text in texts:
        closed.clear()
        config = parse_scenario(text)
        sc = build_scenario(config)
        run_verify(sc, 2, 3)
        assert closed == [sc.engine.g_datum], config.name
        assert _elements(sc.engine.real_weyl_h) == _elements(_eager(sc, config)), config.name


@pytest.mark.parametrize(
    "text",
    [builtin_scenario_path(name).read_text(encoding="utf-8") for name in SHIPPED]
    + [_with_h_extras("sp4_endoscopy", "1"), _with_h_extras("sl2xsl2_mixed", "1 1")],
    ids=[*SHIPPED, "sp4_reflection_extra", "mixed_identity_extra"],
)
def test_the_lazy_group_is_the_eager_one(text):
    """With or without h extras: the sp4 reflection extra enlarges
    W_real(H), the identity word adds nothing."""
    config = parse_scenario(text)
    sc = build_scenario(config)
    want = _elements(_eager(sc, config))
    assert _elements(sc.h_side.real_weyl) == want
    assert _elements(sc.engine.real_weyl_h) == want
    assert [(w.matrix, w.word, det) for w, det in sc.h_side.weyl_table] == [
        (matrix, word, (-1) ** len(word)) for matrix, word in want
    ]
