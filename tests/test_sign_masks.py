"""The routes read every transfer-factor weight and every [D/pi] sign at a
Weyl-moved point w x from the table's sign masks and the mask of roots
negative at x.  Here each is checked against the literal product of signs
at w x, with w x from w's matrix, over every (type, grading, s) of rank <= 3
with -1 in the Weyl group: the weights against root_signs over the entry's
roots, [D/pi] against LiteralRoutes.d_over_pi on both sides, at seeded
float points and one exact point.  The table's inverse positions are
checked against weyl_inverse, and a point 1e-10 |x| from a wall gets the
regularity check's message from every route."""

import random
from fractions import Fraction

import pytest

from endotransfer.distributions import d_gh, d_tilde_gh, verify_identity
from endotransfer.endoscopy import EllipticElement, EndoscopyError, require_regular, root_signs
from endotransfer.rootdata import build_root_datum, weyl_inverse

from oracles import LiteralRoutes


def _regular_point(g, rng, exact=False):
    """A seeded point of the box [-3, 3]^rank at least 1e-3 |x| from every
    wall; with exact=True, with coordinates p/q, q <= 12."""
    while True:
        if exact:
            v = tuple(Fraction(rng.randint(-36, 36), rng.randint(1, 12)) for _ in range(g.rank))
        else:
            v = tuple(rng.uniform(-3.0, 3.0) for _ in range(g.rank))
        norm = sum(float(c) * float(c) for c in v) ** 0.5
        if norm and all(
            abs(float(sum(a * c for a, c in zip(alpha, v)))) >= 1e-3 * norm
            for alpha in g.positive_roots
        ):
            return EllipticElement(v)


def test_sign_masks_match_literal_signs_at_moved_points(scenarios):
    g_type, data = scenarios
    g = build_root_datum(g_type)
    rng = random.Random(f"masks-{g_type}")
    points = [_regular_point(g, rng) for _ in range(3)] + [_regular_point(g, rng, exact=True)]
    # w^{-1}, the points w x, and the literal signs there do not depend on
    # the grading; each is computed once.
    inverses = {}
    moved = {}
    literal = {}

    def once(key, compute):
        if key not in literal:
            literal[key] = compute()
        return literal[key]

    for key, sc in data:
        eng = sc.engine
        entries = sc.table.entries
        if not inverses:
            inverses = {w.matrix: weyl_inverse(g, w).matrix for w in eng.weyl_g}
            moved = {(k, w.matrix): w.act(x.coords) for k, x in enumerate(points) for w in eng.weyl_g}
        h_positive = set(eng.datum.h_datum.positive_roots)
        assert h_positive == set(eng.datum.h_roots) & set(g.positive_roots), key
        for entry in entries:
            assert entries[entry.inverse].w.matrix == inverses[entry.w.matrix], key
            assert eng.inverse_of(entry.w).matrix == inverses[entry.w.matrix], key
        for k, x in enumerate(points):
            negative = require_regular(g, x)
            for entry in entries:
                at = (k, entry.w.matrix)
                wx = moved[at]
                expected = once((entry.roots, at), lambda: root_signs(entry.roots, wx))
                assert entry.weight_moved(negative) == entry.sign * expected, (key, entry.w.word)
                expected = once((entry.roots, k), lambda: root_signs(entry.roots, x.coords))
                assert entry.weight_at(negative) == entry.sign * expected, (key, entry.w.word)
                for side, sign in ((sc.g_side, entry.g_sign), (sc.h_side, entry.h_sign)):
                    label = side.datum.cartan_label
                    expected = once((label, at), lambda: LiteralRoutes.d_over_pi(side, wx))
                    assert side.d_over_pi_at(sign(negative)) == expected, (key, entry.w.word)


def _near_wall(g, x, alpha):
    """x moved along the coroot of alpha to <alpha, x'> = 1e-10 |x|, or
    None when another root is then within 1e-3 |x| of its wall."""
    coroot = g.coroot(alpha)
    norm = sum(c * c for c in x.coords) ** 0.5
    shift = (1e-10 * norm - sum(a * c for a, c in zip(alpha, x.coords))) / 2
    moved = tuple(c + shift * k for c, k in zip(x.coords, coroot))
    for beta in g.positive_roots:
        if beta != alpha and abs(sum(b * c for b, c in zip(beta, moved))) < 1e-3 * norm:
            return None
    return EllipticElement(moved)


def test_near_wall_points_get_the_regularity_message_from_every_route(scenarios):
    """x_g near any wall, or x_h near the wall of a root of H, is refused
    with require_regular's message naming that root; x_h near the wall of a
    root outside H matches no diagram, so both routes give 0."""
    g_type, data = scenarios
    g = build_root_datum(g_type)
    rng = random.Random(f"walls-{g_type}")
    for key, sc in data:
        h_roots = set(sc.engine.datum.h_roots)
        x_h = _regular_point(g, rng)
        x_g = _regular_point(g, rng)
        for alpha in g.positive_roots:
            message = f"element is numerically on the wall of root {alpha}"
            near_g = _near_wall(g, x_g, alpha)
            if near_g is not None:
                for route in (d_gh, d_tilde_gh, verify_identity):
                    with pytest.raises(EndoscopyError) as exc:
                        route(sc, x_h, near_g)
                    assert str(exc.value) == message, (key, route.__name__)
            near_h = _near_wall(g, x_h, alpha)
            if near_h is None:
                continue
            if alpha in h_roots:
                for route in (d_gh, d_tilde_gh, verify_identity):
                    with pytest.raises(EndoscopyError) as exc:
                        route(sc, near_h, x_g)
                    assert str(exc.value) == message, (key, route.__name__)
            else:
                for route in (d_gh, d_tilde_gh):
                    kernel = route(sc, near_h, x_g)
                    assert kernel.value == 0 and kernel.terms == (), (key, route.__name__)
                report = verify_identity(sc, near_h, x_g)
                assert report.passed and report.termwise_max == 0.0, key
