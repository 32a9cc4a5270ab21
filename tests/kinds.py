"""One table of spaces for the contracts every `Kind` keeps.

`SPACES` holds every kind, both answers of ``has_cone_sampler``,
``has_exact_volume`` and ``sign_invariant``, and the shapes a contract has
tripped on: l_p at p = 1 and inf (kinks everywhere), near-cube Orlicz balls
(``orlicz(3, 1e6)``), Orlicz balls at beta below and above m, Schatten
balls up to the largest with a direct sampler (7 x 7), block sums at outer
p = 1, finite p and inf over every kind, and intersections over l_p,
Orlicz and Schatten bases.  The contract tests run over it through
`over_the_table`, filtered only by what a space can do;
`test_space.test_the_table_has_every_kind_and_both_answers_of_each_capability`
guards it.
"""

import pytest

from normpart.space import (INF, block_lp, intersect_ball, linf, lp, orlicz,
                            schatten)

SPACES = [
    lp(4, 1), lp(6, 1), lp(4, 1.5), lp(5, 1.5), lp(6, 1.5), lp(4, 2),
    lp(5, 2), lp(9, 2.5), lp(4, 3), lp(5, 3), lp(6, 3), lp(4, 3.5),
    lp(3, 1000), linf(4), linf(6),
    orlicz(3, 1.0), orlicz(4, 1.5), orlicz(6, 1.5), orlicz(5, 0.7),
    orlicz(5, 4.0), orlicz(4, 6.0), orlicz(12, 5.5), orlicz(3, 1e6),
    schatten(2, 1), schatten(3, 1), schatten(7, 1.5), schatten(2, 2.5),
    schatten(2, 3), schatten(2, INF), schatten(3, INF),
    block_lp(1, [orlicz(2, 1.0), linf(3)]),
    block_lp(2, [lp(2, 3)] * 2),
    block_lp(2, [orlicz(2, 1.0), lp(2, 3)]),
    block_lp(2, [intersect_ball(lp(2, 1), 0.8), lp(1, 2)]),
    block_lp(2.5, [lp(2, 3), lp(3, 1.5)]),
    block_lp(2.5, [lp(2, 3), orlicz(2, 1.0)]),
    block_lp(2.5, [lp(2, 1), orlicz(3, 2.0), schatten(2, 3)]),
    block_lp(INF, [lp(1, 2), lp(2, 1)]),
    block_lp(INF, [lp(2, 1), lp(3, 3)]),
    block_lp(INF, [lp(3, 3), lp(2, 1)]),
    block_lp(INF, [lp(3, 3), orlicz(2, 1.0)]),
    block_lp(INF, [orlicz(3, 1.5), lp(2, 1)]),
    block_lp(INF, [lp(2, 1), schatten(2, 2.5)]),
    intersect_ball(lp(3, 1), 0.8), intersect_ball(lp(4, 1), 1.0),
    intersect_ball(lp(3, 3), 0.8), intersect_ball(orlicz(3, 1.0), 0.5),
    intersect_ball(orlicz(3, 1.5), 0.9), intersect_ball(schatten(2, 3), 0.9),
]


def over_the_table(where=lambda d: True):
    """Parametrize a test's ``desc`` over the spaces of `SPACES` for which
    ``where`` holds."""
    return pytest.mark.parametrize("desc", [d for d in SPACES if where(d)],
                                   ids=lambda d: d.to_json())
