"""Definitions from the paper that the tests check the program against
and the program itself does not need."""

from __future__ import annotations

import itertools

from vccts.llts import VisLabel


def visible(labels) -> list:
    """The visible labels of a `Multiset`, with their multiplicities."""
    return [l for l in labels.elements() if isinstance(l, VisLabel)]


def punrel(labels) -> bool:
    """Pairwise unrelated: visible labels of a `Multiset` at distinct
    locations carry distinct polarized symbols; tau is unrelated to
    everything."""
    for a, b in itertools.combinations(visible(labels), 2):
        if a.loc != b.loc and a.action.psym() == b.action.psym():
            return False
    return True


def cross_edges(step, left_locs, right_locs):
    """Cross pairs of a step's target with respect to a split of the
    source locations (the D' record of a composed step)."""
    left = set(left_locs)
    right = set(right_locs)
    out = set()
    for a, b in step.target.graph.edges:
        ra, rb = step.residual[a], step.residual[b]
        if ra in left and rb in right:
            out.add((a, b))
        elif ra in right and rb in left:
            out.add((b, a))
    return out
