"""Exact privacy loss of a pair of release plans, with no sampling.

A Laplace release of a series x at scale b has density proportional to
exp(-||y - x||_1 / b), so two neighbours' releases through one arm at the
same scale differ in log-density by at most ||x_G - x_H||_1 / b at any
output y.  The loss of a pair therefore follows from the two plans' arms
alone.  At scale 0 a release is its series itself, so it loses nothing if
the two series are equal and without bound otherwise.  Arms at different
scales lose without bound, and a pick among several arms by realized error
depends on the data, so it is not covered.  A prefix sum is
post-processing and costs nothing.
"""
import math

import numpy as np


def privacy_loss(plan_g, plan_h, epsilon):
    """The worst-case privacy loss between releases of two plans at
    `epsilon`: ||series_g - series_h||_1 / scale for one arm per side at
    equal scales (at scale 0, 0.0 for equal series and math.inf for
    others), math.inf if the scales (or series shapes) differ, and None
    (not covered) if either side has several arms."""
    if len(plan_g.arms) != 1 or len(plan_h.arms) != 1:
        return None
    (g,), (h,) = plan_g.arms, plan_h.arms
    scale = g.scale(epsilon)
    if h.scale(epsilon) != scale or g.series.shape != h.series.shape:
        return math.inf
    distance = float(np.abs(g.series - h.series).sum())
    if scale == 0:
        return 0.0 if distance == 0 else math.inf
    return distance / scale
