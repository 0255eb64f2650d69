"""The per-point reductions that ``metrics._row_sups`` and
``metrics._first_maxes`` replaced, and the control tables as they read
them.

``_first_max``, ``_row_sup`` and ``_diff_sup`` are the moved functions,
bodies unchanged: a loop over one point's pairs, and one small numpy
pipeline and one ``_first_max`` per sampled point.
``h2_sups`` and ``identity_sups`` are ``_StraightLine.sup_ats`` and
``_H1.identity_sups``, one of those calls per point over the rows of the
same group pass, so the differential tests see only the reduction change.  The fast masks of the h2 rows are read
through the ``homotopies`` module, so a test that patches
``homotopies._canonical_rows`` patches both sides."""

import numpy as np

from plcontrol import homotopies
from plcontrol.complexes import canonical
from plcontrol.metrics import _norms
from plcontrol.maps import evaluate_map
from plcontrol.metrics import distance


def _first_max(times, dists) -> tuple[float, float | None, int]:
    """(the largest of ``dists``, the first of ``times`` paired with it, the
    number of pairs) over the pairs of the two; (0.0, None, 0) for none."""
    best, arg, n = 0.0, None, 0
    for time, dist in zip(times, dists):
        n += 1
        if arg is None or dist > best:
            best, arg = dist, time
    return best, arg, n


def _row_sup(K, y, times, rows: np.ndarray, fast, point) -> tuple[float, float | None, int]:
    """``_first_max`` of d_K(y, p_k) over ``times``, for the point p_k of
    each row k: a row marked ``fast`` holds p_k's coordinates over y's
    carrier, so its distance to y is the l2 norm of their difference there
    (``_diff_sup``).  Any other p_k is ``point(k)``."""
    return _diff_sup(times, np.array(y.coords) - rows, fast, lambda k: distance(K, y, point(k)))


def _diff_sup(times, diffs: np.ndarray, fast, pair) -> tuple[float, float | None, int]:
    """``_first_max`` over ``times`` of one distance per row k: for a row
    marked ``fast``, the l2 norm of row k of ``diffs`` (``_norms``); for
    any other row, ``pair(k)``."""
    dists = np.empty(len(fast))
    dists[fast] = _norms(diffs[fast])
    for k in np.flatnonzero(~fast).tolist():
        dists[k] = pair(k)
    return _first_max(times, dists.tolist())


def h2_sups(h2, ys, times) -> dict:
    """``_StraightLine.sup_ats``: one ``_row_sup`` per y."""
    view = h2.view
    epss = tuple(view.eps * (1.0 - time) for time in times)
    out = {}
    for y in ys:
        cell, (s, t) = view.locate(y)
        rows = view.rows(cell, s, t, epss)
        fast = homotopies._canonical_rows(rows)
        out[y] = _row_sup(view.K, canonical(view.K, y), times, rows, fast, lambda k: view.step(cell, s, t, epss[k]))
    return out


def _per_point(h1, xs, times):
    """(x, its track, F, fast) per x of the group pass ``h1._passes``."""
    for group, tracks, Fs, fasts in h1._passes(xs, times):
        yield from zip(group, tracks, Fs, fasts)


def identity_sups(h1, xs, times) -> tuple[dict, dict]:
    """``_H1.identity_sups``: two ``_diff_sup`` per x."""
    f, Y, view, n = h1.f, h1.f.target, h1.view, len(times)
    halves = [time / 2.0 for time in times] + [0.5 + time / 2.0 for time in times] + [0.5]
    epss = tuple(view.eps * (1.0 - time) for time in times)
    first, second = {}, {}
    for x, tr, F, fast in _per_point(h1, xs, halves):
        cell, (s, t) = view.locate(tr.y)
        first[x] = _diff_sup(times, view.rows(cell, s, t, epss) - F[:n], fast[:n], lambda k: distance(
            Y, evaluate_map(f, tr(halves[k])), view.step(cell, s, t, epss[k])))
        second[x] = _diff_sup(times, F[n:-1] - F[-1], fast[n:-1] & fast[-1], lambda k: distance(
            Y, evaluate_map(f, tr(halves[n + k])), evaluate_map(f, tr(0.5))))
    return first, second
