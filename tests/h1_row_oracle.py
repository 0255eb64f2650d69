"""The per-point h1 control row that ``homotopies._H1.sup_ats`` replaced:
``_H1.sup_at`` as it was, one track and one ``maps._joined_image_rows``
pass per sampled x.  ``sup_ats`` builds the same tracks, but joins the
rows of every x whose f(x) lies on one carrier in a single pass, so this
is the oracle of its differential tests.  The body is unchanged."""

import numpy as np

from plcontrol.complexes import _canonical_rows, canonical
from plcontrol.maps import _joined_image_rows, evaluate_map
from reduction_oracle import _row_sup


def sup_at(h1, x, times):
    """(sup over t in ``times`` of d_Y(f(x), f(h1(x, t))), the first t
    attaining it, the pairs measured), for one x of the h1 ``h1``."""
    if not times:
        return 0.0, None, 0
    f, tr = h1.f, h1.track_factory(x)
    y = canonical(f.target, tr.y)
    late = np.array([time > 0.5 for time in times])
    rows = np.zeros((len(times), len(y.coords)))
    epss = [tr.view.eps * (1.0 - 2.0 * time) for time in times if time <= 0.5]
    rows[~late] = tr.view.rows(tr.cell, tr.s, tr.t, epss)
    ybar = None
    if late.any():
        ybar = tr.second[0]
        base = np.zeros(len(y.coords))
        base[[y.carrier.vertices.index(v) for v in ybar.carrier.vertices]] = ybar.coords
        rows[late] = base
    F, fast = _joined_image_rows(f, y.carrier, [tr.fiber_at(time) if time > 0.5 else tr.z for time in times], rows)
    fast &= late | _canonical_rows(rows)

    def point(k: int):
        return ybar if times[k] == 0.5 and ybar is not None else evaluate_map(f, tr(times[k]))

    return _row_sup(f.target, y, times, F, fast, point)
