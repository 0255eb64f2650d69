"""The per-point oracles of h1's start-up and of g's table: one scalar
start-up per h1 track with gamma evaluated at the track's cell by
``FlagMap.eval_cell`` (``second``, a function of the track: the body of the
old ``_H1Track.second``, unchanged; ``homotopies._start`` reads the join of
g_eps(f(x)) off the g table instead), and the g row of
``homotopies._control_report`` as it was, the pair loop on (y, f(g_eps(y)))
with g_eps(y) evaluated by ``FlagMap.eval_cell`` at y's cell
(``g_sups``: the body of the old ``_inverse``'s value and of the pair
branch of ``_control_report``, unchanged).  They are the oracles of the
differential tests of ``_EpsView.g_table`` and ``homotopies._start``."""

from plcontrol.evaluators import PLEvaluator
from plcontrol.homotopies import _pair_sups
from plcontrol.maps import evaluate_map


def second(self):
    """(ybar, the fiber track from h1(x, 1/2), the fiber track from
    g_eps(f(x))), both over ybar's carrier, for the h1 track ``self``."""
    triv, cell = self.gamma.trivialization, self.cell
    w_a, ybar = triv.split(self.step(0.0))
    w_b = triv.split(self.gamma.eval_cell(cell.flag.chain, cell.flag.base, self.s, self.t))[0]
    return ybar, *(self.gamma.fiber_track(ybar.carrier, w) for w in (w_a, w_b))


def g_sups(f, gamma, view, points, times):
    """y -> (d_Y(y, f(g_eps(y))), first t attaining it, pairs) for each
    distinct y of ``points``, g_eps inverting y in ``view``: one
    ``distance`` per pair."""

    def fn(y):
        cell, (s, t) = view.locate(y)
        return gamma.eval_cell(cell.flag.chain, cell.flag.base, s, t)

    u = PLEvaluator(domain=f.target, codomain=f.source, fn=fn)
    track = lambda z: lambda t: u(z)  # noqa: E731

    def tracks(z):
        anchor = z
        tr = track(z)
        return (lambda t: anchor), (lambda t: evaluate_map(f, tr(t)))

    return _pair_sups(f.target, points, times, tracks)
