"""A mutation matrix: each row breaks one kernel of a default verify, runs
it on one map and states what the report then reads, or the typed error
that escapes ``run_verify``.

A row that passes under a real defect is a blind spot of today's verify.
It is asserted as passing and names the ROADMAP item that should turn it:
item 6 (the cellulation's corners as control samples) for the collar rows
on D_3 and D_4, item 5 (the exact control and its cross-check of the
sampled columns) for the carrier-metric row on proj_map, item 4 (slices
with their own samples) for the slice rows.  The short-contraction rows
name no item: no report line reads where a fiber contraction ends.  The
short h1 second-half fiber-track rows name item 10, whose open rows they
are: h1's two fiber tracks then miss each other at the basepoint, but
every line that reads h1's second half reads it through f, which a fiber
track leaves where it is.
The h1 identity rows move h1 off h2's path, the second half's level or
the first half's steps; the h1 column of the control table is h2's read
over f(x), so only the two h1 identity lines can see them, and each row
pins the lines it turns.
A row that raises names item 10's open decision: a ``NO`` row that names
the error, instead of an error that escapes ``run_verify``.  The change
that closes an item flips its rows and says so.
"""

import hashlib
import types
from dataclasses import dataclass, replace

import numpy as np
import pytest

from plcontrol import (
    CertificateMismatchError,
    HomologyProfile,
    InversionError,
    Point,
    ProductDecompositionError,
    comesh_of,
    make_point,
    run_verify,
)
from plcontrol import cellulation, cone, contract, fixtures, homotopies, maps, metrics
from plcontrol.verify import COUNTEREXAMPLE, THEOREM_CONSISTENT, UNKNOWN
from helpers import fresh, load_script

ladder = load_script("ladder")

MAPS = {
    "proj_map": lambda: fresh(fixtures.proj_map()),
    "map_collapse": lambda: fresh(fixtures.map_collapse()),
    "map_bad": lambda: fresh(fixtures.map_bad()),
    "D_3": lambda: ladder.simplex_prism(3),
    "D_4": lambda: ladder.simplex_prism(4),
}


def collar(k: float):
    """The cellulation at k eps that claims to be at eps: the level
    coefficients a_j = eps / len_j of the vertex images and of the inversion
    are both read at k eps (``_try_cell`` reads nothing of its cellulation
    but ``eps``).  k = 1.0 changes no bit."""

    def patch(monkeypatch, f):
        a_coeffs, try_cell = cellulation.FlagCell.a_coeffs, cellulation.Cellulation._try_cell
        monkeypatch.setattr(
            cellulation.FlagCell, "a_coeffs", lambda cell, eps: a_coeffs(cell, k * np.asarray(eps, dtype=float))
        )
        monkeypatch.setattr(
            cellulation.Cellulation,
            "_try_cell",
            lambda cel, cell, y, tol: try_cell(types.SimpleNamespace(eps=k * cel.eps), cell, y, tol),
        )

    return patch


def collar_images(k: float):
    """The vertex images of every flag cell at k eps, while the inversion
    still reads eps: the cellulation that h1 and h2 step through is not the
    one that located their points."""

    def patch(monkeypatch, f):
        real = cellulation.FlagCell.vertex_images
        monkeypatch.setattr(
            cellulation.FlagCell, "vertex_images", lambda cell, eps: real(cell, k * np.asarray(eps, dtype=float))
        )

    return patch


def tilted_g(monkeypatch, f):
    """g's base weights tilted by 1e-6 from the first vertex of the base to
    the second (a vertex base keeps its weight), so g_eps(y) lies over a
    point 1e-6 off y: ``FlagMap.cell_parts``, the chain value and base
    point that every value of g (its table, ``eval_cell``) joins."""
    real = homotopies.FlagMap.cell_parts

    def tilted(gamma, chain, base, s, t):
        s = np.array(s, dtype=float)
        if len(s) > 1:
            s[0] += 1e-6
            s[1] -= 1e-6
        return real(gamma, chain, base, s, t)

    monkeypatch.setattr(homotopies.FlagMap, "cell_parts", tilted)


def misweighted_join(monkeypatch, f):
    """The join of ``test_product_certificate_catches_a_misweighted_join``:
    half as much weight again on the first vertex of the base point."""
    real = maps.fiber_join

    def misweighted(f, z, y):
        first = y.carrier.vertices[0]
        yd = {w: c * (1.5 if w == first else 1.0) for w, c in y.as_dict().items()}
        total = sum(yd.values())
        return real(f, z, make_point(f.target, {w: c / total for w, c in yd.items()}))

    monkeypatch.setattr(maps, "fiber_join", misweighted)


def alpha_schedule(k: float):
    """The cone's control schedule off by the factor k: the assembly reads
    every height's eps at k times the schedule's."""

    def patch(monkeypatch, f):
        real = cone.alpha_schedule
        monkeypatch.setattr(cone, "alpha_schedule", lambda comesh, t: k * real(comesh, t))

    return patch


def carrier_metric(k: float):
    """The l2 metric of one carrier of the target, its first maximal
    simplex, scaled by k wherever ``distance`` measures in it.  The array
    rows of g, h1 and h2 measure their norms without ``distance``, so they
    do not see it."""

    def patch(monkeypatch, f):
        top, real = f.target.maximal_simplices()[0], metrics._l2_in_simplex
        monkeypatch.setattr(
            metrics, "_l2_in_simplex", lambda p, q, carrier: real(p, q, carrier) * (k if carrier is top else 1.0)
        )

    return patch


def trivial_homology(monkeypatch, f):
    """Homology that reads every complex as acyclic, so only the collapse
    can refute a fiber."""
    monkeypatch.setattr(
        contract, "homology", lambda K: HomologyProfile(betti=(0,) * (K.dimension + 1), torsion=((),) * (K.dimension + 1))
    )


def false_collapse(monkeypatch, f):
    """A greedy collapse that claims a full collapse where it sticks."""
    real = contract.greedy_collapse

    def claims(K):
        seq = real(K)
        return replace(seq, complete=True, basepoint=seq.remaining[0].vertices[0])

    monkeypatch.setattr(contract, "greedy_collapse", claims)


def swapped_coface(swap: bool):
    """The first step of every collapse with its coface swapped for another
    simplex live at that step: the first of K's order that is neither of
    the pair, hence no live cofacet of the free face, so the replay
    (``contract.check_collapse``) refuses the sequence.  With ``swap``
    off, the sequence is rebuilt with its own coface."""

    def patch(monkeypatch, f):
        real = contract.greedy_collapse

        def collapse(K):
            seq = real(K)
            if not seq.steps:
                return seq
            (a, b), rest = seq.steps[0], seq.steps[1:]
            c = next(s for s in K.sorted_simplices() if s not in (a, b)) if swap else b
            return replace(seq, steps=((a, c), *rest))

        monkeypatch.setattr(contract, "greedy_collapse", collapse)

    return patch


def short_contraction(k: float):
    """Every fiber contraction of the family read at k t, so its tracks
    stop short of the collapse's basepoint."""

    def patch(monkeypatch, f):
        real = homotopies.contraction_from_collapse

        def contraction(K, seq):
            H = real(K, seq)

            def track_factory(p):
                at = H.track_factory(p)
                return lambda t: at(k * t)

            return replace(H, track_factory=track_factory)

        monkeypatch.setattr(homotopies, "contraction_from_collapse", contraction)

    return patch


def short_fiber_track(k: float):
    """h1's second half read off its two fiber tracks at k of their time
    (``_H1Track.fiber_at``): the track from h1(x, 1/2) stops short of the
    fiber's basepoint, and the one to g_eps(f(x)) starts short of it.
    k = 1.0 changes no bit."""

    def patch(monkeypatch, f):
        def fiber_at(track, time):
            _, tr_a, tr_b = track.second
            u = 2.0 * time - 1.0
            return tr_a(k * (2.0 * u)) if u <= 0.5 else tr_b(k * (2.0 - 2.0 * u))

        monkeypatch.setattr(homotopies._H1Track, "fiber_at", fiber_at)

    return patch


def moved_level(k: float):
    """h1's second half at ybar moved k of the way to the first vertex of
    its carrier, after every start-up (``homotopies._start``), while h1's
    first half still ends at f(h1(x, 1/2)).  k = 0.0 changes no bit."""

    def patch(monkeypatch, f):
        real = homotopies._start

        def start(gamma, view, tr):
            real(gamma, view, tr)
            ybar, tr_a, tr_b = tr._second
            first = ybar.carrier.vertices[0]
            coords = ((1.0 - k) * c + (k if v == first else 0.0) for v, c in zip(ybar.carrier.vertices, ybar.coords))
            tr._second = Point(ybar.carrier, tuple(coords)), tr_a, tr_b

        monkeypatch.setattr(homotopies, "_start", start)

    return patch


def reweighted_first_half(k: float):
    """h1's first half stepped from chain coordinates reweighted after f(x)
    is located (``_H1Track``): k of the first coordinate's weight moves to
    the last, so h1' leaves h2's path, while h2 reads the located
    coordinates.  k = 0.0 changes no bit."""

    def patch(monkeypatch, f):
        real = homotopies._H1Track.__init__

        def init(track, gamma, view, x):
            real(track, gamma, view, x)
            t = np.array(track.t, dtype=float)
            w = k * t[0]
            t[0] -= w
            t[-1] += w
            track.t = t

        monkeypatch.setattr(homotopies._H1Track, "__init__", init)

    return patch


MUTANTS = {
    "collar(1.0)": collar(1.0),
    "collar(1.01)": collar(1.01),
    "collar(1.05)": collar(1.05),
    "collar images(1.01)": collar_images(1.01),
    "tilted g(1e-6)": tilted_g,
    "misweighted join": misweighted_join,
    "alpha_schedule(1.01)": alpha_schedule(1.01),
    "carrier metric(1.01)": carrier_metric(1.01),
    "trivial homology": trivial_homology,
    "false collapse": false_collapse,
    "collapse coface swapped": swapped_coface(True),
    "collapse coface swapped(no-op)": swapped_coface(False),
    "short contraction(0.9)": short_contraction(0.9),
    "short h1 second-half fiber track(0.9)": short_fiber_track(0.9),
    "h1 second-half level moved(0.0)": moved_level(0.0),
    "h1 second-half level moved(0.5)": moved_level(0.5),
    "h1 first half off h2(0.0)": reweighted_first_half(0.0),
    "h1 first half off h2(0.5)": reweighted_first_half(0.5),
}


@dataclass(frozen=True)
class Passes:
    """TheoremConsistent, with B to 4 places and the render's sha256 where
    pinned; ``item`` is the open item that should turn a defect's row."""

    bound: float | None = None
    sha256: str | None = None
    item: str | None = None


@dataclass(frozen=True)
class Refutes:
    """CounterexampleToImplementation, with exactly the control rows at
    comesh / d, for d in ``no_rows``, reading ``NO``, B to 4 places where
    pinned, and, where pinned, exactly the identity lines of
    ``identities`` above 1e-9, each with its rendered value."""

    no_rows: tuple[int, ...]
    bound: float | None = None
    identities: tuple[tuple[str, str], ...] | None = None


@dataclass(frozen=True)
class Undecided:
    """Unknown (exit 2), with exactly the fibers over ``fibers`` read as
    ``unknown``."""

    fibers: tuple[str, ...]


@dataclass(frozen=True)
class Raises:
    """``error`` escapes ``run_verify``; ``item`` is the open item that
    should turn it into a report line."""

    error: type
    item: str | None = "item 10"


D3_SHA = "60bcb28504ca7d6ef030cc5705248cae0ffce1e8d117f1224bc64be2cf887523"
D4_SHA = "28a6214f6e9c442aeb06a6ba7e3d0ad6f377d19d2d1208706c5cb51bf7006cd2"
# proj_map's render with the carrier metric scaled: its B is the healthy one
CARRIER_PROJ_SHA = "1343da914f7e50377d0cebe9a4b9ddcfe9b7933479893408a5956c07d1b8bbbe"
# the short contraction, and the short h1 second-half fiber track alike,
# move only proj_map's f(h1''(x,t)) identity, from 1.144e-16 to 1.241e-16;
# map_collapse's render is its healthy one
SHORT_PROJ_SHA = "2163584116d2a242981966ca432c8967344715e035c33623bbcca6df2f95a91a"
SHORT_COLLAPSE_SHA = "ff0aca772348098c8ddf1cc3b16ef37cb28853164e90aa80e1b74bf0693f3f34"
# the healthy renders, which the no-op twins of the h1 identity and collapse rows read
PROJ_SHA = "cc2f3be84ec09e9d6437a05082e3dd7e4941bf75cd4e6a47560d798d6a5d28f0"
COLLAPSE_SHA = SHORT_COLLAPSE_SHA
H1_FIRST, H1_SECOND = "f(h1'(x,t)) = h2(f(x),t)", "f(h1''(x,t)) constant in t"

ROWS = [
    ("collar(1.0)", "proj_map", Passes()),
    ("collar(1.0)", "map_collapse", Passes()),
    ("collar(1.0)", "D_3", Passes(0.9652, D3_SHA)),
    ("collar(1.0)", "D_4", Passes(0.7963, D4_SHA)),
    ("collar(1.01)", "proj_map", Refutes((16, 32))),
    ("collar(1.01)", "map_collapse", Raises(InversionError)),
    ("collar(1.01)", "D_3", Passes(0.9787, item="item 6")),
    ("collar(1.01)", "D_4", Passes(0.8070, item="item 6")),
    ("collar(1.05)", "proj_map", Raises(InversionError)),
    ("collar(1.05)", "map_collapse", Raises(InversionError)),
    ("collar(1.05)", "D_3", Refutes((2,))),
    ("collar(1.05)", "D_4", Passes(0.8498, item="item 6")),
    ("collar images(1.01)", "proj_map", Refutes((), bound=0.9943, identities=(("h1(x,0) = x", "1.892e-03"),))),
    ("collar images(1.01)", "map_collapse", Refutes((), bound=0.9974, identities=(("h1(x,0) = x", "3.387e-03"),))),
    ("tilted g(1e-6)", "proj_map", Refutes((), bound=0.9943, identities=(("f(g_eps(y)) = h2(y,1)", "1.414e-06"),))),
    ("tilted g(1e-6)", "map_collapse", Refutes((), bound=0.9974, identities=(("f(g_eps(y)) = h2(y,1)", "1.414e-06"),))),
    ("misweighted join", "proj_map", Raises(ProductDecompositionError, item=None)),
    ("misweighted join", "map_collapse", Raises(ProductDecompositionError, item=None)),
    ("alpha_schedule(1.01)", "proj_map", Refutes((), bound=1.0051)),
    ("alpha_schedule(1.01)", "map_collapse", Refutes((), bound=1.0097)),
    ("carrier metric(1.01)", "proj_map", Passes(0.9943, CARRIER_PROJ_SHA, item="item 5")),
    ("carrier metric(1.01)", "map_collapse", Refutes((2, 16, 32), bound=1.0074)),
    ("trivial homology", "map_bad", Undecided(("{a,b}",))),
    ("false collapse", "map_bad", Raises(CertificateMismatchError)),
    ("collapse coface swapped", "proj_map", Raises(CertificateMismatchError)),
    ("collapse coface swapped", "map_collapse", Raises(CertificateMismatchError)),
    ("collapse coface swapped(no-op)", "proj_map", Passes(sha256=PROJ_SHA)),
    ("collapse coface swapped(no-op)", "map_collapse", Passes(sha256=COLLAPSE_SHA)),
    ("short contraction(0.9)", "proj_map", Passes(sha256=SHORT_PROJ_SHA)),
    ("short contraction(0.9)", "map_collapse", Passes(sha256=SHORT_COLLAPSE_SHA)),
    ("short h1 second-half fiber track(0.9)", "proj_map", Passes(sha256=SHORT_PROJ_SHA, item="item 10")),
    ("short h1 second-half fiber track(0.9)", "map_collapse", Passes(sha256=SHORT_COLLAPSE_SHA, item="item 10")),
    # the h1 column is h2's over f(x), so only the identity lines see h1 leave h2's path
    ("h1 second-half level moved(0.0)", "proj_map", Passes(sha256=PROJ_SHA)),
    ("h1 second-half level moved(0.0)", "map_collapse", Passes(sha256=COLLAPSE_SHA)),
    ("h1 second-half level moved(0.5)", "proj_map", Refutes((), bound=0.9943, identities=((H1_SECOND, "7.029e-01"),))),
    ("h1 second-half level moved(0.5)", "map_collapse", Refutes((), bound=0.9974, identities=((H1_SECOND, "7.052e-01"),))),
    ("h1 first half off h2(0.0)", "proj_map", Passes(sha256=PROJ_SHA)),
    ("h1 first half off h2(0.0)", "map_collapse", Passes(sha256=COLLAPSE_SHA)),
    ("h1 first half off h2(0.5)", "proj_map",
     Refutes((), bound=0.9943, identities=((H1_FIRST, "6.956e-02"), ("h1(x,0) = x", "6.613e-02")))),
    ("h1 first half off h2(0.5)", "map_collapse",
     Refutes((), bound=0.9974, identities=((H1_FIRST, "1.641e-01"), ("h1(x,0) = x", "1.619e-01")))),
]


def _row_id(mutant, name, outcome):
    item = getattr(outcome, "item", None)
    return f"{mutant}-{name}" + (f"-{item}" if item else "")


@pytest.mark.parametrize("mutant, name, outcome", ROWS, ids=[_row_id(*row) for row in ROWS])
def test_mutant(mutant, name, outcome, monkeypatch):
    f = MAPS[name]()
    MUTANTS[mutant](monkeypatch, f)
    if isinstance(outcome, Raises):
        with pytest.raises(outcome.error):
            run_verify(f)
        return
    report = run_verify(f)
    if isinstance(outcome, Undecided):
        assert (report.overall, report.exit_code) == (UNKNOWN, 2)
        assert tuple(str(s) for s, v in report.fiber_verdicts.items() if v.kind == "unknown") == outcome.fibers
        return
    # item 4: the slice rows read yes under every mutant of this table
    assert [row.ok for row in report.slice_rows] == [True] * 3
    if isinstance(outcome, Passes):
        assert report.overall == THEOREM_CONSISTENT, outcome.item
        if outcome.bound is not None:
            assert round(report.bound, 4) == outcome.bound, outcome.item
        if outcome.sha256 is not None:
            assert hashlib.sha256(report.render().encode()).hexdigest() == outcome.sha256
        return
    assert report.overall == COUNTEREXAMPLE
    comesh = comesh_of(f.target)
    assert [round(comesh / row.eps) for row in report.control_rows if not row.ok] == list(outcome.no_rows)
    if outcome.bound is not None:
        assert round(report.bound, 4) == outcome.bound
    if outcome.identities is not None:
        turned = tuple((k, f"{v:.3e}") for k, v in report.identity_sups.items() if v > 1e-9)
        assert turned == outcome.identities


# the rows whose mutant patches a seam of the array kernels (``cell_parts``
# of g's table, ``fiber_at`` of h1's second half, ``_start`` and the located
# coordinates of an h1 track); map_collapse's short fiber-track row pins
# its healthy render, so no mutant can fail it
SEAM_ROWS = [
    ("tilted g(1e-6)", "proj_map"),
    ("tilted g(1e-6)", "map_collapse"),
    ("short h1 second-half fiber track(0.9)", "proj_map"),
    ("h1 second-half level moved(0.5)", "proj_map"),
    ("h1 second-half level moved(0.5)", "map_collapse"),
    ("h1 first half off h2(0.5)", "proj_map"),
    ("h1 first half off h2(0.5)", "map_collapse"),
]


@pytest.mark.parametrize("mutant, name, outcome", [row for row in ROWS if row[:2] in SEAM_ROWS], ids=[" on ".join(r) for r in SEAM_ROWS])
def test_seam_rows_fail_without_their_mutant(mutant, name, outcome, monkeypatch):
    """A seam row's pinned outcome is not the healthy verify's: with its
    mutant made a no-op, the row's assertions fail, so the verify reads the
    seam the mutant patches."""
    monkeypatch.setitem(MUTANTS, mutant, lambda monkeypatch, f: None)
    with pytest.raises(AssertionError):
        test_mutant(mutant, name, outcome, monkeypatch)
