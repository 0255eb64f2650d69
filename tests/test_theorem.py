"""The paper's theorem as a property of ``run_verify`` on generated maps.

Contractible point inverses hold exactly when f is an eps-controlled
homotopy equivalence for all eps > 0.  So a map whose fibers are all
contractible verifies as ``TheoremConsistent``; a map with a refuted fiber
takes the contrapositive route, with one obstruction per refuted simplex;
a map with a fiber of unknown contractibility exits with code 2; and no
generated map, each well formed, makes ``run_verify`` raise.  The examples
are derandomized, so the test reads the same maps on every run."""

import string

from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from plcontrol import SimplicialMap, closure_complex, run_verify
from plcontrol.verify import COUNTEREXAMPLE, THEOREM_CONSISTENT, UNKNOWN
from test_contract import dunce_hat, staircase_prism
from test_homotopies import random_simplicial_maps

SAMPLES, CERTIFICATE_SAMPLES = 30, 10


@st.composite
def contractible_maps(draw):
    """Maps whose fibers are contractible by construction, of dimension at
    most 4: the projection Y x [0,1] -> Y of the staircase product over a
    random Y of dimension at most 3 (each fiber an interval), or an
    n-simplex, n <= 4, onto a k-simplex by a surjective vertex map (each
    fiber a product of simplices)."""
    if draw(st.booleans()):
        gens = draw(
            st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True), min_size=1, max_size=2)
        )
        return staircase_prism(closure_complex([tuple(g) for g in gens]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    src = draw(st.permutations(string.ascii_lowercase[: n + 1]))
    onto = [f"y{i}" for i in range(k + 1)]
    vmap = dict(zip(src, onto))  # the first k + 1 vertices cover the target
    vmap.update((v, draw(st.sampled_from(onto))) for v in src[k + 1 :])
    return SimplicialMap(closure_complex([tuple(src)]), closure_complex([tuple(onto)]), vmap)


def _dunce_hat_to_a_point() -> SimplicialMap:
    """A fiber of unknown contractibility: the dunce hat is contractible but
    has no free face."""
    X = dunce_hat()
    return SimplicialMap(X, closure_complex([("pt",)]), {v: "pt" for v in X.vertex_order})


@given(
    st.one_of(
        random_simplicial_maps(),
        random_simplicial_maps(labels="abcdefgh", max_size=5, targets="uvwx"),
        contractible_maps().map(lambda f: (f, "contractible")),
    )
)
@example(_dunce_hat_to_a_point())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_verdict_agrees_with_the_fibers_on_generated_maps(case):
    f, expected = case if isinstance(case, tuple) else (case, None)
    note(f"{[s.vertices for s in f.source.maximal_simplices()]} -> {f.vertex_map}")
    rep = run_verify(f, samples=SAMPLES, certificate_samples=CERTIFICATE_SAMPLES)
    kinds = [v.kind for v in rep.fiber_verdicts.values()]
    assert expected is None or set(kinds) == {expected}, rep.render()
    refuted = [s for s, v in rep.fiber_verdicts.items() if v.kind == "not_contractible"]
    if refuted:
        assert (rep.overall, rep.exit_code) == (COUNTEREXAMPLE, 1), rep.render()
        assert list(rep.obstructions) == refuted
        assert any(m.endswith("(expected: contrapositive of the equivalence)") for m in rep.messages)
    elif "unknown" in kinds:
        assert (rep.overall, rep.exit_code) == (UNKNOWN, 2), rep.render()
    else:
        assert (rep.overall, rep.exit_code) == (THEOREM_CONSISTENT, 0), rep.render()
        assert all(row.ok for row in rep.control_rows)
        assert all(v <= 1e-9 for v in rep.identity_sups.values())
        assert rep.bound <= 1.0 + 1e-3
