import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogsep import Graph, GraphOfGroups, FiniteGroup, Word, bar
from gogsep.errors import (
    ComposabilityError,
    EdgeChainBroken,
    ElementOutOfGroup,
    GogsepError,
)

from conftest import (
    W,
    _random_element,
    make_f2c2,
    make_pslz,
    make_z2,
    reference_reduce,
    reference_validate,
)
from test_golden import _f2z_instance


def test_bar_involution():
    assert bar("e") == "~e"
    assert bar("~e") == "e"
    assert bar(bar("c1_2")) == "c1_2"


def test_graph_construction_and_accessors():
    g = Graph()
    g.add_vertex("u")
    g.add_vertex("w")
    g.add_edge("e", "u", "w")
    assert g.vertices == ["u", "w"]
    assert g.directed_edges == ["e", "~e"]
    assert g.edge_pairs() == ["e"]
    assert g.iota("e") == "u" and g.tau("e") == "w"
    assert g.iota("~e") == "w" and g.tau("~e") == "u"
    assert g.edges_at("u") == ["e"]
    assert g.is_connected()


def test_graph_rejects_duplicates_and_bad_names():
    g = Graph()
    g.add_vertex("u")
    with pytest.raises(GogsepError):
        g.add_vertex("u")
    g.add_edge("e", "u", "u")
    with pytest.raises(GogsepError):
        g.add_edge("e", "u", "u")
    with pytest.raises(GogsepError):
        g.add_edge("~f", "u", "u")
    with pytest.raises(GogsepError):
        g.add_edge("f", "u", "nowhere")


def test_loop_edge_shows_both_orientations():
    g = Graph()
    g.add_vertex("o")
    g.add_edge("p", "o", "o")
    assert g.edges_at("o") == ["p", "~p"]


def test_gog_requires_connected_and_covered():
    g = Graph()
    g.add_vertex("u")
    g.add_vertex("w")
    with pytest.raises(GogsepError):
        GraphOfGroups(
            g,
            {"u": FiniteGroup.cyclic(2), "w": FiniteGroup.cyclic(2)},
        )
    g2 = Graph()
    g2.add_vertex("u")
    with pytest.raises(GogsepError):
        GraphOfGroups(g2, {})


def test_word_validate_catches_broken_chains():
    gog = make_pslz()
    with pytest.raises(EdgeChainBroken):
        Word(gog, "u", ("1", "1"), ("~e",)).validate()
    with pytest.raises(ElementOutOfGroup):
        Word(gog, "u", ("b",), ()).validate()


def test_reduce_deletes_trivial_backtracks():
    gog = make_pslz()
    w = W(gog, "u", "a", "e", "1", "~e", "a")
    r = w.reduce()
    assert r.n == 0
    assert gog.group_at("u").is_identity(r.groups[0])
    assert r == r.reduce()
    w = W(gog, "u", "1", "e", "b", "~e", "a", "e", "b2", "~e", "1")
    assert w == w.reduce()
    w = W(gog, "u", "1", "e", "b", "~e", "1", "e", "b2", "~e", "1")
    assert w != w.reduce()


def test_reduce_cascades_through_exposed_pairs():
    gog = make_pslz()
    # deleting the middle backtrack merges b and b2, exposing the outer pair
    w = W(gog, "u", "a", "e", "b", "~e", "1", "e", "b2", "~e", "a")
    r = w.reduce()
    assert r.n == 0 and gog.group_at("u").is_identity(r.groups[0])


def test_reduce_is_idempotent_and_order_independent(pslz, rng):
    from conftest import gen_corpus

    for w in gen_corpus(pslz, "u", rng, 50, max_edges=6):
        r = w.reduce()
        assert r.reduce() == r


def test_inverse_and_mul_compose():
    gog = make_pslz()
    w = W(gog, "u", "a", "e", "b", "~e", "1")
    assert (w * w.inverse()).reduce().is_identity_loop()
    assert w.inverse().inverse() == w
    side = W(gog, "w", "b")
    with pytest.raises(ComposabilityError):
        w * side


def test_word_equality_is_structural():
    gog = make_pslz()
    w1 = W(gog, "u", "a", "e", "b", "~e", "1")
    w2 = W(gog, "u", "a", "e", "b", "~e", "1")
    assert w1 == w2 and hash(w1) == hash(w2)
    assert w1 != W(gog, "u", "a", "e", "b2", "~e", "1")


def test_as_strings_round_trip(pslz):
    w = W(pslz, "u", "a", "e", "b2", "~e", "a")
    assert w.as_strings() == ["a", "e", "b2", "~e", "a"]


# Multi-vertex targets for the word references: PSL(2,Z), F2*C2, Z*Z and
# F2*Z, where a backtrack's middle letter lives in another group than the
# one at the backtrack's start.
WORD_TARGETS = {
    "f2c2": make_f2c2,
    "f2z": lambda: _f2z_instance()[0],
    "pslz": make_pslz,
    "z2": make_z2,
}


def _walk(gog, rng, steps):
    """A random word that often turns back along its last edge with an
    identity letter between, so reductions nest and cascade."""
    graph = gog.graph
    start = v = rng.choice(graph.vertices)
    letters, edges = [], []
    for _ in range(steps):
        oracle = gog.group_at(v)
        one = rng.random() < 0.5
        letters.append(oracle.identity() if one else _random_element(oracle, rng, 2))
        if edges and rng.random() < 0.5:
            e = graph._rev[edges[-1]]
        else:
            e = rng.choice(graph.edges_at(v))
        edges.append(e)
        v = graph.tau(e)
    letters.append(_random_element(gog.group_at(v), rng, 2))
    return Word(gog, start, tuple(letters), tuple(edges))


def _broken(gog, w, rng, how):
    """w with one edge, letter or the start replaced by an arbitrary one."""
    groups, edges, start = list(w.groups), list(w.edges), w.start
    if how == "edge" and edges:
        edges[rng.randrange(len(edges))] = rng.choice(gog.graph.directed_edges + ["zz"])
    elif how == "letter":
        other = gog.group_at(rng.choice(gog.graph.vertices))
        groups[rng.randrange(len(groups))] = _random_element(other, rng, 2)
    elif how == "start":
        start = rng.choice(gog.graph.vertices + ["zz"])
    return Word(gog, start, tuple(groups), tuple(edges))


def _outcome(fn, w):
    try:
        return "ok", fn(w).key()
    except Exception as exc:  # both must fail alike
        return "raised", type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(WORD_TARGETS)),
    st.integers(0, 10**6),
    st.integers(0, 8),
    st.sampled_from(["none", "edge", "letter", "start"]),
)
def test_reduce_and_validate_match_the_references(name, seed, steps, how):
    gog = WORD_TARGETS[name]()
    rng = random.Random(seed)
    w = _broken(gog, _walk(gog, rng, steps), rng, how)
    assert _outcome(Word.validate, w) == _outcome(reference_validate, w)
    assert _outcome(Word.reduce, w) == _outcome(reference_reduce, w)
    if how == "none":
        r = w.reduce()
        assert (r is w) == (r.key() == w.key())


def test_a_backtrack_is_deleted_by_the_identity_where_it_turns():
    """e 1 ~e with e: x -> u turns at u, whose C2 spells its identity "1";
    the identity of F2 at x is the empty word."""
    gog = make_f2c2()
    assert W(gog, "x", "x1", "e", "1", "~e", "x2").reduce() == W(gog, "x", "x1.x2")
    w = W(gog, "x", "x1", "e", "a", "~e", "x2")
    assert w.reduce() is w
    w = W(gog, "u", "a", "~e", "1", "e", "a")  # turns at x
    assert w.reduce() == W(gog, "u", "1")
