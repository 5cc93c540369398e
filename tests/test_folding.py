import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogsep import (
    DecoratedMorphism,
    Graph,
    GraphOfGroups,
    brute_member,
    check_cover,
    check_immersion,
    cover_index,
    enumerate_ball_elements,
    fold,
    kurosh_rank,
    reduced_kurosh_rank,
    subgroup_member,
    Word,
    trim_core,
    wedge,
)
from gogsep.errors import EndpointMismatch, GogsepError, NotACover
import gogsep.morphism
from gogsep.morphism import _Working, lifts_by_edge

from conftest import (
    W,
    _random_element,
    gen_corpus,
    handles_built,
    identity_morphism,
    make_c2c3c2,
    make_dinfty,
    make_f2c2,
    make_pslz,
    make_rose2,
    make_z2,
    random_loop,
    reference_wedge,
    remake,
)
from test_fold_reference import make_f2z


# -- wedge -------------------------------------------------------------------


def test_wedge_ab_structure(pslz):
    m = wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")])
    assert sorted(m.domain.graph.vertices) == ["v0", "v1_1"]
    assert sorted(m.domain.graph.edge_pairs()) == ["c1_1", "c1_2"]
    assert m.delta["c1_1"] == "a" and m.delta["~c1_1"] == "1"
    assert m.delta["c1_2"] == "b" and m.delta["~c1_2"] == "1"
    assert m.vgroup_image["v0"].is_trivial()
    assert check_immersion(m).ok  # a single reduced loop needs no folding


def test_wedge_length_zero_generators_feed_base_subgroup(pslz):
    m = wedge(pslz, "u", [W(pslz, "u", "a"), pslz.identity_word("u")])
    assert sorted(m.domain.graph.vertices) == ["v0"]
    assert m.domain.graph.edge_pairs() == []
    assert m.vgroup_image["v0"].member("a")


def test_wedge_last_edge_carries_inverted_tail(rose2):
    # p-conjugate loop: the closing side must undo the trailing letter... but
    # C1 is trivial, so exercise the tail with an integer-carrying target.
    m = wedge(rose2, "o", [W(rose2, "o", "1", "p", "1", "q", "1")])
    assert m.delta["~c1_2"] == "1"
    assert sorted(m.domain.graph.edge_pairs()) == ["c1_1", "c1_2"]


def test_wedge_rejects_bad_generators(pslz):
    with pytest.raises(EndpointMismatch):
        wedge(pslz, "u", [W(pslz, "w", "b")])
    with pytest.raises(EndpointMismatch):
        wedge(pslz, "u", [W(pslz, "u", "1", "e", "1")])
    with pytest.raises(GogsepError):
        wedge(pslz, "zz", [])
    other = make_pslz()  # equal to pslz, but another graph of groups
    good, foreign = W(pslz, "u", "a"), W(other, "u", "a")
    with pytest.raises(GogsepError, match="^generator 2 does not live on the target$"):
        wedge(pslz, "u", [good, foreign])


WEDGE_TARGETS = {
    "rose2": (make_rose2, "o"),
    "pslz": (make_pslz, "u"),
    "f2c2": (make_f2c2, "x"),
    "z2": (make_z2, "x"),
    "f2z": (make_f2z, "x"),
}


def _layout(m):
    """What a stage's output stores, in stored order: the base, the
    out-lists, the edge tables, the maps, each vertex's oracle and its
    handle's kind, group and generators."""
    g = m.domain.graph
    return (
        m.domain.base,
        list(g._out.items()),
        list(g._iota.items()),
        list(g._rev.items()),
        list(m.edge_map.items()),
        list(m.delta.items()),
        list(m.vertex_map.items()),
        list(m.domain.vertex_group.items()),
        [(v, type(h), h.group, h.generators) for v, h in m.vgroup_image.items()],
    )


def _tailed_loop(target, u0, rng):
    """A loop with at least one edge whose last letter is nontrivial, or
    None when the draw has no edge or the base group no nontrivial element."""
    oracle, loop = target.group_at(u0), random_loop(target, u0, rng)
    if not loop.n or oracle.kind == "finite" and len(oracle.elements) == 1:
        return None
    tail = oracle.identity()
    while oracle.is_identity(tail):
        tail = _random_element(oracle, rng, 3)
    return Word(target, u0, loop.groups[:-1] + (tail,), loop.edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(WEDGE_TARGETS)), st.integers(0, 10**6), st.integers(0, 4))
def test_wedge_matches_the_reference(name, seed, count):
    """Random loops, one of length zero and, where the base group allows,
    one ending on a nontrivial letter; the folds of the two wedges agree."""
    make, u0 = WEDGE_TARGETS[name]
    target = make()
    rng = random.Random(seed)
    gens = [random_loop(target, u0, rng) for _ in range(count)]
    gens.append(random_loop(target, u0, rng, max_edges=0))
    tailed = _tailed_loop(target, u0, rng)
    gens += [tailed] if tailed is not None else []
    rng.shuffle(gens)
    m, ref = wedge(target, u0, gens), reference_wedge(target, u0, gens)
    assert _layout(m) == _layout(ref)
    assert _layout(fold(m)) == _layout(fold(ref))


@pytest.mark.parametrize("name", sorted(WEDGE_TARGETS))
def test_wedge_builds_one_trivial_handle_per_target_vertex(name, monkeypatch):
    """Circle vertices share their oracle's trivial handle; the base gets
    its own, the subgroup its length-zero generators make."""
    make, u0 = WEDGE_TARGETS[name]
    target = make()
    gens = gen_corpus(target, u0, random.Random(7), 6, max_edges=6)
    built = handles_built(monkeypatch)
    m = wedge(target, u0, gens)
    assert len(m.domain.graph.vertices) > len(target.graph.vertices) + 1
    assert built() <= len(target.graph.vertices) + 1
    before = built()
    wedge(target, u0, gens)
    assert built() == before + 1


@pytest.mark.parametrize("name", sorted(WEDGE_TARGETS))
def test_fold_of_a_wedge_groups_lifts_only_where_two_share_a_target_edge(
    name, monkeypatch
):
    make, u0 = WEDGE_TARGETS[name]
    target = make()
    gens = gen_corpus(target, u0, random.Random(3), 8, max_edges=8)
    m = wedge(target, u0, gens)
    grouped = []

    def recording(edges, edge_map):
        grouped.append([edge_map[e] for e in edges])
        return lifts_by_edge(edges, edge_map)

    monkeypatch.setattr(gogsep.morphism, "lifts_by_edge", recording)
    fold(m)
    assert grouped
    assert all(len(set(images)) < len(images) for images in grouped)


# -- fold --------------------------------------------------------------------


def test_fold_merges_duplicate_generators(pslz):
    g = W(pslz, "u", "a", "e", "b", "~e", "1")
    m = fold(wedge(pslz, "u", [g, g]))
    assert check_immersion(m).ok
    assert sorted(m.domain.graph.vertices) == ["v0", "v1_1"]
    assert len(m.domain.graph.edge_pairs()) == 2
    assert subgroup_member(m, "v0", g)


def test_fold_whole_group_collapses_to_identity_cover(pslz):
    gens = [
        W(pslz, "u", "a", "e", "b", "~e", "1"),
        W(pslz, "u", "a", "e", "b2", "~e", "1"),
    ]
    m = fold(wedge(pslz, "u", gens))
    # <ab, ab^2> contains b and a, hence everything
    assert cover_index(m) == 1
    assert all(m.vgroup_image[v].index() == 1 for v in m.domain.graph.vertices)


def test_fold_schreier_subgroup_of_z2(z2):
    gens = [
        W(z2, "x", "2"),
        W(z2, "x", "0", "e", "1", "~e", "0"),
        W(z2, "x", "1", "e", "1", "~e", "-1"),
    ]
    m = fold(wedge(z2, "x", gens))
    assert check_immersion(m).ok
    indices = {v: m.vgroup_image[v].index() for v in m.domain.graph.vertices}
    assert indices == {"v0": 2, "v2_1": 1, "v3_1": 1}
    assert kurosh_rank(m) == 3
    assert reduced_kurosh_rank(m) == 2


def test_fold_is_idempotent(pslz, dinfty):
    for gog, gens in [
        (pslz, [W(pslz, "u", "a", "e", "b", "~e", "1"), W(pslz, "u", "a")]),
        (dinfty, [W(dinfty, "u", "1", "e", "b", "~e", "1")]),
    ]:
        m = fold(wedge(gog, gog.base, gens))
        again = fold(m)
        assert sorted(again.domain.graph.vertices) == sorted(m.domain.graph.vertices)
        assert again.delta == m.delta and again.edge_map == m.edge_map


def test_fold_agrees_with_brute_force_membership(pslz):
    gens = [
        W(pslz, "u", "a", "e", "b", "~e", "1"),
        W(pslz, "u", "1", "e", "b", "~e", "a", "e", "b2", "~e", "1"),
    ]
    m = fold(wedge(pslz, "u", gens))
    assert check_immersion(m).ok
    for w in enumerate_ball_elements(pslz, "u", 4):
        assert subgroup_member(m, "v0", w) == brute_member(pslz, "u", gens, w), (
            w.as_strings()
        )


def test_fold_keeps_base_vertex_name(dinfty):
    # folding <a, ab> forces merges through the base; v0 must survive them
    gens = [W(dinfty, "u", "a"), W(dinfty, "u", "a", "e", "b", "~e", "1")]
    m = fold(wedge(dinfty, "u", gens))
    assert "v0" in m.domain.graph.vertices
    assert m.domain.base == "v0"
    assert check_immersion(m).ok


# -- trim --------------------------------------------------------------------


def hair_morphism(pslz):
    g = Graph()
    g.add_vertex("v0")
    g.add_vertex("q1")
    g.add_vertex("q2")
    g.add_edge("h1", "v0", "q1")
    g.add_edge("h2", "q1", "q2")
    cu, cw = pslz.group_at("u"), pslz.group_at("w")
    dom = GraphOfGroups(g, {"v0": cu, "q1": cw, "q2": cu}, base="v0")
    one_u, one_w = cu.identity(), cw.identity()
    return DecoratedMorphism(
        dom,
        pslz,
        {"v0": "u", "q1": "w", "q2": "u"},
        {"h1": "e", "~h1": "~e", "h2": "~e", "~h2": "e"},
        {"v0": cu.trivial_subgroup(), "q1": cw.trivial_subgroup(),
         "q2": cu.trivial_subgroup()},
        {"h1": one_u, "~h1": one_w, "h2": one_w, "~h2": one_u},
    )


def test_trim_core_peels_hair(pslz):
    m = hair_morphism(pslz)
    t = trim_core(m)
    assert sorted(t.domain.graph.vertices) == ["v0"]
    assert t.domain.graph.edge_pairs() == []


def test_trim_core_respects_subgroups(pslz):
    m = hair_morphism(pslz)
    heavy = remake(
        m,
        vgroup_image={**m.vgroup_image, "q2": pslz.group_at("u").full_subgroup()}
    )
    t2 = trim_core(heavy)
    assert sorted(t2.domain.graph.vertices) == ["q1", "q2", "v0"]


def test_trim_core_no_op_returns_same_object(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    assert trim_core(m) is m


def test_trim_core_copies_nothing_when_there_is_nothing_to_peel(pslz, monkeypatch):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))

    def no_copy(cls, m):
        raise AssertionError("trim_core copied a morphism with no leaf")

    monkeypatch.setattr(_Working, "of", classmethod(no_copy))
    assert trim_core(m) is m


CORE_TARGETS = {
    "pslz": (make_pslz, "u"),
    "dinfty": (make_dinfty, "u"),
    "c2c3c2": (make_c2c3c2, "u"),
    "rose2": (make_rose2, "o"),
    "z2": (make_z2, "x"),
    "f2c2": (make_f2c2, "x"),
}


def _spelled_out(*words):
    """The product of loops at one vertex as one word, with no reduction."""
    groups, edges = words[0].groups, words[0].edges
    for w in words[1:]:
        joined = w.gog.group_at(w.start).mul(groups[-1], w.groups[0])
        groups, edges = groups[:-1] + (joined,) + w.groups[1:], edges + w.edges
    return Word(words[0].gog, words[0].start, groups, edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CORE_TARGETS)), st.integers(0, 10**6), st.integers(1, 4))
def test_the_fold_of_a_wedge_is_already_a_core(name, seed, count):
    """A non-base vertex with trivial subgroup lies inside the lift of some
    reduced generator, which never turns back, so trim_core finds no leaf.
    One generator a * c * c^-1 is given unreduced, as wedge must reduce it."""
    make, u0 = CORE_TARGETS[name]
    target = make()
    rng = random.Random(seed)
    gens = gen_corpus(target, u0, rng, count)
    c = gen_corpus(target, u0, rng, 1)[0]
    gens.append(_spelled_out(rng.choice(gens), c, c.inverse()))
    m = fold(wedge(target, u0, gens))
    assert trim_core(m) is m


# -- rank and degree ---------------------------------------------------------


def test_kurosh_rank_examples(pslz, rose2):
    ab = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    assert kurosh_rank(ab) == 1 and reduced_kurosh_rank(ab) == 0
    idm = identity_morphism(rose2)
    assert kurosh_rank(idm) == 2 and reduced_kurosh_rank(idm) == 1
    idp = identity_morphism(pslz)
    assert kurosh_rank(idp) == 2  # two nontrivial factors, tree graph


def test_cover_index_identity(pslz, c2c3c2):
    assert cover_index(identity_morphism(pslz)) == 1
    assert cover_index(identity_morphism(c2c3c2)) == 1


def test_cover_index_rejects_mere_immersions(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    assert check_immersion(m).ok and not check_cover(m).ok
    with pytest.raises(NotACover):
        cover_index(m)
