import bisect
import random
import sys
from collections import deque
from pathlib import Path

import pytest

from gogsep import (
    CheckReport,
    DecoratedMorphism,
    FiniteGroup,
    FreeGroup,
    Graph,
    GraphOfGroups,
    IntGroup,
    LiftOutcome,
    Word,
    bar,
    gog_from_json,
    word_from_json,
)
from gogsep.completion import DEGREE_CAP
from gogsep.core import fresh_names
from gogsep.errors import (
    DidNotClose,
    EdgeChainBroken,
    ElementOutOfGroup,
    EndpointMismatch,
    ForeignElement,
    GogsepError,
    InfiniteIndexVertex,
    NotAnImmersion,
    SchemaError,
    UnboundedEnumeration,
)
from gogsep.jsonio import _expect
from gogsep.morphism import _Working, lifts_by_edge
from gogsep.oracles import FiniteSubgroup, FreeSubgroup, IntSubgroup
from gogsep.verifier import _enumerate, _presentation

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def W(gog, start, *flat):
    """Word from its flat JSON spelling: element, edge, element, ..."""
    return word_from_json(gog, {"start": start, "word": list(flat)})


def remake(m, **overrides):
    """m rebuilt through the public constructor, with some data replaced."""
    data = dict(
        domain=m.domain,
        target=m.target,
        vertex_map=m.vertex_map,
        edge_map=m.edge_map,
        vgroup_image=m.vgroup_image,
        delta=m.delta,
    )
    data.update(overrides)
    return DecoratedMorphism(**data)


def assert_well_built(m):
    """The invariants a stage's frozen output carries without a check.

    The morphism validates; its graph rebuilt through the public
    constructors is connected, holds its base and has the same directed
    edges and out-lists; each out-list is sorted; both ends of every pair
    are present, with iota(~e) == tau(e); the reverse table holds the same
    edges as iota, maps each e to ~e and is its own inverse.
    """
    m.validate()
    g = m.domain.graph
    rebuilt = Graph()
    for v in g.vertices:
        rebuilt.add_vertex(v)
    for e in g.edge_pairs():
        rebuilt.add_edge(e, g.iota(e), g.tau(e))
    GraphOfGroups(rebuilt, m.domain.vertex_group, base=m.domain.base)
    assert g.directed_edges == rebuilt.directed_edges
    for v in g.vertices:
        assert g.edges_at(v) == sorted(g.edges_at(v)) == rebuilt.edges_at(v)
    for e in g.directed_edges:
        assert g.has_edge(bar(e)) and g.iota(bar(e)) == g.tau(e)
    assert g._rev.keys() == g._iota.keys()
    for e, back in g._rev.items():
        assert back == bar(e) and g._rev[back] == e


def count_calls(monkeypatch, owner, *names):
    """Count the calls of owner's named functions; returns {name: calls}.

    A class gets its methods wrapped in place.  A module's functions are
    wrapped in every ``gogsep`` module that binds them, so calls through
    any import are counted.
    """
    counts = dict.fromkeys(names, 0)

    def counter(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        original = getattr(owner, name)
        wrapper = counter(name, original)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "gogsep":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    return counts


def handles_built(monkeypatch):
    """Count the subgroup handles built from now on, of every kind; returns
    a function that reads the running total."""
    counts = [count_calls(monkeypatch, cls, "__init__")
              for cls in (FiniteSubgroup, IntSubgroup, FreeSubgroup)]
    return lambda: sum(c["__init__"] for c in counts)


def perfbench_instance(workload, seed, size, index):
    """(target, base, generators, element) of one benchmark instance, made
    by ``perfbench/workloads.py`` and read through the JSON readers."""
    root = str(INSTANCES.parent)
    if root not in sys.path:
        sys.path.append(root)
    from perfbench.workloads import make_instance

    inst = make_instance(workload, seed, size, index)
    target = gog_from_json(inst.target)
    gens = [word_from_json(target, d) for d in inst.generators]
    return target, inst.base, gens, word_from_json(target, inst.element)


def make_pslz():
    g = Graph()
    g.add_vertex("u")
    g.add_vertex("w")
    g.add_edge("e", "u", "w")
    return GraphOfGroups(
        g,
        {"u": FiniteGroup.cyclic(2, "a"), "w": FiniteGroup.cyclic(3, "b")},
        base="u",
    )


def make_dinfty():
    g = Graph()
    g.add_vertex("u")
    g.add_vertex("w")
    g.add_edge("e", "u", "w")
    return GraphOfGroups(
        g,
        {"u": FiniteGroup.cyclic(2, "a"), "w": FiniteGroup.cyclic(2, "b")},
        base="u",
    )


def make_z2():
    g = Graph()
    g.add_vertex("x")
    g.add_vertex("y")
    g.add_edge("e", "x", "y")
    return GraphOfGroups(g, {"x": IntGroup(), "y": IntGroup()}, base="x")


def make_c2c3c2():
    g = Graph()
    for v in ("u", "w", "z"):
        g.add_vertex(v)
    g.add_edge("e", "u", "w")
    g.add_edge("f", "w", "z")
    return GraphOfGroups(
        g,
        {
            "u": FiniteGroup.cyclic(2, "a"),
            "w": FiniteGroup.cyclic(3, "b"),
            "z": FiniteGroup.cyclic(2, "c"),
        },
        base="u",
    )


def make_rose2():
    g = Graph()
    g.add_vertex("o")
    g.add_edge("p", "o", "o")
    g.add_edge("q", "o", "o")
    return GraphOfGroups(g, {"o": FiniteGroup.cyclic(1, name="C1")}, base="o")


def pslz_conjugates(k):
    """A fold-heavy separation case over PSL(2,Z) = C2 * C3.

    H = <x a x^-1, (a b2)^k, z b z^-1> with x = (ab)^k and z = (a b2)^j a,
    j = k // 2, and g = a b2.  Folding zips each conjugate's two halves
    together, about 4k folds in all, and grows the C2 subgroup at the tip
    of x and the C3 subgroup at the tip of z.
    """
    t = make_pslz()
    j = k // 2
    x_a = ["a", "e", "b", "~e"] * k + ["a"] + ["e", "b2", "~e", "a"] * k
    ab2 = ["a", "e", "b2", "~e"] * k + ["1"]
    z_b = ["a", "e", "b2", "~e"] * j + ["a", "e", "b", "~e", "a"] + ["e", "b", "~e", "a"] * j
    gens = [W(t, "u", *x_a), W(t, "u", *ab2), W(t, "u", *z_b)]
    return t, "u", gens, W(t, "u", "a", "e", "b2", "~e", "1")


def make_f2c2():
    g = Graph()
    g.add_vertex("x")
    g.add_vertex("u")
    g.add_edge("e", "x", "u")
    return GraphOfGroups(
        g, {"x": FreeGroup(2), "u": FiniteGroup.cyclic(2, "a")}, base="x"
    )


@pytest.fixture
def pslz():
    return make_pslz()


@pytest.fixture
def dinfty():
    return make_dinfty()


@pytest.fixture
def z2():
    return make_z2()


@pytest.fixture
def c2c3c2():
    return make_c2c3c2()


@pytest.fixture
def rose2():
    return make_rose2()


@pytest.fixture
def f2c2():
    return make_f2c2()


def identity_morphism(gog):
    """The degree-1 cover of a graph of groups by itself."""
    g = gog.graph
    return DecoratedMorphism(
        domain=gog,
        target=gog,
        vertex_map={v: v for v in g.vertices},
        edge_map={e: e for e in g.directed_edges},
        vgroup_image={v: gog.group_at(v).full_subgroup() for v in g.vertices},
        delta={e: gog.group_at(g.iota(e)).identity() for e in g.directed_edges},
    )


def restriction_check(small, big):
    """Does big restrict to small on small's vertices and edges, verbatim?"""
    violations = []
    if small.target is not big.target:
        violations.append({"kind": "target", "detail": "different targets"})
        return CheckReport(False, violations)
    for v in small.domain.graph.vertices:
        if not big.domain.graph.has_vertex(v):
            violations.append({"kind": "vertex-missing", "vertex": v})
            continue
        if small.vertex_map[v] != big.vertex_map[v]:
            violations.append({"kind": "vertex-image", "vertex": v})
        if canonical_key(small.vgroup_image[v]) != canonical_key(big.vgroup_image[v]):
            violations.append({"kind": "subgroup", "vertex": v})
    for e in small.domain.graph.directed_edges:
        if not big.domain.graph.has_edge(e):
            violations.append({"kind": "edge-missing", "edge": e})
            continue
        if small.edge_map[e] != big.edge_map[e]:
            violations.append({"kind": "edge-image", "edge": e})
            continue
        if small.delta[e] != big.delta[e]:  # element values are canonical
            violations.append({"kind": "delta", "edge": e})
    return CheckReport(not violations, violations)


def lifts_at(m, v):
    """{f: lifts of f at v}, for each target edge f lifted at v, sorted by id."""
    return lifts_by_edge(m.domain.graph.edges_at(v), m.edge_map)


def insort_pair(w, e, frm, to, f, d, d_bar):
    """Reference writer for ``_Working.add_pairs``: the one pair e: frm -> to
    over f, with delta d and d_bar on ~e, each direction inserted into its
    sorted out-list."""
    back = bar(e)
    w.iota[e], w.iota[back] = frm, to
    w.rev[e], w.rev[back] = back, e
    bisect.insort(w.out[frm], e)
    bisect.insort(w.out[to], back)
    w.edge_map[e], w.edge_map[back] = f, w.target.graph._rev[f]
    w.delta[e], w.delta[back] = d, d_bar


def reference_wedge(target, u0, gens):
    """Reference for ``wedge``: each circle vertex gets the trivial handle
    its oracle returns, and each edge pair goes in through ``insort_pair``."""
    if not target.graph.has_vertex(u0):
        raise GogsepError(f"unknown base vertex {u0!r}")
    base = "v0"
    w = _Working(target, base)
    w.add_vertex(base, u0, None)
    base_letters = []
    for k, g in enumerate(gens, start=1):
        if g.gog is not target:
            raise GogsepError(f"generator {k} does not live on the target")
        if g.start != u0 or not g.is_loop():
            raise EndpointMismatch(f"generator {k} is not a loop at {u0!r}")
        g = g.validate().reduce()
        if g.n == 0:
            if not target.group_at(u0).is_identity(g.groups[0]):
                base_letters.append(g.groups[0])
            continue
        prev = base
        for i in range(1, g.n + 1):
            at = g.vertex_at(i)
            oracle = target.group_at(at)
            if i < g.n:
                v = f"v{k}_{i}"
                w.add_vertex(v, at, oracle.trivial_subgroup())
            else:
                v = base
            insort_pair(
                w,
                f"c{k}_{i}",
                prev,
                v,
                g.edges[i - 1],
                g.groups[i - 1],
                oracle.inv(g.groups[g.n]) if i == g.n else oracle.identity(),
            )
            prev = v
    w.vgroup_image[base] = target.group_at(u0).subgroup(base_letters)
    return w.freeze()


def reference_word_from_json(gog, doc, path="$"):
    """Reference for ``jsonio.word_from_json``: one walk over the flat list,
    parsing each letter at the vertex reached and checking each edge as it
    comes, so the first faulty position raises."""
    if isinstance(doc, dict):
        start = _expect(doc, "start", str, path)
        flat = _expect(doc, "word", list, path)
        path = f"{path}.word"
    else:
        raise SchemaError(path, "word must be an object with start and word")
    if not gog.graph.has_vertex(start):
        raise SchemaError(path, f"unknown start vertex {start!r}")
    if len(flat) % 2 != 1:
        raise SchemaError(path, "word must alternate element, edge, element")
    iota, rev = gog.graph._iota, gog.graph._rev
    groups = []
    edges = []
    v = start
    for i, item in enumerate(flat):
        if i % 2 == 0:
            try:
                groups.append(gog.group_at(v).parse_element(item))
            except ForeignElement as exc:
                raise SchemaError(f"{path}[{i}]", str(exc)) from exc
        else:
            back = rev.get(item) if isinstance(item, str) else None
            if back is None:
                raise SchemaError(f"{path}[{i}]", f"unknown edge {item!r}")
            if iota[item] != v:
                raise SchemaError(
                    f"{path}[{i}]", f"edge {item!r} does not start at {v!r}"
                )
            edges.append(item)
            v = iota[back]
    return Word(gog, start, tuple(groups), tuple(edges))


def _reference_edge_record(e, epath, vertices, ids):
    if not isinstance(e, dict):
        raise SchemaError(epath, "edge must be an object")
    eid = _expect(e, "id", str, epath)
    if not eid or eid.startswith("~"):
        raise SchemaError(f"{epath}.id", f"bad edge id {eid!r}")
    if eid in ids:
        raise SchemaError(f"{epath}.id", f"duplicate edge {eid!r}")
    frm = _expect(e, "from", str, epath)
    to = _expect(e, "to", str, epath)
    if frm not in vertices or to not in vertices:
        raise SchemaError(epath, f"endpoint of {eid!r} is not a vertex")
    ids.add(eid)
    return eid, frm, to


def reference_domain_from_json(target, doc, convention, path):
    """Reference for ``jsonio._domain_from_json``: each field through
    ``_expect`` with its path built up front, a fresh handle per vertex,
    and each edge pair through ``insort_pair``."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "domain must be an object")
    verts = _expect(doc, "vertices", dict, path)
    if not verts:
        raise SchemaError(f"{path}.vertices", "needs at least one vertex")
    w = _Working(target)
    for v, spec in verts.items():
        if not isinstance(v, str) or not v:
            raise SchemaError(f"{path}.vertices", f"bad vertex id {v!r}")
        vpath = f"{path}.vertices.{v}"
        if not isinstance(spec, dict):
            raise SchemaError(vpath, "vertex must be an object")
        u = _expect(spec, "to", str, vpath)
        if not target.graph.has_vertex(u):
            raise SchemaError(f"{vpath}.to", f"unknown target vertex {u!r}")
        oracle = target.group_at(u)
        gens = []
        for i, item in enumerate(_expect(spec, "subgroup", list, vpath)):
            try:
                gens.append(oracle.parse_element(item))
            except ForeignElement as exc:
                raise SchemaError(f"{vpath}.subgroup[{i}]", str(exc)) from exc
        w.add_vertex(v, u, oracle.subgroup(gens))
    ids = set()
    for i, e in enumerate(_expect(doc, "edges", list, path)):
        epath = f"{path}.edges[{i}]"
        eid, frm, to = _reference_edge_record(e, epath, w.out, ids)
        onto = _expect(e, "onto", str, epath)
        if not target.graph.has_edge(onto):
            raise SchemaError(f"{epath}.onto", f"unknown target edge {onto!r}")
        if target.graph.iota(onto) != w.vertex_map[frm] or (
            target.graph.tau(onto) != w.vertex_map[to]
        ):
            raise SchemaError(
                f"{epath}.onto", f"{onto!r} does not run under the edge {eid!r}"
            )
        o_i, o_t = w.oracle_at(frm), w.oracle_at(to)
        try:
            d = o_i.parse_element(_expect(e, "delta", None, epath))
            db = o_t.parse_element(_expect(e, "delta_bar", None, epath))
        except ForeignElement as exc:
            raise SchemaError(f"{epath}.delta", str(exc)) from exc
        if convention == "paper-left":
            d, db = o_i.inv(d), o_t.inv(db)
        insort_pair(w, eid, frm, to, onto, d, db)
    w.base = _expect(doc, "base", str, path, optional=True)
    if w.base is not None and w.base not in w.out:
        raise SchemaError(f"{path}.base", f"unknown vertex {w.base!r}")
    m = w.freeze()
    if not m.domain.graph.is_connected():
        raise SchemaError(path, "graph of groups must be connected")
    return m


def reference_reduce(w):
    """Reference for ``Word.reduce``: one stack pass that pops e 1 ~e
    wherever it forms, testing the identity where the last kept edge ends."""
    gog = w.gog
    iota, rev = gog.graph._iota, gog.graph._rev
    groups = [w.groups[0]]
    edges = []
    verts = [w.start]
    for e, g in zip(w.edges, w.groups[1:]):
        back = rev.get(e)
        if back is None:
            raise GogsepError(f"unknown edge {e!r}")
        if (
            edges
            and edges[-1] == back
            and gog.group_at(verts[-1]).is_identity(groups[-1])
        ):
            edges.pop()
            groups.pop()
            verts.pop()
            prev = groups.pop()
            groups.append(gog.group_at(verts[-1]).mul(prev, g))
        else:
            edges.append(e)
            groups.append(g)
            verts.append(iota[back])
    return Word(gog, w.start, tuple(groups), tuple(edges))


def reference_validate(w):
    """Reference for ``Word.validate``: the edge chain, then each letter
    with its index."""
    g = w.gog.graph
    if not g.has_vertex(w.start):
        raise EdgeChainBroken(f"unknown start vertex {w.start!r}")
    verts = [w.start]
    for e in w.edges:
        if not g.has_edge(e):
            raise EdgeChainBroken(f"unknown edge {e!r}")
        if g.iota(e) != verts[-1]:
            raise EdgeChainBroken(
                f"edge {e!r} leaves {g.iota(e)!r}, expected {verts[-1]!r}"
            )
        verts.append(g.tau(e))
    for i, (x, v) in enumerate(zip(w.groups, verts)):
        try:
            w.gog.group_at(v).check(x)
        except ForeignElement as exc:
            raise ElementOutOfGroup(f"letter {i} at vertex {v!r}: {exc}") from exc
    return w


def reference_complete(m, seed=None):
    """Reference for ``complete_to_cover``: each target edge pair rebuilds
    the free-slot dicts of both its ends, keys every lift of the pair from
    both sides, and sorts the slots left free by (vertex, rep)."""
    tgt = m.target.graph
    fibers = {u: [] for u in tgt.vertices}
    degrees = dict.fromkeys(tgt.vertices, 0)
    for v in m.domain.graph.vertices:
        index = m.vgroup_image[v].index()
        if index is None:
            raise InfiniteIndexVertex(
                f"subgroup at {v!r} has infinite index; completion needs finite index"
            )
        fibers[m.vertex_map[v]].append(v)
        degrees[m.vertex_map[v]] += index
    d = max(degrees.values())
    if d > DEGREE_CAP:
        raise UnboundedEnumeration(f"cover degree would pass {DEGREE_CAP}")

    work = _Working.of(m)
    fresh_vertex = fresh_names(m.domain.graph.vertices)
    padding = []
    for u in sorted(tgt.vertices):
        for _ in range(d - degrees[u]):
            z = fresh_vertex("z")
            padding.append((z, u))
            fibers[u].append(z)
    for z, u in sorted(padding):
        work.add_vertex(z, u, m.target.group_at(u).full_subgroup())

    def free_slots(u):
        slots = {}
        for v in sorted(fibers[u]):
            handle = work.vgroup_image[v]
            for r in handle.coset_reps():
                slots[(v, handle.coset_key(r))] = r
        return slots

    dom = m.domain.graph
    lifts = lifts_by_edge(dom.directed_edges, m.edge_map)
    fresh_edge = fresh_names(dom.edge_pairs())
    for f in tgt.edge_pairs():
        lhs, rhs = free_slots(tgt.iota(f)), free_slots(tgt.tau(f))
        for e in lifts.get(f, ()):
            back = dom._rev[e]
            v, w = dom._iota[e], dom._iota[back]
            lkey = (v, m.vgroup_image[v].coset_key(m.delta[e]))
            rkey = (w, m.vgroup_image[w].coset_key(m.delta[back]))
            if lkey not in lhs or rkey not in rhs:
                raise NotAnImmersion(f"lifts of {f!r} collide on a coset slot")
            del lhs[lkey], rhs[rkey]
        free_l, free_r = list(lhs.items()), list(rhs.items())

        def slot_sort(slot):
            (v, _), rep = slot
            return (v, work.oracle_at(v).sort_key(rep))

        free_l.sort(key=slot_sort)
        free_r.sort(key=slot_sort)
        if seed is not None:
            random.Random(f"{seed}|{f}").shuffle(free_r)
        for ((v, _), lrep), ((w, _), rrep) in zip(free_l, free_r):
            insort_pair(work, fresh_edge("n"), v, w, f, lrep, rrep)
    return work.freeze()


def scan_lift(m, g, u0):
    """Reference for ``lift_loop`` on a loop at phi(u0): each step takes the
    lifts e of the next target edge whose coset holds the carry c, tested
    as c * delta_e^-1 in the vertex subgroup, over a fresh scan of every
    directed edge."""
    g = g.validate().reduce()
    graph = m.domain.graph
    v, carry, path = u0, g.groups[0], []
    for i, f in enumerate(g.edges):
        oracle = m.oracle_at(v)
        matches = [
            e
            for e in graph.directed_edges
            if graph.iota(e) == v
            and m.edge_map[e] == f
            and m.vgroup_image[v].member(oracle.mul(carry, oracle.inv(m.delta[e])))
        ]
        if not matches:
            return LiftOutcome(
                "stuck", tuple(path), consumed=i, vertex=v, target_edge=f, carry=carry
            )
        if len(matches) > 1:
            raise NotAnImmersion(f"lifts {matches} of {f!r} share a coset at {v!r}")
        path.append(matches[0])
        v = graph.tau(matches[0])
        carry = m.oracle_at(v).mul(m.delta[bar(matches[0])], g.groups[i + 1])
    if v == u0:
        return LiftOutcome("closed", tuple(path), v, carry, g.n)
    return LiftOutcome("open_end", tuple(path), v, consumed=g.n)


def canonical_key(h):
    """Presentation-independent data of a subgroup handle: equal for two
    handles of one group exactly when they are the same subgroup."""
    if h.group.kind == "finite":
        return ("finite", tuple(sorted(h.members, key=h.group.sort_key)))
    if h.group.kind == "integer":
        return ("integer", h.modulus)
    return ("free", tuple(tuple(sorted(row.items())) for row in h.rows))


# -- Schreier loops and the loop-fed coset enumeration ------------------------
#
# References for the verifier's ``_schreier_index``, which feeds Todd-Coxeter
# one short relation per cover edge: the subgroup's Schreier loops built by
# word products, and the index the loops generate, enumerated loop by loop.


def _induced_image(m, w):
    """Image of a domain word: letters pass through, edges pick up deltas."""
    if w.gog is not m.domain:
        raise GogsepError("word does not live on the morphism's domain")
    w.validate()
    for i in range(w.n + 1):
        v = w.vertex_at(i)
        if not m.vgroup_image[v].member(w.groups[i]):
            raise ElementOutOfGroup(
                f"letter {i} is outside the vertex subgroup at {v!r}"
            )
    tgt = m.target
    if w.n == 0:
        return Word(tgt, m.vertex_map[w.start], (w.groups[0],), ()).reduce()
    groups = []
    edges = []
    first = w.start
    oracle = tgt.group_at(m.vertex_map[first])
    groups.append(oracle.mul(w.groups[0], m.delta[w.edges[0]]))
    for i, e in enumerate(w.edges):
        edges.append(m.edge_map[e])
        at = m.domain.graph.tau(e)
        oracle = tgt.group_at(m.vertex_map[at])
        x = oracle.mul(oracle.inv(m.delta[bar(e)]), w.groups[i + 1])
        if i + 1 < w.n:
            x = oracle.mul(x, m.delta[w.edges[i + 1]])
        groups.append(x)
    return Word(tgt, m.vertex_map[first], tuple(groups), tuple(edges)).reduce()


def _tree_words(m, u0):
    """Identity-lettered domain words along a BFS spanning tree from u0."""
    dom = m.domain
    words = {u0: Word(dom, u0, (dom.group_at(u0).identity(),), ())}
    tree_edges = set()
    queue = deque([u0])
    while queue:
        v = queue.popleft()
        for e in dom.graph.edges_at(v):
            w = dom.graph.tau(e)
            if w not in words:
                step = Word(
                    dom,
                    v,
                    (dom.group_at(v).identity(), dom.group_at(w).identity()),
                    (e,),
                )
                words[w] = words[v] * step
                tree_edges.add(e)
                tree_edges.add(bar(e))
                queue.append(w)
    if len(words) != len(dom.graph.vertices):
        raise GogsepError("domain is not connected from the base vertex")
    return words, tree_edges


def subgroup_generators(m, u0):
    """Target loops generating the subgroup represented by the morphism.

    Schreier generators along a BFS spanning tree of the domain from u0:
    one loop per vertex-subgroup generator (conjugated along the tree),
    over sorted vertices, then one per non-tree edge pair, over sorted
    pairs; identity loops are dropped.  Each loop is a product of domain
    words carried to the target by a checked induced image.
    """
    words, tree_edges = _tree_words(m, u0)
    dom = m.domain
    gens = []
    for v in sorted(dom.graph.vertices):
        for s in m.vgroup_image[v].generators:
            loop = words[v] * Word(dom, v, (s,), ()) * words[v].inverse()
            gens.append(_induced_image(m, loop))
    for e in sorted(dom.graph.directed_edges):
        if e.startswith("~") or e in tree_edges:
            continue
        v, w = dom.graph.iota(e), dom.graph.tau(e)
        step = Word(
            dom, v, (dom.group_at(v).identity(), dom.group_at(w).identity()), (e,)
        )
        loop = words[v] * step * words[w].inverse()
        gens.append(_induced_image(m, loop))
    return [g for g in gens if not g.is_identity_loop()]


def _translate(w, letter, stable):
    out = ()
    for i in range(w.n + 1):
        out += letter[w.vertex_at(i)][w.groups[i]]
        if i < w.n:
            out += stable[w.edges[i]]
    return out


def loop_relations(gog, u0, loops):
    """The presentation of gog's fundamental group at u0, and one relation
    u0·loop = u0 per loop, as the enumerations take them."""
    presentation = _presentation(gog, u0)
    relations = []
    for w in loops:
        w = w.validate()
        if w.start != u0 or not w.is_loop():
            raise GogsepError("coset enumeration needs loops at the base vertex")
        relations.append((u0, _translate(w, presentation[3], presentation[2]), u0))
    return presentation, relations


def coset_enumerate(gog, u0, loops, cap=20000):
    """Index of the subgroup the loops generate, by Todd-Coxeter.

    Works purely on a presentation of the fundamental group; raises
    DidNotClose when more than ``cap`` cosets get defined.
    """
    presentation, relations = loop_relations(gog, u0, loops)
    return _enumerate(presentation, u0, [], relations, cap)


class _ReferenceCosetTable:
    """Reference for ``verifier._CosetTable``: rows are dicts keyed by
    symbol, and every merge and scan looks each coset up afresh."""

    def __init__(self, inv, cap):
        self.inv = inv
        self.cap = cap
        self.rows = [{}]
        self.parent = [0]
        self.pending = deque()

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def alive(self):
        return [a for a in range(len(self.rows)) if self.find(a) == a]

    def define(self, a, s):
        if len(self.rows) > self.cap:
            raise DidNotClose(self.cap)
        b = len(self.rows)
        self.rows.append({})
        self.parent.append(b)
        self.set(a, s, b)
        return b

    def set(self, a, s, b):
        a, b = self.find(a), self.find(b)
        for x, sym, y in ((a, s, b), (b, self.inv[s], a)):
            cur = self.rows[x].get(sym)
            if cur is None:
                self.rows[x][sym] = y
            elif self.find(cur) != self.find(y):
                self.pending.append((cur, y))
        self.merge()

    def merge(self):
        while self.pending:
            a, b = self.pending.popleft()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            keep, dead = min(a, b), max(a, b)
            self.parent[dead] = keep
            row = self.rows[dead]
            self.rows[dead] = {}
            for s, t in row.items():
                t = self.find(t)
                cur = self.rows[self.find(keep)].get(s)
                if cur is None:
                    self.rows[self.find(keep)][s] = t
                    back = self.rows[t].get(self.inv[s])
                    if back is None:
                        self.rows[t][self.inv[s]] = self.find(keep)
                    elif self.find(back) != self.find(keep):
                        self.pending.append((back, keep))
                elif self.find(cur) != t:
                    self.pending.append((cur, t))

    def trace(self, a, word):
        for s in word:
            a = self.find(a)
            nxt = self.rows[a].get(s)
            a = self.define(a, s) if nxt is None else nxt
        return self.find(a)

    def scan_fill(self, a, word, end=None):
        while True:
            a = self.find(a)
            b = a if end is None else self.find(end)
            i, f = 0, a
            while i < len(word):
                nxt = self.rows[self.find(f)].get(word[i])
                if nxt is None:
                    break
                f = self.find(nxt)
                i += 1
            if i == len(word):
                if self.find(f) != b:
                    self.pending.append((f, b))
                    self.merge()
                return
            j = len(word) - 1
            while j > i:
                prv = self.rows[self.find(b)].get(self.inv[word[j]])
                if prv is None:
                    break
                b = self.find(prv)
                j -= 1
            if j == i:
                self.set(f, word[i], b)
                return
            self.define(self.find(f), word[i])


def reference_enumerate(presentation, base, steps, relations, cap):
    """Reference for ``verifier._enumerate`` on the same inputs: dict rows,
    and rounds that repeat until the count of cosets, of live cosets and of
    their entries stops changing."""
    inv, relators = presentation[:2]
    table = _ReferenceCosetTable(inv, cap)
    point = {base: 0}
    for p, word, q in steps:
        point[q] = table.trace(point[p], word)

    def state():
        live = table.alive()
        return (len(table.rows), len(live), sum(len(table.rows[a]) for a in live))

    while True:
        before = state()
        for p, word, q in relations:
            table.scan_fill(point[p], word, point[q])
        for a in range(len(table.rows)):
            if table.find(a) != a:
                continue
            for r in relators:
                table.scan_fill(a, r)
        for a in range(len(table.rows)):
            if table.find(a) != a:
                continue
            for s in range(len(inv)):
                if table.rows[a].get(s) is None:
                    table.define(a, s)
        if state() == before:
            break
    return len(table.alive())


def _random_element(oracle, rng, bound):
    """A random element of size at most bound: a table entry, an integer
    in [-bound, bound], or a reduced free word of length at most bound."""
    if oracle.kind == "finite":
        return rng.choice(oracle.elements)
    if oracle.kind == "integer":
        return rng.randint(-bound, bound)
    letters = [l for k in range(1, oracle.rank + 1) for l in (k, -k)]
    word = []
    n = rng.randint(0, bound)
    while letters and len(word) < n:  # rank 0 has no letters
        word.append(rng.choice([l for l in letters if not (word and word[-1] == -l)]))
    return tuple(word)


def random_loop(gog, u0, rng, max_edges=6, letter_bound=3):
    """Random reduced loop at u0: a walk steered home, then reduced."""
    graph = gog.graph
    dist = {u0: 0}
    queue = deque([u0])
    while queue:
        v = queue.popleft()
        for e in graph.edges_at(v):
            w = graph.tau(e)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    letters = [_random_element(gog.group_at(u0), rng, letter_bound)]
    edges = []
    v = u0
    budget = rng.randint(0, max_edges)
    while len(edges) < budget or v != u0:
        options = graph.edges_at(v)
        if len(edges) >= budget:
            options = [e for e in options if dist[graph.tau(e)] < dist[v]] or options
        e = rng.choice(options)
        edges.append(e)
        v = graph.tau(e)
        letters.append(_random_element(gog.group_at(v), rng, letter_bound))
        if len(edges) > max_edges + len(graph.vertices):
            break
    while v != u0:
        e = min(graph.edges_at(v), key=lambda e: dist[graph.tau(e)])
        edges.append(e)
        v = graph.tau(e)
        letters.append(_random_element(gog.group_at(v), rng, letter_bound))
    return Word(gog, u0, tuple(letters), tuple(edges)).reduce()


def gen_corpus(gog, u0, rng, count, max_edges=4, letter_bound=2):
    """Random nonidentity loops at u0 for fuzzing."""
    out = []
    while len(out) < count:
        w = random_loop(gog, u0, rng, max_edges=max_edges, letter_bound=letter_bound)
        if not w.is_identity_loop():
            out.append(w)
    return out


@pytest.fixture
def rng():
    return random.Random(20260815)
