"""JSON round-tripping for graphs of groups, words, morphisms, certificates.

Documents carry a ``schema_version`` and, where edge decorations occur,
a ``convention`` field.  Internally all coset bookkeeping is right-side
(subgroup times delta); documents marked ``paper-left`` store every
delta inverted and are converted at this boundary, in both directions.
Schema problems raise SchemaError with a JSON-pointer-ish path.
"""

from __future__ import annotations

import json

from .core import Graph, GraphOfGroups, Word
from .errors import ForeignElement, GogsepError, SchemaError
from .morphism import DecoratedMorphism, _Working
from .oracles import oracle_from_json, subgroup_generate
from .separator import SeparationCertificate

__all__ = [
    "SCHEMA_VERSION",
    "CONVENTIONS",
    "gog_to_json",
    "gog_from_json",
    "word_to_json",
    "word_from_json",
    "morphism_to_json",
    "morphism_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "dumps",
]

SCHEMA_VERSION = 1
CONVENTIONS = ("right", "paper-left")


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _expect(doc, key, kind, path, optional=False):
    if key not in doc:
        if optional:
            return None
        raise SchemaError(f"{path}.{key}", "missing")
    val = doc[key]
    if kind is not None and (
        not isinstance(val, kind) or (kind is int and isinstance(val, bool))
    ):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return val


def _check_version(doc, path):
    v = doc.get("schema_version", SCHEMA_VERSION)
    if v != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema_version", f"unsupported version {v!r}")


def _convention(doc, path) -> str:
    c = doc.get("convention", "right")
    if c not in CONVENTIONS:
        raise SchemaError(f"{path}.convention", f"unknown convention {c!r}")
    return c


def _edge_record(e, epath, vertices, ids):
    """(id, from, to) of an edge record whose endpoints lie in ``vertices``.

    The id must be new to ``ids``, the set of ids read so far, and joins it.
    """
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


# ---------------------------------------------------------------------------
# graphs of groups


def gog_to_json(gog: GraphOfGroups) -> dict:
    g = gog.graph
    doc = {
        "schema_version": SCHEMA_VERSION,
        "vertices": {v: gog.group_at(v).to_json() for v in g.vertices},
        "edges": [
            {"id": p, "from": g.iota(p), "to": g.tau(p)} for p in g.edge_pairs()
        ],
    }
    if gog.base is not None:
        doc["base"] = gog.base
    return doc


def gog_from_json(doc, path="$", max_order=64) -> GraphOfGroups:
    if not isinstance(doc, dict):
        raise SchemaError(path, "graph of groups must be an object")
    _check_version(doc, path)
    vertices = _expect(doc, "vertices", dict, path)
    if not vertices:
        raise SchemaError(f"{path}.vertices", "needs at least one vertex")
    graph = Graph()
    oracles = {}
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise SchemaError(f"{path}.vertices", f"bad vertex id {v!r}")
        graph.add_vertex(v)
        oracles[v] = oracle_from_json(
            vertices[v], path=f"{path}.vertices.{v}", max_order=max_order
        )
    ids = set()
    for i, e in enumerate(_expect(doc, "edges", list, path)):
        graph.add_edge(*_edge_record(e, f"{path}.edges[{i}]", oracles, ids))
    base = _expect(doc, "base", str, path, optional=True)
    if base is not None and base not in oracles:
        raise SchemaError(f"{path}.base", f"unknown vertex {base!r}")
    try:
        return GraphOfGroups(graph, oracles, base=base)
    except GogsepError as exc:
        raise SchemaError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# words


def word_to_json(w: Word) -> dict:
    return {"start": w.start, "word": w.as_strings()}


def word_from_json(gog: GraphOfGroups, doc, path="$") -> Word:
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


# ---------------------------------------------------------------------------
# morphisms

# The domain block stores one record per edge pair; ``onto`` names the
# directed target edge the pair's positive orientation maps to, and the
# two deltas sit at iota and tau of that orientation.


def _domain_to_json(m: DecoratedMorphism, convention: str) -> dict:
    g = m.domain.graph
    verts = {}
    for v in g.vertices:
        handle = m.vgroup_image[v]
        oracle = handle.group
        verts[v] = {
            "to": m.vertex_map[v],
            "subgroup": [oracle.format_element(x) for x in handle.generators],
        }
    edges = []
    for p in g.edge_pairs():
        back = g._rev[p]
        frm, to = g._iota[p], g._iota[back]
        o_i, o_t = m.oracle_at(frm), m.oracle_at(to)
        d, db = m.delta[p], m.delta[back]
        if convention == "paper-left":
            d, db = o_i.inv(d), o_t.inv(db)
        edges.append(
            {
                "id": p,
                "from": frm,
                "to": to,
                "onto": m.edge_map[p],
                "delta": o_i.format_element(d),
                "delta_bar": o_t.format_element(db),
            }
        )
    doc = {"vertices": verts, "edges": edges}
    if m.domain.base is not None:
        doc["base"] = m.domain.base
    return doc


def _domain_from_json(
    target: GraphOfGroups, doc, convention: str, path: str
) -> DecoratedMorphism:
    """The morphism a domain block describes, built with ``_Working``: the
    field checks below establish every fact ``validate()`` tests.
    """
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
        w.add_vertex(v, u, subgroup_generate(oracle, gens))
    ids = set()
    for i, e in enumerate(_expect(doc, "edges", list, path)):
        epath = f"{path}.edges[{i}]"
        eid, frm, to = _edge_record(e, epath, w.out, ids)
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
        w.add_edge(eid, frm, to, onto, d, db)
    w.base = _expect(doc, "base", str, path, optional=True)
    if w.base is not None and w.base not in w.out:
        raise SchemaError(f"{path}.base", f"unknown vertex {w.base!r}")
    m = w.freeze()
    if not m.domain.graph.is_connected():
        raise SchemaError(path, "graph of groups must be connected")
    return m


def morphism_to_json(m: DecoratedMorphism, convention: str = "right") -> dict:
    if convention not in CONVENTIONS:
        raise GogsepError(f"unknown convention {convention!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "convention": convention,
        "target": gog_to_json(m.target),
        "domain": _domain_to_json(m, convention),
    }


def morphism_from_json(doc, path="$", max_order=64) -> DecoratedMorphism:
    if not isinstance(doc, dict):
        raise SchemaError(path, "morphism must be an object")
    _check_version(doc, path)
    convention = _convention(doc, path)
    target = gog_from_json(
        _expect(doc, "target", dict, path), path=f"{path}.target", max_order=max_order
    )
    return _domain_from_json(
        target, _expect(doc, "domain", dict, path), convention, f"{path}.domain"
    )


# ---------------------------------------------------------------------------
# certificates


def certificate_to_json(
    cert: SeparationCertificate, convention: str = "right"
) -> dict:
    if convention not in CONVENTIONS:
        raise GogsepError(f"unknown convention {convention!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "convention": convention,
        "target": gog_to_json(cert.target),
        "base": cert.u0,
        "generators": [word_to_json(w) for w in cert.generators],
        "element": word_to_json(cert.element),
        "cover": _domain_to_json(cert.cover, convention),
        "cover_base": cert.base_vertex,
        "degree": cert.degree,
        "seed": cert.seed,
    }


def certificate_from_json(doc, path="$", max_order=64) -> SeparationCertificate:
    if not isinstance(doc, dict):
        raise SchemaError(path, "certificate must be an object")
    _check_version(doc, path)
    convention = _convention(doc, path)
    target = gog_from_json(
        _expect(doc, "target", dict, path), path=f"{path}.target", max_order=max_order
    )
    u0 = _expect(doc, "base", str, path)
    if not target.graph.has_vertex(u0):
        raise SchemaError(f"{path}.base", f"unknown vertex {u0!r}")
    gens = [
        word_from_json(target, w, path=f"{path}.generators[{i}]")
        for i, w in enumerate(_expect(doc, "generators", list, path))
    ]
    element = word_from_json(
        target, _expect(doc, "element", dict, path), path=f"{path}.element"
    )
    cover = _domain_from_json(
        target, _expect(doc, "cover", dict, path), convention, f"{path}.cover"
    )
    cover_base = _expect(doc, "cover_base", str, path)
    if not cover.domain.graph.has_vertex(cover_base):
        raise SchemaError(f"{path}.cover_base", f"unknown vertex {cover_base!r}")
    degree = _expect(doc, "degree", int, path)
    seed = None if doc.get("seed") is None else _expect(doc, "seed", int, path)
    return SeparationCertificate(
        target=target,
        u0=u0,
        generators=gens,
        element=element,
        cover=cover,
        base_vertex=cover_base,
        degree=degree,
        seed=seed,
    )
