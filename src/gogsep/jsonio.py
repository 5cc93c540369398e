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
from .oracles import oracle_from_json
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


def _edge_record(e, path, i, vertices, ids):
    """(id, from, to) of the edge record ``{path}.edges[i]``, whose endpoints
    must lie in ``vertices`` and whose id must be new to ``ids``, the edges
    read so far.  Each field is read with ``dict.get`` and a type test;
    ``_expect`` runs, and the record's path is built, only to raise."""
    if not isinstance(e, dict):
        raise SchemaError(f"{path}.edges[{i}]", "edge must be an object")
    eid, frm, to = e.get("id"), e.get("from"), e.get("to")
    if not isinstance(eid, str):
        _expect(e, "id", str, f"{path}.edges[{i}]")
    if not eid or eid[0] == "~":
        raise SchemaError(f"{path}.edges[{i}].id", f"bad edge id {eid!r}")
    if eid in ids:
        raise SchemaError(f"{path}.edges[{i}].id", f"duplicate edge {eid!r}")
    if not isinstance(frm, str):
        _expect(e, "from", str, f"{path}.edges[{i}]")
    if not isinstance(to, str):
        _expect(e, "to", str, f"{path}.edges[{i}]")
    if frm not in vertices or to not in vertices:
        raise SchemaError(f"{path}.edges[{i}]", f"endpoint of {eid!r} is not a vertex")
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
    for i, e in enumerate(_expect(doc, "edges", list, path)):
        graph.add_edge(*_edge_record(e, path, i, oracles, graph._iota))
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
    # The edges first, up to the first faulty one; then the letters at the
    # vertices that chain fixed, so the least faulty position is reported.
    iota, rev = gog.graph._iota, gog.graph._rev
    edges = tuple(flat[1::2])
    v, verts, fault = start, [start], None
    for item in edges:
        back = rev.get(item) if isinstance(item, str) else None
        if back is None:
            fault = f"unknown edge {item!r}"
            break
        if iota[item] != v:
            fault = f"edge {item!r} does not start at {v!r}"
            break
        v = iota[back]
        verts.append(v)
    oracles, groups = gog.vertex_group, []
    try:
        for item, v in zip(flat[0::2], verts):
            groups.append(oracles[v].parse_element(item))
    except ForeignElement as exc:  # at letter len(groups)
        raise SchemaError(f"{path}[{2 * len(groups)}]", str(exc)) from exc
    if fault is not None:
        raise SchemaError(f"{path}[{2 * len(verts) - 1}]", fault)
    return Word(gog, start, tuple(groups), edges)


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
    """The morphism a domain block describes, built on a ``_Working`` copy
    in one pass: the field checks below establish every fact ``validate()``
    tests.  Each field is read with ``dict.get`` and a type test; ``_expect``
    runs, and a path is built, only to raise.
    """
    verts = _expect(doc, "vertices", dict, path)
    if not verts:
        raise SchemaError(f"{path}.vertices", "needs at least one vertex")
    groups, t_iota, t_rev = target.vertex_group, target.graph._iota, target.graph._rev
    w = _Working(target)
    vertex_map = w.vertex_map
    shared = {}  # (target vertex, *subgroup strings) -> the handle read from them
    for v, spec in verts.items():
        if not isinstance(v, str) or not v:
            raise SchemaError(f"{path}.vertices", f"bad vertex id {v!r}")
        if not isinstance(spec, dict):
            raise SchemaError(f"{path}.vertices.{v}", "vertex must be an object")
        u, items = spec.get("to"), spec.get("subgroup")
        if not isinstance(u, str):
            _expect(spec, "to", str, f"{path}.vertices.{v}")
        oracle = groups.get(u)
        if oracle is None:
            raise SchemaError(f"{path}.vertices.{v}.to", f"unknown target vertex {u!r}")
        if not isinstance(items, list):
            _expect(spec, "subgroup", list, f"{path}.vertices.{v}")
        if not items:
            handle = oracle.trivial_subgroup()
        else:
            # A list of strings read before shares its handle; any other
            # list is read afresh, so that it raises as it did the first time.
            key = (u, *items) if all(type(x) is str for x in items) else None
            handle = shared.get(key)
            if handle is None:
                gens = []
                for i, item in enumerate(items):
                    try:
                        gens.append(oracle.parse_element(item))
                    except ForeignElement as exc:
                        raise SchemaError(
                            f"{path}.vertices.{v}.subgroup[{i}]", str(exc)
                        ) from exc
                handle = oracle._subgroup_of_parsed(gens)
                if key is not None:
                    shared[key] = handle
        w.add_vertex(v, u, handle)
    edges = doc.get("edges")
    if not isinstance(edges, list):
        _expect(doc, "edges", list, path)
    pairs = {}
    for i, e in enumerate(edges):
        eid, frm, to = _edge_record(e, path, i, vertex_map, pairs)
        f = e.get("onto")
        if not isinstance(f, str):
            _expect(e, "onto", str, f"{path}.edges[{i}]")
        f_bar = t_rev.get(f)
        if f_bar is None:
            raise SchemaError(f"{path}.edges[{i}].onto", f"unknown target edge {f!r}")
        u, u_bar = t_iota[f], t_iota[f_bar]
        if u != vertex_map[frm] or u_bar != vertex_map[to]:
            raise SchemaError(
                f"{path}.edges[{i}].onto", f"{f!r} does not run under the edge {eid!r}"
            )
        o_i, o_t = groups[u], groups[u_bar]
        if "delta" not in e:
            _expect(e, "delta", None, f"{path}.edges[{i}]")
        try:
            d = o_i.parse_element(e["delta"])
            if "delta_bar" not in e:
                _expect(e, "delta_bar", None, f"{path}.edges[{i}]")
            db = o_t.parse_element(e["delta_bar"])
        except ForeignElement as exc:
            raise SchemaError(f"{path}.edges[{i}].delta", str(exc)) from exc
        if convention == "paper-left":
            d, db = o_i.inv(d), o_t.inv(db)
        pairs[eid] = (frm, to, f, d, db)
    w.add_pairs(pairs)
    w.base = _expect(doc, "base", str, path, optional=True)
    if w.base is not None and w.base not in vertex_map:
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
