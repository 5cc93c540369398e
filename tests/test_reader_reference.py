"""The one-pass readers against the readers they replaced.

``jsonio._domain_from_json`` writes ``_Working``'s tables directly and
``jsonio.word_from_json`` checks a word's edge chain before its letters;
``conftest.reference_domain_from_json`` and
``conftest.reference_word_from_json`` keep the field-by-field readers
they replaced.  Mutated golden certificates must read to equal tables,
out-list order included, or fail with the same SchemaError path and
message.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gogsep import certificate_to_json, gog_from_json, separate_element, word_from_json
from gogsep.jsonio import CONVENTIONS, _domain_from_json, dumps

from conftest import reference_domain_from_json, reference_word_from_json
from test_golden import GOLDEN

_TEXTS = {}


def golden_doc(name, convention):
    """The seed-0 golden certificate ``name``, freshly parsed."""
    if (name, convention) not in _TEXTS:
        cert = separate_element(*GOLDEN[name][0](), seed=0)
        _TEXTS[name, convention] = dumps(certificate_to_json(cert, convention=convention))
    return json.loads(_TEXTS[name, convention])


# Values of every JSON type, bools and empty containers included.
ODD = [True, False, 0, 1, -1, None, "", "zz", "~e", 1.5, [], ["1"], {}, {"id": "e"}]


def _elements(target, u):
    """Element spellings of the group at target vertex u, and foreign ones."""
    kind = target.group_at(u).kind
    if kind == "finite":
        own = list(target.group_at(u).elements)
    else:
        own = ["0", "2", "-3"] if kind == "integer" else ["1", "x1", "x2-.x1"]
    return own + ["zz", "b2", "x3", "2", "1", 7, True]


def _pick(draw, items):
    return items[draw(st.integers(0, len(items) - 1))] if items else None


def mutate_cover(draw, cover, target):
    """One mutation of a cover block; earlier ones may have broken its parts."""
    verts = cover.get("vertices") if isinstance(cover.get("vertices"), dict) else {}
    edges = cover.get("edges") if isinstance(cover.get("edges"), list) else []
    edge = _pick(draw, [e for e in edges if isinstance(e, dict)]) or {}
    kind = draw(st.sampled_from([
        "drop key", "retype", "tilde id", "duplicate id", "endpoint", "onto",
        "delta", "no delta_bar", "subgroup", "drop vertex", "lone vertex", "base",
    ]))
    if kind == "drop key":
        specs = [v for v in verts.values() if isinstance(v, dict)]
        record = _pick(draw, [cover, edge] + specs)
        if record:
            del record[_pick(draw, sorted(record))]
    elif kind == "retype":
        holder = _pick(draw, [cover, verts, edges, edge] + list(verts.values()))
        if isinstance(holder, (dict, list)) and holder:
            keys = list(range(len(holder)) if isinstance(holder, list) else sorted(holder))
            holder[_pick(draw, keys)] = _pick(draw, ODD)
    elif kind == "tilde id":
        edge["id"] = "~" + str(edge.get("id"))
    elif kind == "duplicate id":
        other = _pick(draw, edges)
        edge["id"] = other.get("id") if isinstance(other, dict) else "c1_1"
    elif kind == "endpoint":
        edge[draw(st.sampled_from(["from", "to"]))] = _pick(draw, sorted(verts) + ["zz"])
    elif kind == "onto":
        edge["onto"] = _pick(draw, sorted(target.graph._iota) + ["zz", "~zz"])
    elif kind == "delta":
        which = draw(st.sampled_from(["delta", "delta_bar"]))
        edge[which] = _pick(draw, _elements(target, _pick(draw, target.graph.vertices)))
    elif kind == "no delta_bar":
        edge.pop("delta_bar", None)
    elif kind == "subgroup":
        spec = verts.get(_pick(draw, sorted(verts)))
        if isinstance(spec, dict):
            u = spec.get("to")
            own = _elements(target, u) if u in target.vertex_group else ODD
            spec["subgroup"] = [_pick(draw, own) for _ in range(draw(st.integers(0, 3)))]
    elif kind == "drop vertex":
        if len(verts) > 1:
            del verts[_pick(draw, sorted(verts))]
    elif kind == "lone vertex":
        verts[draw(st.sampled_from(["lone", ""]))] = {
            "to": _pick(draw, target.graph.vertices), "subgroup": []
        }
    else:
        cover["base"] = _pick(draw, sorted(verts) + ["zz"] + ODD[:6])


def mutate_word(draw, doc, target):
    """One mutation of a generator or of the element."""
    word = _pick(draw, doc["generators"] + [doc["element"]])
    flat = word["word"] if isinstance(word, dict) else None
    if not flat:
        return
    kind = draw(st.sampled_from(["letter", "edge", "drop", "start", "retype"]))
    i = draw(st.integers(0, len(flat) - 1))
    if kind == "letter":
        flat[i] = _pick(draw, _elements(target, _pick(draw, target.graph.vertices)))
    elif kind == "edge":
        flat[i] = _pick(draw, sorted(target.graph._iota) + ["zz"])
    elif kind == "drop":
        del flat[i]
    elif kind == "start":
        word["start"] = _pick(draw, target.graph.vertices + ["zz"])
    else:
        flat[i] = _pick(draw, ODD)


def outcome(read, *args):
    try:
        return "read", read(*args)
    except Exception as exc:  # the two readers must fail alike
        return "raised", type(exc), getattr(exc, "path", None), str(exc)


def tables(m):
    g = m.domain.graph
    return (
        [(v, list(edges)) for v, edges in g._out.items()],
        g._iota, g._rev, m.vertex_map, m.edge_map, m.delta,
        [(v, type(h), h.generators) for v, h in m.vgroup_image.items()],
        [(v, id(o)) for v, o in m.domain.vertex_group.items()],
        m.domain.base,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(GOLDEN)),
    st.sampled_from(CONVENTIONS),
    st.integers(0, 2),
    st.integers(0, 2),
    st.data(),
)
def test_one_pass_readers_match_the_references(name, convention, covers, words, data):
    doc = golden_doc(name, convention)
    target = gog_from_json(doc["target"])
    for _ in range(covers):
        mutate_cover(data.draw, doc["cover"], target)
    for _ in range(words):
        mutate_word(data.draw, doc, target)
    new = outcome(_domain_from_json, target, doc["cover"], convention, "$.cover")
    old = outcome(reference_domain_from_json, target, doc["cover"], convention, "$.cover")
    if new[0] == old[0] == "read":
        assert tables(new[1]) == tables(old[1])
    else:
        assert new == old
    for k, w in enumerate(doc["generators"] + [doc["element"]]):
        path = f"$.generators[{k}]"
        new = outcome(word_from_json, target, w, path)
        old = outcome(reference_word_from_json, target, w, path)
        if new[0] == old[0] == "read":
            assert new[1].key() == old[1].key()
        else:
            assert new == old
