"""Byte-identity of seeded certificates.

Each case pins the sha256 of the certificate document that a seeded
``separate_element`` run emits.  Optimizations of the pipeline must
leave these bytes unchanged; a deliberate change of the certificate
format or of the algorithms' choices updates the digests here.
"""

import hashlib
import json
import random

import pytest

from gogsep import (
    FreeGroup,
    Graph,
    GraphOfGroups,
    IntGroup,
    certificate_to_json,
    gog_from_json,
    separate_element,
    word_from_json,
)
from gogsep.jsonio import dumps

from conftest import (
    INSTANCES,
    W,
    gen_corpus,
    make_c2c3c2,
    make_f2c2,
    make_pslz,
    make_rose2,
    make_z2,
    pslz_conjugates,
)


def _pslz_instance():
    def load(name):
        return json.loads((INSTANCES / name).read_text())

    target = gog_from_json(load("pslz.json"))
    gens = [word_from_json(target, w) for w in load("pslz_gens.json")["generators"]]
    g = word_from_json(target, load("pslz_element.json"))
    return target, target.base, gens, g


def _rose2_instance():
    r = make_rose2()
    gens = [
        W(r, "o", "1", "p", "1", "p", "1", "q", "1"),
        W(r, "o", "1", "q", "1", "~p", "1", "q", "1", "p", "1"),
    ]
    g = W(r, "o", "1", "p", "1", "q", "1")
    return r, "o", gens, g


def _f2z_instance():
    graph = Graph()
    graph.add_vertex("x")
    graph.add_vertex("y")
    graph.add_edge("e", "x", "y")
    t = GraphOfGroups(graph, {"x": FreeGroup(2), "y": IntGroup()}, base="x")
    gens = [
        W(t, "x", "x1.x1"),
        W(t, "x", "x2", "e", "2", "~e", "x2-"),
        W(t, "x", "x1", "e", "3", "~e", "x2"),
    ]
    g = W(t, "x", "x1.x2", "e", "1", "~e", "1")
    return t, "x", gens, g


GOLDEN = {
    "pslz": (
        _pslz_instance,
        "43cae7ff465756382f88db8bd08c3de9e38b206e90e9a810fed321a97e1b2b2e",
    ),
    # 125 folds, two of which grow a vertex group; the pslz instance makes no fold
    "pslz-folds": (
        lambda: pslz_conjugates(30),
        "3322566c26334b574e526df4fd66faaf83a942a4904ec63bde978f8a897bbf03",
    ),
    "rose2": (
        _rose2_instance,
        "f584042a8030a3ce09f0341f2dbf9dfd94e34df7ef937549f512e8b141be88f1",
    ),
    "f2z": (
        _f2z_instance,
        "9314a2c70b34ff5c65ebb2aae37ffe8e89ca6e8674812f204f202f6ad066aa93",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_certificate_bytes_are_pinned(name):
    build, digest = GOLDEN[name]
    target, u0, gens, g = build()
    cert = separate_element(target, u0, gens, g, seed=0)
    text = dumps(certificate_to_json(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# gen_corpus feeds the fuzz and Hypothesis tests; pinning its draws shows
# that a change to the random-loop helper changed none of their inputs.
CORPUS_TARGETS = {
    "c2c3c2": (make_c2c3c2, "u"),
    "f2c2": (make_f2c2, "x"),
    "pslz": (make_pslz, "u"),
    "rose2": (make_rose2, "o"),
    "z2": (make_z2, "x"),
}
CORPUS_DIGEST = "a1a4e5d28b09d8e76dfe57e6b6948764a1095a3e38800d7bf575bce23f4be2f6"


def test_fuzz_corpus_is_pinned():
    keys = []
    for name in sorted(CORPUS_TARGETS):
        build, u0 = CORPUS_TARGETS[name]
        gog = build()
        for seed in range(20):
            keys.append([w.key() for w in gen_corpus(gog, u0, random.Random(seed), 10)])
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == CORPUS_DIGEST
