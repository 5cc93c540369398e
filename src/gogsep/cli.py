"""Command-line front end.

Exit codes: 0 success, 1 operational failure (non-covers, failed
verification, already-member, enumeration caps), 2 malformed input
documents or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .completion import complete_to_cover
from .core import GraphOfGroups
from .dotexport import gog_to_dot, morphism_to_dot
from .enlargement import enlarge
from .errors import GogsepError, SchemaError
from .folding import cover_index, fold, kurosh_rank, reduced_kurosh_rank, wedge
from .jsonio import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    gog_from_json,
    morphism_from_json,
    morphism_to_json,
    word_from_json,
)
from .morphism import check_cover, check_immersion, subgroup_member
from .oracles import MAX_ORDER_CEILING
from .separator import separate_element, verify_certificate
from .verifier import crosscheck


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # no such file, a directory, no permission, ...
        raise SchemaError(path, f"cannot read: {exc.strerror or exc}")
    except ValueError as exc:  # bad JSON, or a number past the digit limit
        raise SchemaError(path, f"not JSON: {exc}")
    except RecursionError:  # the parser recurses once per nested array or object
        raise SchemaError(path, "not JSON: nested too deeply")


def _write(args, text: str):
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a directory, no permission, a full disk, ...
            raise GogsepError(f"cannot write {args.output}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _load_words(gog: GraphOfGroups, doc, path: str):
    if isinstance(doc, dict) and "generators" in doc:
        doc = doc["generators"]
    if not isinstance(doc, list):
        raise SchemaError(path, "expected a list of words")
    return [
        word_from_json(gog, w, path=f"{path}[{i}]") for i, w in enumerate(doc)
    ]


def _base_vertex(gog: GraphOfGroups, args) -> str:
    base = getattr(args, "base", None) or gog.base
    if base is None:
        raise SchemaError("$.base", "no base vertex given (use --base)")
    if not gog.graph.has_vertex(base):
        raise SchemaError("$.base", f"unknown vertex {base!r}")
    return base


def _print_transcript(report) -> int:
    for entry in report.transcript:
        mark = "ok  " if entry["ok"] else "FAIL"
        print(f"{mark} {entry['check']}: {entry['detail']}")
    print("verdict:", "pass" if report.ok else "fail")
    return 0 if report.ok else 1


def cmd_fold(args) -> int:
    target = gog_from_json(_read_json(args.target), max_order=args.max_order)
    u0 = _base_vertex(target, args)
    gens = _load_words(target, _read_json(args.gens), args.gens)
    m = fold(wedge(target, u0, gens))
    _write(args, dumps(morphism_to_json(m, convention=args.convention)))
    print(
        f"immersion: {len(m.domain.graph.vertices)} vertices, "
        f"{len(m.domain.graph.edge_pairs())} edge pairs, "
        f"kurosh rank {kurosh_rank(m)}",
        file=sys.stderr,
    )
    return 0


def cmd_rank(args) -> int:
    m = morphism_from_json(_read_json(args.morphism), max_order=args.max_order)
    print(json.dumps({
        "kurosh_rank": kurosh_rank(m),
        "reduced_kurosh_rank": reduced_kurosh_rank(m),
    }))
    return 0


def cmd_index(args) -> int:
    m = morphism_from_json(_read_json(args.morphism), max_order=args.max_order)
    per_vertex = {
        v: m.vgroup_image[v].index() for v in m.domain.graph.vertices
    }
    out = {"vertex_indices": per_vertex}
    if None not in per_vertex.values():  # only finite indices admit a cover
        report = check_cover(m)
        if report.ok:
            out["cover_degree"] = report.degree
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_complete(args) -> int:
    m = morphism_from_json(_read_json(args.morphism), max_order=args.max_order)
    cover = complete_to_cover(m, seed=args.seed)
    _write(args, dumps(morphism_to_json(cover, convention=args.convention)))
    print(f"cover of degree {cover_index(cover)}", file=sys.stderr)
    return 0


def cmd_enlarge(args) -> int:
    m = morphism_from_json(_read_json(args.morphism), max_order=args.max_order)
    enlarged = enlarge(m)
    _write(args, dumps(morphism_to_json(enlarged, convention=args.convention)))
    return 0


def cmd_separate(args) -> int:
    target = gog_from_json(_read_json(args.target), max_order=args.max_order)
    u0 = _base_vertex(target, args)
    gens = _load_words(target, _read_json(args.gens), args.gens)
    element = word_from_json(target, _read_json(args.element), path=args.element)
    cert = separate_element(target, u0, gens, element, seed=args.seed)
    _write(args, dumps(certificate_to_json(cert, convention=args.convention)))
    print(f"separated by a cover of degree {cert.degree}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    cert = certificate_from_json(_read_json(args.certificate), max_order=args.max_order)
    return _print_transcript(verify_certificate(cert))


def cmd_member(args) -> int:
    m = morphism_from_json(_read_json(args.morphism), max_order=args.max_order)
    base = _base_vertex(m.domain, args)
    w = word_from_json(m.target, _read_json(args.word), path=args.word)
    if not check_immersion(m).ok:
        raise GogsepError("membership needs an immersion; fold first")
    print(json.dumps({"member": subgroup_member(m, base, w)}))
    return 0


def cmd_export_dot(args) -> int:
    doc = _read_json(args.document)
    if isinstance(doc, dict) and "cover" in doc:
        cert = certificate_from_json(doc, max_order=args.max_order)
        text = morphism_to_dot(cert.cover)
    elif isinstance(doc, dict) and "domain" in doc:
        text = morphism_to_dot(morphism_from_json(doc, max_order=args.max_order))
    else:
        text = gog_to_dot(gog_from_json(doc, max_order=args.max_order))
    _write(args, text)
    return 0


def cmd_crosscheck(args) -> int:
    if args.radius < 0 or args.coset_cap < 1:
        print("error: --radius must be at least 0 and --coset-cap at least 1", file=sys.stderr)
        return 2
    cert = certificate_from_json(_read_json(args.certificate), max_order=args.max_order)
    return _print_transcript(
        crosscheck(cert, radius=args.radius, cap=args.coset_cap)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gogsep",
        description=(
            "Subgroup separability certificates for free products, "
            "via folded graph-of-groups immersions and finite covers."
        ),
    )
    parser.add_argument(
        "--max-order",
        type=int,
        default=64,
        help=f"cap on finite vertex group order in documents (at most {MAX_ORDER_CEILING})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", help="write result to a file")
        p.add_argument(
            "--convention",
            choices=("right", "paper-left"),
            default="right",
            help="coset convention for emitted documents",
        )

    p = sub.add_parser("fold", help="fold generator loops into an immersion")
    p.add_argument("target", help="graph-of-groups JSON file")
    p.add_argument("--base", help="base vertex (default: document base)")
    p.add_argument("--gens", required=True, help="JSON file with generator words")
    common(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("rank", help="Kurosh rank of an immersion")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("index", help="vertex subgroup indices / cover degree")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("complete", help="complete an immersion to a cover")
    p.add_argument("morphism")
    p.add_argument("--seed", type=int, help="shuffle free slots deterministically")
    common(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("enlarge", help="enlarge vertex subgroups to finite index")
    p.add_argument("morphism")
    common(p)
    p.set_defaults(func=cmd_enlarge)

    p = sub.add_parser("separate", help="emit a separation certificate")
    p.add_argument("target")
    p.add_argument("--base", help="base vertex (default: document base)")
    p.add_argument("--gens", required=True, help="JSON file with generator words")
    p.add_argument("--element", required=True, help="JSON file with the word")
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("member", help="decide membership via an immersion")
    p.add_argument("morphism")
    p.add_argument("--base", help="domain base vertex (default: document base)")
    p.add_argument("--word", required=True, help="JSON file with the word")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("export-dot", help="render a document as Graphviz DOT")
    p.add_argument("document")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("crosscheck", help="verify a certificate independently")
    p.add_argument("certificate")
    p.add_argument("--radius", type=int, default=2, help="tree ball radius")
    p.add_argument("--coset-cap", type=int, default=20000)
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_order > MAX_ORDER_CEILING:
        print(f"error: --max-order is past its ceiling {MAX_ORDER_CEILING}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except GogsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
