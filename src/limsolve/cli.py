"""Command-line interface.

Reports are machine-parseable: key=value lines, then the verdict as the
last line.  Exit codes for solve/oracle/cset-solve: 0 = EMPTY,
1 = NONEMPTY, 2 = error; hom mirrors this with NO-HOM = 0, HOM = 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import generate, jsonio, oracle
from .diagram import CoDecomposition, as_subdiagram
from .graphs import MAX_SET_SIZE, VertexSet, fvs_exact
from .hom import hom_exists
from .cset import cset_inlim
from .solver import Witness, image_tree, inlim


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise jsonio.ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise jsonio.ParseError(f"{path}: invalid JSON: {exc}") from exc


def _decimal(token: str, max_digits: int) -> int | None:
    """The value of a token of ASCII decimal digits with at most max_digits
    digits after its leading zeros, else None.  int() would also read
    "1_0", "+0" and non-ASCII digits, refuses more than 4300 digits in a
    text that names no option, and counts leading zeros towards that."""
    if not (token.isascii() and token.isdigit()):
        return None
    digits = token.lstrip("0")
    return int(digits or "0") if len(digits) <= max_digits else None


# integer options by dest, and the most digits one is read with after its
# leading zeros
_INTEGERS = {"fvs_max": "--fvs-max", "cap": "--cap", "max": "--max",
             "n": "--n", "w": "--w", "seed": "--seed"}
_INTEGER_DIGITS = 20


def _integer(flag: str, token: str) -> int:
    """The value of an integer option: ASCII digits after an optional
    leading -.  ValueError names the option, and the length of a long
    token instead of echoing it."""
    negative = token.startswith("-")
    digits = token[negative:]
    value = _decimal(digits, _INTEGER_DIGITS)
    if value is not None:
        return -value if negative else value
    if digits.isascii() and digits.isdigit():
        raise ValueError(f"{flag} of {len(digits)} digits is longer than "
                         f"{_INTEGER_DIGITS} digits")
    # echoed only when no longer than the longest value read
    shown = (repr(token) if len(token) <= _INTEGER_DIGITS + 1
             else f"of {len(token)} characters")
    raise ValueError(f"{flag} {shown} is not an integer of ASCII digits")


def _parse_fvs(arg: str | None, n: int) -> VertexSet | None:
    if arg is None:
        return None
    ids = []
    for tok in arg.split(","):
        tok = tok.strip()
        if not tok:
            continue
        v = _decimal(tok, len(str(n - 1)))
        if v is None:
            if tok.isascii() and tok.isdigit():
                raise ValueError(f"--fvs token of {len(tok)} digits is not "
                                 f"a vertex id for n={n}")
            raise ValueError(f"--fvs token {tok!r} is not a vertex id")
        ids.append(v)
    return VertexSet.of(n, ids)


def _verdict(empty: bool, words: tuple[str, str] = ("EMPTY", "NONEMPTY")
             ) -> int:
    """Print the verdict, words[0] for an empty limit, as the last line,
    and return its exit code."""
    print(words[not empty])
    return int(not empty)


def _labels(labels: dict, elements) -> str:
    """Each element's label, or its index in an unlabelled set."""
    return ",".join(labels[i][a] if i in labels else str(a)
                    for i, a in enumerate(elements))


def _witness_lines(d: CoDecomposition, w: Witness) -> list[str]:
    verts = _labels(d.vertex_labels, w.vertex_elements)
    edges = _labels(d.edge_labels, w.edge_elements)
    return [f"witness_vertices={verts}", f"witness_edges={edges}"]


def cmd_solve(args) -> int:
    d = jsonio.parse_diagram(_load(args.diagram))
    fvs = _parse_fvs(args.fvs, d.shape.n)
    t0 = time.perf_counter()
    result = inlim(d, fvs=fvs, k_max=args.fvs_max, want_witness=args.witness)
    elapsed = (time.perf_counter() - t0) * 1000.0
    print(f"n={d.shape.n}")
    print(f"w={d.width()}")
    print(f"k={len(result.fvs)}")
    print(f"fvs={','.join(map(str, result.fvs))}")
    print(f"section_tests={result.section_test_count}")
    if not args.deterministic:
        print(f"time_ms={elapsed:.3f}")
    if args.witness and result.witness is not None:
        for line in _witness_lines(d, result.witness):
            print(line)
    return _verdict(result.verdict.empty_limit)


def cmd_oracle(args) -> int:
    d = jsonio.parse_diagram(_load(args.diagram))
    families = oracle.enumerate_limit(d, cap=args.cap)
    print(f"n={d.shape.n}")
    print(f"w={d.width()}")
    print(f"family_count={len(families)}")
    return _verdict(not families)


def cmd_image(args) -> int:
    d = jsonio.parse_diagram(_load(args.diagram))
    mask = image_tree(d, d.full_mask())
    print(jsonio.dumps(jsonio.diagram_to_json(as_subdiagram(d, mask))))
    return 0


def cmd_hom(args) -> int:
    b = jsonio.parse_decomposition(_load(args.decomposition))
    template = args.template
    if template.startswith("file:"):
        h = jsonio.parse_graph(_load(template[5:]))
    elif template.startswith("k") and template[1:].isdigit():
        digits = template[1:]
        k = _decimal(digits, len(str(MAX_SET_SIZE)))
        if k is None:
            if not digits.isascii():
                raise ValueError(f"--template k<n> with len(n) = "
                                 f"{len(digits)}: n takes ASCII digits")
            raise ValueError(f"--template k of {len(digits)} digits: K_k "
                             f"has more than {MAX_SET_SIZE} edges")
        edges = k * (k - 1) // 2
        if edges > MAX_SET_SIZE:  # before K_k is built
            raise ValueError(f"template '{template}': K_{k} has {edges} "
                             f"edges, above the limit of {MAX_SET_SIZE}")
        h = generate.complete_graph(k)
    else:
        raise jsonio.ParseError(f"unknown template '{template}'")
    fvs = _parse_fvs(args.fvs, b.shape.n)
    exists, coloring = hom_exists(b, h, fvs=fvs, k_max=args.fvs_max,
                                  want_coloring=args.witness)
    print(f"x_n={b.x.n}")
    print(f"shape_n={b.shape.n}")
    print(f"max_bag={max((len(bag) for bag in b.bags), default=0)}")
    if args.witness and coloring is not None:
        print("coloring=" + ",".join(map(str, coloring)))
    return _verdict(not exists, ("NO-HOM", "HOM"))


def cmd_cset_solve(args) -> int:
    cat = jsonio.parse_fincat(_load(args.category))
    d = jsonio.parse_cset_diagram(_load(args.diagram), cat)
    fvs = _parse_fvs(args.fvs, d.shape.n)
    verdict = cset_inlim(d, fvs=fvs, k_max=args.fvs_max)
    print(f"n={d.shape.n}")
    print(f"w_sum={d.width()}")
    print(f"w_slice={d.slice_width()}")
    return _verdict(verdict.empty_limit)


def cmd_fvs(args) -> int:
    obj = _load(args.graph)
    # a diagram, plain or C-set (what gen writes), is read for its shape
    if isinstance(obj, dict) and "shape" in obj:
        obj = obj["shape"]
    g = jsonio.parse_graph(obj)
    budget = g.n if args.max is None else args.max
    s = fvs_exact(g, budget)
    print(f"n={g.n}")
    if s is None:
        print("NONE")
        return 1
    print(f"k={len(s)}")
    print(f"fvs={','.join(map(str, sorted(s)))}")
    return 0


def cmd_gen(args) -> int:
    for flag, value in (("--n", args.n), ("--w", args.w)):
        if value > MAX_SET_SIZE:  # every loader would refuse the document
            raise ValueError(f"{flag} {value} exceeds the limit of "
                             f"{MAX_SET_SIZE}")
    d = generate.generate_instance(args.kind, args.n, args.w, args.seed,
                                   p=args.p, fixed_size=args.fixed_size)
    meta = {"kind": args.kind, "n": args.n, "w": args.w, "seed": args.seed}
    print(jsonio.dumps(jsonio.diagram_to_json(d, meta=meta)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limsolve",
        description="Decide emptiness of limits of graph-shaped diagrams "
                    "of finite sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the feedback vertex set options of the three solving commands
    fvs = argparse.ArgumentParser(add_help=False)
    fvs.add_argument("--fvs", help="comma-separated feedback vertex set "
                                   "of the shape")
    fvs.add_argument("--fvs-max", default=None,
                     help="budget for the feedback vertex set search")

    p = sub.add_parser("solve", parents=[fvs],
                       help="decide emptiness of a diagram's limit")
    p.add_argument("diagram")
    p.add_argument("--witness", action="store_true",
                   help="print a matching family when NONEMPTY")
    p.add_argument("--deterministic", action="store_true",
                   help="no timing line")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("oracle", help="decide by brute-force enumeration")
    p.add_argument("diagram")
    p.add_argument("--cap", default=oracle.CAP_DEFAULT)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("image", help="print the image subdiagram (forest shapes)")
    p.add_argument("diagram")
    p.set_defaults(fn=cmd_image)

    p = sub.add_parser("hom", parents=[fvs],
                       help="graph homomorphism existence via a bag "
                            "decomposition")
    p.add_argument("decomposition")
    p.add_argument("--template", default="k3",
                   help="k<n> for a complete graph or file:<graph.json>")
    p.add_argument("--witness", action="store_true",
                   help="print a verified vertex map when HOM")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("cset-solve", parents=[fvs],
                       help="decide emptiness for a diagram of C-sets")
    p.add_argument("category")
    p.add_argument("diagram")
    p.set_defaults(fn=cmd_cset_solve)

    p = sub.add_parser("fvs", help="exact bounded feedback vertex set")
    p.add_argument("graph", help="a graph, or a diagram whose shape is read")
    p.add_argument("--max", default=None)
    p.set_defaults(fn=cmd_fvs)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("kind", choices=["tree", "path", "cycle", "random"])
    p.add_argument("--n", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--seed", default=0)
    p.add_argument("--p", type=float, default=0.3,
                   help="edge probability for kind=random")
    p.add_argument("--fixed-size", action="store_true",
                   help="all sets exactly size w instead of 1..w")
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # read here, not by argparse, so that a refusal is one error: line
        for dest, flag in _INTEGERS.items():
            token = getattr(args, dest, None)
            if isinstance(token, str):
                setattr(args, dest, _integer(flag, token))
        return args.fn(args)
    except (jsonio.ParseError, oracle.CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means NONEMPTY/HOM: a crash must not escape as a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
