"""Command-line front end: compute, product and verify.

Exit codes are a stable contract: 0 for success (and for verify runs with
no discrepancies), 1 when a verify run found discrepancies, 2 for input
errors (unreadable or unparsable files, empty factors), 64 for usage
errors. Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cuts import is_super_connected, scan_cuts, vertex_connectivity_oracle
from .graphs import Graph, isolated_vertices, min_degree, vertex_connectivity
from .harness import THEOREM_IDS, InstanceFamily, VerificationReport, verify_theorem
from .io import MAX_VERTICES, GraphParseError, load_graph, serialize_graph6
from .lexprod import READINGS, lex_connectivity, lex_product

EX_OK = 0
EX_DISCREPANCY = 1
EX_INPUT = 2
EX_USAGE = 64

INVARIANT_NAMES = ("k", "k1", "super", "delta", "v0")
FORMATS = ("json", "csv", "plain")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lexiconn", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json", help="output format (default json)")
    common.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")

    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common], help="invariants of one graph")
    p_compute.add_argument("graph", help="graph file (.g6 or .el)")
    p_compute.add_argument(
        "--invariants",
        default=",".join(INVARIANT_NAMES),
        help="comma-separated subset of k,k1,super,delta,v0 (default: all)",
    )
    p_compute.add_argument("--format-in", choices=("g6", "el"), help="override input format sniffing")
    p_compute.add_argument("--witness", action="store_true", help="include witness cuts for k and k1")

    p_product = sub.add_parser("product", parents=[common], help="lexicographic product of two graphs")
    p_product.add_argument("g1", help="left factor file")
    p_product.add_argument("g2", help="right factor file")
    p_product.add_argument("out", help="output path for the product (graph6)")
    p_product.add_argument("--format-in", choices=("g6", "el"), help="override input format sniffing")
    p_product.add_argument("--report", action="store_true", help="print size and connectivity report")
    p_product.add_argument("--oracle", action="store_true", help="add the enumeration-oracle connectivity to the report")

    p_verify = sub.add_parser("verify", parents=[common], help="check a closed-form rule against the oracle")
    p_verify.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p_verify.add_argument("--n1-max", type=int, default=4)
    p_verify.add_argument("--n2-max", type=int, default=2)
    p_verify.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p_verify.add_argument("--samples", type=int, default=100, help="pair count in random mode")
    p_verify.add_argument("--seed", type=int, default=0, help="stream seed in random mode")
    p_verify.add_argument("--p", type=float, default=0.5, help="edge probability in random mode")
    p_verify.add_argument("--reading", choices=READINGS, default="min_cuts_only")
    return parser


def _scalar(value) -> str:
    """Value rendering for plain/csv output: JSON, except bare strings."""
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _emit(pairs: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(dict(pairs), indent=2))
    elif fmt == "plain":
        for name, value in pairs:
            print(f"{name} {_scalar(value)}")
    else:
        print("name,value")
        for name, value in pairs:
            cell = _scalar(value)
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            print(f"{name},{cell}")


def _load(path: str, fmt: str | None) -> Graph:
    try:
        return load_graph(path, fmt)
    except OSError as exc:
        raise _InputError(f"cannot read {path!r}: {exc}") from exc
    except (GraphParseError, ValueError) as exc:
        raise _InputError(f"cannot parse {path!r}: {exc}") from exc


class _InputError(Exception):
    pass


def _cmd_compute(args) -> int:
    names = [s.strip() for s in args.invariants.split(",") if s.strip()]
    for k, name in enumerate(names):
        if name not in INVARIANT_NAMES:
            raise _UsageError(f"unknown invariant {name!r}; expected a subset of {', '.join(INVARIANT_NAMES)}")
        if name in names[:k]:
            raise _UsageError(f"invariant {name!r} is requested twice")
    if not names:
        raise _UsageError("no invariants requested")
    g = _load(args.graph, args.format_in)
    pairs: list[tuple[str, object]] = []
    scan = None  # one subset sweep serves k and k_cut under --witness, k1, k1_cut and super
    try:
        for name in names:
            if name == "k":
                if args.witness:
                    scan = scan or scan_cuts(g)
                    pairs += [("k", scan.kappa), ("k_cut", list(scan.kappa_cut))]
                else:
                    pairs.append(("k", vertex_connectivity(g)))
            elif name == "k1":
                scan = scan or scan_cuts(g)
                pairs.append(("k1", scan.k1.to_json()))
                if args.witness:
                    cut = scan.k1_cut
                    pairs.append(("k1_cut", list(cut) if cut is not None else None))
            elif name == "super":
                pairs.append(("super", scan.super_connected if scan is not None else is_super_connected(g)))
            elif name == "delta":
                pairs.append(("delta", min_degree(g)))
            else:
                pairs.append(("v0", list(isolated_vertices(g))))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    _emit(pairs, args.format)
    return EX_OK


def _cmd_product(args) -> int:
    g1 = _load(args.g1, args.format_in)
    g2 = _load(args.g2, args.format_in)
    if g1.n * g2.n > MAX_VERTICES:
        raise _InputError(f"the product has {g1.n * g2.n} vertices; graph6 supports at most {MAX_VERTICES}")
    try:
        product = lex_product(g1, g2)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    text = serialize_graph6(product)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _InputError(f"cannot write {args.out!r}: {exc}") from exc
    if not args.quiet:
        print(f"wrote {text!r} ({product.n} vertices)", file=sys.stderr)
    if args.report:
        pairs: list[tuple[str, object]] = [
            ("n", product.n),
            ("m_edges", product.num_edges),
            ("kappa_formula", lex_connectivity(g1, g2)),
        ]
        if args.oracle:
            pairs.append(("kappa_oracle", vertex_connectivity_oracle(product)))
        _emit(pairs, args.format)
    return EX_OK


def _report_pairs(report: VerificationReport) -> list[tuple[str, object]]:
    obj = report.to_json()
    discrepancies = obj.pop("discrepancies")
    pairs = list(obj.items())
    pairs.append(("discrepancy_count", len(discrepancies)))
    for cert in discrepancies:
        pairs.append(("discrepancy", json.dumps(cert, separators=(",", ":"))))
    return pairs


def _cmd_verify(args) -> int:
    try:
        family = InstanceFamily(
            n1_max=args.n1_max,
            n2_max=args.n2_max,
            mode=args.mode,
            sample_count=args.samples,
            seed=args.seed,
            edge_probability=args.p,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    report = verify_theorem(args.theorem, family, args.reading)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        _emit(_report_pairs(report), args.format)
    if not args.quiet:
        print(
            f"{report.theorem_id}: {report.agreements}/{report.instances_checked} agree, "
            f"{len(report.discrepancies)} discrepancies, {report.skipped} skipped",
            file=sys.stderr,
        )
    return EX_DISCREPANCY if report.discrepancies else EX_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "product":
            return _cmd_product(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"lexiconn: usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except _InputError as exc:
        print(f"lexiconn: {exc}", file=sys.stderr)
        return EX_INPUT


if __name__ == "__main__":
    sys.exit(main())
