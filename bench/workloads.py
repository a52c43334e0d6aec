"""The three benchmark workloads: inputs from a seed, timed passes, output checks.

Each workload drives lexiconn through its public functions only, from one
process and one thread, as a closed loop with a single caller. A workload
object knows how to

* ``setup``: build its inputs from the seed (graphs, families, files),
* ``run_pass``: run every operation once over those inputs, in a fixed
  order, keeping one latency and one output per operation,
* ``check``: compare the kept outputs with independently computed
  expectations, outside the timed phase.

Why these three (see bench/README.md for the layer each one stresses):

* verify_exhaustive: the researcher's sweep; every labeled graph recurs
  across reports, so memo reuse, graph6 keying and per-pair max flow show.
* lex_query: the library user's closed-form fast path plus the oracle
  fallback for edgeless right factors, which sets the latency tail.
* cli_calls: the only path through ``cli`` and ``io`` parsing, and the
  single-graph use of the cut oracles without any memo.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

# The eleven reports of a verify sweep, in order.
THEOREM_RUNS = (
    ("thm21", "min_cuts_only"),
    ("thm21_complete", "min_cuts_only"),
    ("super_part1", "min_cuts_only"),
    ("super_part2", "min_cuts_only"),
    ("super_part3", "min_cuts_only"),
    ("thm22", "min_cuts_only"),
    ("thm22", "all_cuts"),
    ("thm23", "min_cuts_only"),
    ("thm23", "all_cuts"),
    ("cor24", "min_cuts_only"),
    ("cor24", "all_cuts"),
)


@dataclass
class Pass:
    """One pass of a workload over all of its inputs.

    ``latencies`` holds one entry per operation, in the same order on every
    pass, so a run can take each operation's median over its passes.
    """

    busy_s: float = 0.0  # time spent inside the workload's calls
    latencies: list = field(default_factory=list)  # seconds
    outputs: list = field(default_factory=list)  # workload-specific
    live: list | None = None  # objects of the library import that made them


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def product_graph(lx, g1, g2):
    """The lexicographic product built straight from its definition, kept
    apart from ``lexprod.lex_product`` so the checks do not trust it."""
    m = g2.n
    edges = []
    for u in range(g1.n * m):
        i, j = divmod(u, m)
        for v in range(u + 1, g1.n * m):
            p, q = divmod(v, m)
            if g1.has_edge(i, p) or (i == p and g2.has_edge(j, q)):
                edges.append((u, v))
    return lx.Graph(g1.n * m, edges)


def family_size(family) -> int:
    """Pairs a family yields, counted from its parameters alone."""
    if family.mode == "random":
        return family.sample_count

    def labeled(k):
        return sum(2 ** (n * (n - 1) // 2) for n in range(1, k + 1))

    return labeled(family.n1_max) * labeled(family.n2_max)


class _TimedFamily:
    """Stands in for an InstanceFamily and times the harness's work on each
    pair it hands out: from yielding the pair until the next one is asked
    for. Every other attribute is the wrapped family's."""

    def __init__(self, family, sink: list):
        self._family = family
        self._sink = sink

    def __getattr__(self, name):
        return getattr(self._family, name)

    def instances(self):
        clock = time.perf_counter
        sink = self._sink
        for pair in self._family.instances():
            start = clock()
            yield pair
            sink.append(clock() - start)


class VerifyWorkload:
    """Eleven verify_theorem reports over fixed instance families.

    Each pass starts from a freshly imported library, so the harness's
    oracle memo starts empty, as it does in a new process. An operation
    is one factor pair visited (checked or skipped).
    """

    fresh_import_per_pass = True

    def __init__(self, families):
        self._families = families  # (lx, seed) -> list of InstanceFamily

    def setup(self, lx, seed: int, workdir: str):
        return {"families": self._families(lx, seed)}

    def pairs(self, inputs):
        return [pair for family in inputs["families"] for pair in family.instances()]

    def run_pass(self, lx, inputs) -> Pass:
        """Outputs are kept as plain data, one row per report; the reports'
        certificates go to ``run.live``, which holds on to this import of
        the library (its memo included) until it is dropped."""
        run = Pass(live=[])
        for fi, family in enumerate(inputs["families"]):
            timed = _TimedFamily(family, run.latencies)
            for theorem, reading in THEOREM_RUNS:
                start = time.perf_counter()
                try:
                    report = lx.verify_theorem(theorem, timed, reading)
                except Exception as exc:  # a crash is a failed check, not a dead run
                    report = exc
                run.busy_s += time.perf_counter() - start
                label = f"{fi}:{theorem}:{reading}"
                if isinstance(report, Exception):
                    run.outputs.append((label, None, repr(report)))
                    continue
                counts = (report.instances_checked, report.skipped, report.agreements, len(report.discrepancies))
                run.outputs.append((label, digest(report.canonical_json()), (family_size(family), *counts)))
                run.live.extend((label, cert) for cert in report.discrepancies)
        return run

    def check(self, lx, inputs, passes: list, golden: dict | None) -> CheckResult:
        """Per report: the accounting identities, the same canonical JSON
        digest on every pass, and the golden digest when one applies. Then every
        certificate of the last pass is revalidated from scratch (earlier
        passes produced byte-identical reports)."""
        res = CheckResult()
        first = {}
        for run in passes:
            for label, sha, counts in run.outputs:
                if sha is None:
                    res.add(False, f"{label}: raised {counts}")
                    continue
                size, checked, skipped, agreements, disagreements = counts
                ok = checked + skipped == size and agreements + disagreements == checked
                ok = ok and first.setdefault(label, sha) == sha
                if golden is not None:
                    ok = ok and golden.get(label) == sha
                res.add(ok, f"{label}: identities, repeatability or golden digest")
        for k, (label, cert) in enumerate(passes[-1].live):
            try:
                ok = lx.validate_certificate(cert)
            except Exception:
                ok = False
            res.add(ok, f"{label}: certificate {k} does not revalidate")
        return res

    def pairs_visited(self, inputs, run: Pass) -> int:
        return sum(counts[1] + counts[2] for _, sha, counts in run.outputs if sha is not None)

    def digests(self, run: Pass) -> dict:
        return {row[0]: row[1] for row in run.outputs}


def verify_exhaustive(tiny: bool = False) -> VerifyWorkload:
    # No seed: exhaustive families are fixed. The seed is recorded and ignored.
    sizes = ((3, 2),) if tiny else ((4, 3), (5, 2))
    return VerifyWorkload(lambda lx, seed: [lx.InstanceFamily(n1, n2) for n1, n2 in sizes])


class PoolWorkload:
    """A pool of seeded inputs; one pass runs every entry once, in order."""

    fresh_import_per_pass = False

    def pairs_visited(self, inputs, run: Pass) -> int:
        """Factor pairs visited by the harness on the workload's behalf."""
        return 0

    def run_pass(self, lx, inputs) -> Pass:
        run = Pass()
        clock = time.perf_counter
        for item in inputs["pool"]:
            start = clock()
            try:
                out = self.operate(lx, item)
            except Exception as exc:  # a crash is a failed check, not a dead run
                out = exc
            elapsed = clock() - start
            run.busy_s += elapsed
            run.latencies.append(elapsed)
            run.outputs.append(out)
        return run

    def check(self, lx, inputs, passes: list, golden: dict | None) -> CheckResult:
        """Every output of every operation, against expectations computed
        once per pool entry."""
        res = CheckResult()
        expected = {}
        for run in passes:
            for i, out in enumerate(run.outputs):
                item = inputs["pool"][i]
                if isinstance(out, Exception):
                    res.add(False, f"entry {i}: raised {out!r}")
                    continue
                try:
                    if i not in expected:
                        expected[i] = self.expect(lx, item)
                    ok = self.matches(lx, item, out, expected[i])
                except Exception:
                    ok = False
                res.add(ok, f"entry {i}: output differs from the oracle")
        return res


# Share of left factors with finite k1, per left size. Close to what
# G(n, 1/2) gives among connected non-complete graphs (measured: about 18%
# at 5, 45% at 6, 67% at 7; none exist at 4), but fixed, so every seed
# puts the same number of expensive infinite-k1 products in the pool.
FINITE_K1_SHARE = {4: Fraction(0), 5: Fraction(1, 6), 6: Fraction(1, 2), 7: Fraction(2, 3)}


class LexQuery(PoolWorkload):
    """lex_connectivity, lex_k1_connectivity and lex_super_connected on one
    seeded pair make one operation.

    Left factors are connected, non-complete, on 4 to 7 vertices with
    p = 1/2; right factors have 1 to 3 vertices; n1 * m <= 15. The pool is
    stratified so seeds differ only in which graphs fill each stratum:
    every left size gets the same number of pairs, split evenly over the
    right sizes it allows and then over every labeled right factor of
    that size, and each such cell holds a fixed share of left factors with
    finite k1 (FINITE_K1_SHARE). The pool is then shuffled, so sizes
    interleave as they would for independent callers.
    """

    def __init__(self, tiny: bool = False):
        self.blocks = 1 if tiny else 13  # 96 pairs per block

    def setup(self, lx, seed: int, workdir: str):
        rng = random.Random(seed)
        pool = []
        for n1 in (4, 5, 6, 7):
            sizes = [m for m in (1, 2, 3) if n1 * m <= 15]
            cells = []
            for m in sizes:
                rights = list(lx.enumerate_labeled_graphs(m))
                per_right = self.blocks * 24 // len(sizes) // len(rights)
                for g2 in rights:
                    finite = round(FINITE_K1_SHARE[n1] * per_right)
                    cells.append((g2, finite, per_right - finite))
            need = {True: sum(c[1] for c in cells), False: sum(c[2] for c in cells)}
            lefts = {True: [], False: []}
            while len(lefts[True]) < need[True] or len(lefts[False]) < need[False]:
                g1 = lx.random_graph(n1, 0.5, rng.getrandbits(32))
                if not lx.is_connected(g1) or lx.is_complete(g1):
                    continue
                finite = lx.k1_connectivity(g1).is_finite
                if len(lefts[finite]) < need[finite]:
                    lefts[finite].append(g1)
            for g2, n_finite, n_infinite in cells:
                pool.extend((lefts[True].pop(), g2) for _ in range(n_finite))
                pool.extend((lefts[False].pop(), g2) for _ in range(n_infinite))
        rng.shuffle(pool)
        return {"pool": pool}

    def pairs(self, inputs):
        return inputs["pool"]

    def operate(self, lx, pair):
        g1, g2 = pair
        return lx.lex_connectivity(g1, g2), lx.lex_k1_connectivity(g1, g2), lx.lex_super_connected(g1, g2)

    def expect(self, lx, pair):
        product = product_graph(lx, *pair)
        scan = lx.scan_cuts(product)
        return {
            "product": product,
            "kappa": scan.kappa,
            "kappa_flow": lx.vertex_connectivity(product),
            "k1": scan.k1,
            "super": lx.is_super_connected(product),
        }

    def matches(self, lx, pair, out, exp) -> bool:
        kappa, k1, (is_super, _) = out
        if not (kappa == exp["kappa"] == exp["kappa_flow"] and is_super == exp["super"]):
            return False
        if k1.value != exp["k1"]:
            return False
        if not exp["k1"].is_finite:
            return k1.witness is None
        return (
            k1.witness is not None
            and len(set(k1.witness)) == len(k1.witness) == k1.value
            and lx.is_k1_vertex_cut(exp["product"], k1.witness)
        )


# Small verify runs for the CLI mix; each has no discrepancy, so exit 0.
CLI_VERIFY = (
    ("thm21", "3", "2", ()),
    ("thm21_complete", "4", "2", ()),
    ("thm22", "4", "2", ()),
    ("super_part1", "5", "3", ("--mode", "random", "--samples", "20")),
)


class CliCalls(PoolWorkload):
    """In-process ``lexiconn.cli.main(argv)`` with stdout and stderr captured.

    Per block of ten calls: eight ``compute --witness`` on seeded random
    graphs with 9 to 12 vertices (two of each size, p = 1/2, one as .g6 and
    one as .el), one ``product --report --oracle`` on a 4-6 vertex left and
    1-2 vertex right factor, and one small ``verify``. Graphs stop at 12
    vertices so a pass of 1000 calls, each timed three times, fits the
    run; a 13-vertex compute alone costs 10-35 ms.
    """

    def __init__(self, tiny: bool = False):
        self.blocks = 1 if tiny else 100
        self.sizes = (5, 6) if tiny else (9, 10, 11, 12)

    def setup(self, lx, seed: int, workdir: str):
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        pool = []

        def write(g, stem, ext):
            path = os.path.join(workdir, f"{stem}.{ext}")
            text = lx.serialize_graph6(g) + "\n" if ext == "g6" else lx.format_edge_list(g)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        for b in range(self.blocks):
            for k, n in enumerate(self.sizes * 2):
                g = lx.random_graph(n, 0.5, rng.getrandbits(32))
                path = write(g, f"c{b}_{k}", "g6" if k < len(self.sizes) else "el")
                pool.append(("compute", ["compute", path, "--witness"], g))
            g1 = lx.random_graph(rng.randint(4, 6), 0.5, rng.getrandbits(32))
            g2 = lx.random_graph(rng.randint(1, 2), 0.5, rng.getrandbits(32))
            out = os.path.join(workdir, f"p{b}.g6")
            argv = ["product", write(g1, f"l{b}", "el"), write(g2, f"r{b}", "g6"), out, "--report", "--oracle"]
            pool.append(("product", argv, (g1, g2, out)))
            theorem, n1, n2, extra = CLI_VERIFY[b % len(CLI_VERIFY)]
            argv = ["verify", "--theorem", theorem, "--n1-max", n1, "--n2-max", n2, *extra]
            if extra:
                argv += ["--seed", str(rng.getrandbits(16))]
            pool.append(("verify", argv, None))
        rng.shuffle(pool)
        return {"pool": pool}

    def pairs(self, inputs):
        return [item[2][:2] for item in inputs["pool"] if item[0] == "product"]

    def pairs_visited(self, inputs, run: Pass) -> int:
        visited = 0
        for item, out in zip(inputs["pool"], run.outputs):
            if item[0] == "verify" and not isinstance(out, Exception):
                report = json.loads(out[1])
                visited += report["instances_checked"] + report["skipped"]
        return visited

    def operate(self, lx, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lx.cli.main(item[1])
        return code, out.getvalue()

    def expect(self, lx, item):
        kind, argv, data = item
        if kind == "compute":
            g = data
            scan = lx.scan_cuts(g)
            return {
                "k": lx.vertex_connectivity_oracle(g),
                "k1": scan.k1.to_json(),
                "super": lx.is_super_connected(g),
                "delta": min(len(g.neighbors(v)) for v in range(g.n)),
                "v0": [v for v in range(g.n) if not g.neighbors(v)],
            }
        if kind == "product":
            g1, g2, _ = data
            product = product_graph(lx, g1, g2)
            kappa = lx.vertex_connectivity_oracle(product)
            return {"n": product.n, "m_edges": product.num_edges, "kappa_formula": kappa, "kappa_oracle": kappa}
        opts = dict(zip(argv[1::2], argv[2::2]))
        family = lx.InstanceFamily(
            int(opts["--n1-max"]),
            int(opts["--n2-max"]),
            mode=opts.get("--mode", "exhaustive"),
            sample_count=int(opts.get("--samples", 100)),
        )
        return {"pairs": family_size(family)}

    def matches(self, lx, item, out, exp) -> bool:
        code, stdout = out
        if code != 0:
            return False
        got = json.loads(stdout)
        kind, _, data = item
        if kind == "compute":
            g = data
            if any(got[key] != exp[key] for key in ("k", "k1", "super", "delta", "v0")):
                return False
            if not (len(got["k_cut"]) == exp["k"] and lx.is_vertex_cut(g, got["k_cut"])):
                return False
            if exp["k1"] == "infinity":
                return got["k1_cut"] is None
            cut = got["k1_cut"]
            return len(set(cut)) == len(cut) == exp["k1"] and lx.is_k1_vertex_cut(g, cut)
        if kind == "product":
            with open(data[2], encoding="utf-8") as fh:
                written = lx.parse_graph6(fh.read())
            return written == product_graph(lx, data[0], data[1]) and all(got[key] == exp[key] for key in exp)
        return (
            got["instances_checked"] + got["skipped"] == exp["pairs"]
            and got["agreements"] == got["instances_checked"]
            and got["discrepancies"] == []
        )


WORKLOADS = {
    "verify_exhaustive": verify_exhaustive,
    "lex_query": LexQuery,
    "cli_calls": CliCalls,
}


def canonical_form(g) -> tuple:
    """Isomorphism-class key by brute force: the least edge bitmask over all
    relabelings that list vertices by ascending degree. Isomorphic graphs
    admit the same set of such relabelings, so they get the same key; at
    most 6! = 720 orders are tried for the factors used here."""
    groups = [list(vs) for _, vs in itertools.groupby(sorted(range(g.n), key=g.degree), key=g.degree)]
    edges = g.edges()
    best = None
    for parts in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        pos = {v: i for i, v in enumerate(itertools.chain.from_iterable(parts))}
        code = 0
        for u, v in edges:
            a, b = sorted((pos[u], pos[v]))
            code |= 1 << (b * (b - 1) // 2 + a)
        if best is None or code < best:
            best = code
    return g.n, best


def input_shares(pairs) -> dict[str, float]:
    """Shares of the inputs that later optimizations key on: right factors
    without edges, and pairs whose (left, right) isomorphism classes
    already appeared earlier in the input order."""
    if not pairs:
        return {"edgeless_right": 0.0, "iso_repeat": 0.0}
    forms: dict = {}

    def form(g):
        key = (g.n, g.adj_bits)
        if key not in forms:
            forms[key] = canonical_form(g)
        return forms[key]

    seen = set()
    repeats = 0
    for g1, g2 in pairs:
        key = (form(g1), form(g2))
        repeats += key in seen
        seen.add(key)
    edgeless = sum(1 for _, g2 in pairs if g2.num_edges == 0)
    return {"edgeless_right": edgeless / len(pairs), "iso_repeat": repeats / len(pairs)}
