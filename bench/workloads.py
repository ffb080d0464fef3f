"""Job lists for the four benchmark workloads.

Every `build_*` function takes the workload seed, draws its inputs from
it, does all the set-up its jobs share (bases constructed, views searched,
files written, caches warmed) and returns a list of `Job`s in a seeded
order.
Nothing here reads a clock: timing, tracing and checking belong to
`worker.py`.

A job's `run()` calls the public functions of `omex` and returns its
outcome as plain JSON data; the outcome is what the reference digest
covers, so it holds witnesses, counts, verdicts and report bytes, never a
timing or an absolute path. `check(outcome)` returns a problem string, or
None when the output is correct. Checks run outside the timed region.

Job counts per kind are fixed and only the drawn inputs depend on the seed.
The counts put the median and the 90th percentile well inside the ranks of
one kind when a pass is sorted by latency; NOTES.md gives each kind's
latency band, and names the neighbouring bands that overlap it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import omex.cli
from omex import extractor, fingerprint, graph, offline, online, trevisan
from omex.rng import SplitMix64

WORKLOADS = ("offline-hall", "extractor-verify", "online-sweep",
             "codes-roundtrip")


@dataclass(frozen=True)
class Job:
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], str | None]


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _rows(rng: SplitMix64, left: int, degree: int, right: int) -> list[list[int]]:
    return [[rng.below(right) for _ in range(degree)] for _ in range(left)]


def _subset(rng: SplitMix64, population: int, count: int) -> tuple[int, ...]:
    return tuple(rng.sample(population, count))


def _order(rng: SplitMix64, jobs: list[Job]) -> list[Job]:
    """Fisher-Yates with the benchmark's own draws, so a partial last pass
    samples every kind in proportion."""
    out = list(jobs)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _hall_witness_problem(g, witness) -> str | None:
    if witness is None:
        return None
    distinct = {r for v in witness for r in g.neighbors[v]}
    if len(distinct) >= len(witness):
        return f"Hall witness {witness} has {len(distinct)} distinct neighbours"
    return None


# ---------------------------------------------------------------------------
# offline-hall
# ---------------------------------------------------------------------------

def _hall_job(kind, g, s, mode="exhaustive", expect=None, must_fail=False):
    def run():
        return {"witness": offline.hall_check(g, s, mode=mode)}

    def check(out):
        w = out["witness"]
        if must_fail and w is None:
            return "graph with fewer right vertices than left ones passed"
        if mode == "matching" and w != expect:
            return f"matching mode gave {w}, exhaustive mode {expect}"
        return _hall_witness_problem(g, w)
    return Job(kind, run, check)


def _construct_job(params, seed):
    def run():
        g, attempts = offline.construct_verified_offline_graph(params, seed)
        return {"attempts": attempts, "graph": _sha(graph.to_json(g))}

    def check(out):
        return None if 1 <= out["attempts"] <= 64 else "attempts outside 1..64"
    return Job("construct", run, check)


def build_offline_hall(seed: int) -> list[Job]:
    rng = SplitMix64(seed * 8 + 1)
    jobs = []
    # full scans: 16 draws into 128 right vertices pass up to size 8
    for _ in range(120):
        g = offline.random_offline_graph(offline.OfflineParams(4, 3, 2),
                                         rng.next_u64())
        jobs.append(_hall_job("hall-pass", g, 8))
    # witness search on tight right sides. Degree 2 on 12-16 right vertices
    # finds a witness at size 3-6 on most draws, well below a full scan's
    # cost; degree 3 on 14-15 and degree 4 on 12-13 right vertices find it
    # at size 8-13 on most draws, above it. Fewer right vertices than left
    # ones force a witness; with 16 of each, degree 2 fails on about 97% of
    # draws and the rest are full scans
    for degree, rights, count in ((2, (12, 13, 14, 15, 16), 40),
                                  (3, (14, 15), 4), (4, (12, 13), 4)):
        for _ in range(count):
            right = rights[rng.below(len(rights))]
            g = graph.BipartiteGraph.build(4, right, degree,
                                           _rows(rng, 16, degree, right))
            jobs.append(_hall_job(f"hall-fail-d{degree}", g, 16,
                                  must_fail=right < 16))
    # matching mode against the exhaustive answer, on passing (4,2,2)
    # graphs and on tight graphs whose witness has size <= 4
    for i in range(16):
        if i % 2:
            g = offline.random_offline_graph(offline.OfflineParams(4, 2, 2),
                                             rng.next_u64())
        else:
            g = graph.BipartiteGraph.build(4, 20, 2, _rows(rng, 16, 2, 20))
        expect = offline.hall_check(g, 4)
        jobs.append(_hall_job("hall-matching", g, 4, "matching", expect))
    for _ in range(4):
        jobs.append(_construct_job(offline.OfflineParams(4, 2, 2),
                                   rng.next_u64()))
    return _order(rng, jobs)


# ---------------------------------------------------------------------------
# extractor-verify
# ---------------------------------------------------------------------------

def _extractor_witness_problem(view, check) -> str | None:
    if check.witness is None:
        return None
    dev = extractor.deviation(view, check.witness)
    if dev != check.witness_deviation or dev < view.eps:
        return (f"extractor witness {check.witness} has deviation {dev}, "
                f"reported {check.witness_deviation}, eps {view.eps}")
    return None


def _check_outcome(check) -> dict:
    return {"mode": check.mode, "checked": check.checked,
            "witness": None if check.witness is None else list(check.witness),
            "deviation": None if check.witness_deviation is None
            else str(check.witness_deviation)}


def _search_job(kind, n, k, m, eps, d, seed, prefix):
    def run():
        view, attempts = extractor.random_extractor_search(
            n, k, m, eps, d, seed, prefix=prefix)
        return {"attempts": attempts,
                "view": _sha(extractor.view_to_json(view))}

    def check(out):
        return None if 1 <= out["attempts"] <= 64 else "attempts outside 1..64"
    return Job(kind, run, check)


def _recheck_job(view):
    def run():
        return _check_outcome(extractor.is_extractor(view))

    def check(out):
        # the view came out of an exhaustive search, so it must verify
        if out["witness"] is not None or out["checked"] != math.comb(view.N, view.K):
            return f"searched view no longer verifies: {out}"
        return None
    return Job("recheck-n5", run, check)


def _hazard_job(view):
    reports = []

    def run():
        reports[:] = [extractor.hazard_report(view, S)
                      for S in itertools.combinations(range(view.N), view.K)]
        return {"bad": sum(len(r.bad) for r in reports),
                "dangerous": sum(len(r.dangerous) for r in reports),
                "weakly": sum(len(r.weakly_dangerous) for r in reports)}

    def check(_out):
        for r in reports:
            if not set(r.dangerous) <= set(r.weakly_dangerous) <= set(r.subset):
                return f"hazard sets not nested for {r.subset}"
        return None
    return Job("hazard-sweep", run, check)


def _trevisan_view_job(seed):
    code = trevisan.CodeTable(2, Fraction(1, 4))
    holder = {}

    def run():
        design = trevisan.greedy_weak_design(2, 4, 10, seed)
        view = trevisan.as_extractor_view(code, design, 2, Fraction(1, 4))
        result = extractor.is_extractor(view)
        holder["view"], holder["check"] = view, result
        return {"sets": [list(s) for s in design.sets],
                "graph": _sha(graph.to_json(view.graph)),
                **_check_outcome(result)}

    def check(out):
        problem = trevisan.verify_weak_design(
            trevisan.WeakDesign(10, 2, tuple(map(tuple, out["sets"]))), 4)
        if problem is not None:
            return f"weak design invalid: {problem}"
        return _extractor_witness_problem(holder["view"], holder["check"])
    return Job("trevisan-view", run, check)


def build_extractor_verify(seed: int) -> list[Job]:
    rng = SplitMix64(seed * 8 + 2)
    half, three_eighths = Fraction(1, 2), Fraction(3, 8)
    jobs = []
    # (kind, n, k, m, eps, d, prefix, count); the n=4, K=4 parameters are
    # tight enough that some draws fail, so attempts > 1; the costlier kinds
    # verify their first draw, so the seed does not move the pass's cost
    for kind, n, k, m, eps, d, prefix, count in (
            ("search-n4K4", 4, 2, 2, three_eighths, 2, False, 20),
            ("search-n4K4-prefix", 4, 2, 2, three_eighths, 3, True, 20),
            ("search-n4K8", 4, 3, 2, Fraction(5, 16), 3, False, 8),
            ("search-n4K8-prefix", 4, 3, 3, half, 3, True, 4),
            ("search-n5K4", 5, 2, 2, half, 3, False, 4)):
        for _ in range(count):
            jobs.append(_search_job(kind, n, k, m, eps, d, rng.next_u64(),
                                    prefix))
    # the re-checks outnumber the two costly searches, whose latencies
    # overlap theirs, four to one, so the 90th percentile is a re-check's
    for _ in range(4):
        view, _ = extractor.random_extractor_search(5, 2, 2, half, 3,
                                                    rng.next_u64())
        jobs += [_recheck_job(view)] * 8
    view4, _ = extractor.random_extractor_search(4, 2, 2, half, 3,
                                                 rng.next_u64())
    jobs += [_hazard_job(view4)] * 16
    for _ in range(24):
        jobs.append(_trevisan_view_job(rng.next_u64()))
    return _order(rng, jobs)


# ---------------------------------------------------------------------------
# online-sweep
# ---------------------------------------------------------------------------

def _sequence_count(nleft: int, capacity: int) -> int:
    return sum(math.perm(nleft, j) for j in range(1, capacity + 1))


def _sweep_job(base, k):
    capacity = 2 ** k
    expected = _sequence_count(base.left_size, capacity)

    def run():
        lg = online.layered(base, k)
        sweep = online.exhaustive_online_check(lg, capacity)
        return {"sequences": sweep.sequences,
                "first_rejection": sweep.first_rejection,
                "first_audit_violation": None
                if sweep.first_audit_violation is None
                else [sweep.first_audit_violation[0],
                      str(sweep.first_audit_violation[1])]}

    def check(out):
        # greedy over k+1 layers of a verified base serves every sequence
        if out["first_rejection"] is not None or out["first_audit_violation"]:
            return f"layered sweep failed: {out}"
        if out["sequences"] != expected:
            return f"swept {out['sequences']} sequences, expected {expected}"
        return None
    return Job(f"sweep-n{base.n}-k{k}", run, check)


def _game_job(g, s, expect):
    def run():
        res = online.online_strategy_exists(g, s)
        return {"exists": res.exists, "nodes": res.nodes,
                "strategy": None if res.strategy is None
                else _sha(json.dumps(res.strategy, sort_keys=True))}

    def check(out):
        if out["exists"] != expect:
            return f"game at s={s} gave exists={out['exists']}"
        return None
    return Job(f"game-s{s}", run, check)


def _counterexample_job():
    def run():
        g = online.counterexample_graph()
        return {"hall": offline.hall_check(g, 2),
                "exists": online.online_strategy_exists(g, 2).exists}

    def check(out):
        if out != {"hall": None, "exists": False}:
            return f"counterexample verdicts wrong: {out}"
        return None
    return Job("counterexample", run, check)


def build_online_sweep(seed: int) -> list[Job]:
    rng = SplitMix64(seed * 8 + 3)

    def bases(n, k, count):
        return [offline.construct_verified_offline_graph(
            offline.OfflineParams(n, k, 1), rng.next_u64())[0]
            for _ in range(count)]

    jobs = [_counterexample_job() for _ in range(16)]
    for base in bases(3, 2, 4):
        jobs += [_sweep_job(base, 2)] * 5
    for i, base in enumerate(bases(4, 2, 8)):
        jobs += [_sweep_job(base, 2)] * 5
        # the game runs on the layered graph, where greedy already wins
        # every sequence of length <= 2^k, so a strategy must exist
        flat = online.layered(base, 2).graph
        jobs += [_game_job(flat, 3, True)] * 5
        if i < 2:
            jobs.append(_game_job(flat, 4, True))
    for base in bases(3, 3, 2):
        jobs.append(_sweep_job(base, 3))
    return _order(rng, jobs)


# ---------------------------------------------------------------------------
# codes-roundtrip
# ---------------------------------------------------------------------------

def _fp_match_job(lg, S):
    def run():
        out = []
        for a in S.elements:
            fp = fingerprint.encode_matching(lg, S, a)
            out.append([a, fingerprint.decode_matching(lg, S, fp),
                        fp.right_index, fp.neighbor_ordinal])
        return {"roundtrips": out}

    def check(out):
        bad = [row for row in out["roundtrips"] if row[0] != row[1]]
        return f"matching fingerprints decoded wrongly: {bad}" if bad else None
    return Job("fp-match", run, check)


def _fp_ext_job(views, S):
    def run():
        out = []
        for a in S.elements:
            fp = fingerprint.encode_extractor(views, S, a)
            out.append([a, fingerprint.decode_extractor(views, S, fp),
                        fp.layer, fp.right_index, fp.ordinal, fp.total_bits])
        return {"roundtrips": out}

    def check(out):
        bad = [row for row in out["roundtrips"] if row[0] != row[1]]
        return f"extractor fingerprints decoded wrongly: {bad}" if bad else None
    return Job("fp-ext", run, check)


def _fp_two_job(pview, s_b, s_c):
    trunc = extractor.truncate(pview, s_b.k - s_c.k)

    def run():
        out, skipped = [], 0
        weak_b = extractor.hazard_report(pview, s_b.elements).weakly_dangerous
        weak_c = extractor.hazard_report(trunc, s_c.elements).weakly_dangerous
        for a in s_b.elements:
            if a not in s_c:
                continue
            if a in weak_b or a in weak_c:
                skipped += 1
                continue
            fp = fingerprint.encode_two_conditions(pview, s_b, s_c, a)
            out.append([a, fingerprint.decode_two_conditions(pview, s_b, fp, "b"),
                        fingerprint.decode_two_conditions(pview, s_c, fp, "c"),
                        fp.p, fp.q, fp.ordinal_b, fp.ordinal_c])
        return {"roundtrips": out, "skipped": skipped}

    def check(out):
        bad = [row for row in out["roundtrips"] if not row[0] == row[1] == row[2]]
        return f"two-condition fingerprints decoded wrongly: {bad}" if bad else None
    return Job("fp-two", run, check)


def _agreement(a: str, b: str) -> int:
    return sum(1 for x, y in zip(a, b) if x == y)


def _hadamard_job(n_msg, u, flips):
    code = trevisan.CodeTable(n_msg, Fraction(1, 4))

    def run():
        word = list(trevisan.encode(code, u))
        for pos in flips:
            word[pos] = "1" if word[pos] == "0" else "0"
        word = "".join(word)
        return {"word": word, "list": trevisan.list_decode(code, word)}

    def check(out):
        if u not in out["list"]:
            return f"sent message {u} missing from decoded list {out['list']}"
        need = Fraction(3, 4) * code.codeword_length
        for msg in out["list"]:
            agree = _agreement(trevisan.encode(code, msg), out["word"])
            if agree < need:
                return f"listed message {msg} agrees on only {agree} positions"
        return None
    return Job(f"hadamard-{n_msg}", run, check)


def _trev_eval_job(code, design, pairs):
    def run():
        return {"bits": [trevisan.trevisan_eval(code, design, u, y)
                         for u, y in pairs]}

    def check(out):
        # bit i reads the codeword at the seed restricted to set i
        for (u, y), bits in zip(pairs, out["bits"]):
            want = "".join(
                str(sum(int(a) & int(b) for a, b in
                        zip(u, "".join(y[c - 1] for c in s))) & 1)
                for s in design.sets)
            if bits != want:
                return f"trevisan_eval({u}, {y}) = {bits}, expected {want}"
        return None
    return Job("trev-eval", run, check)


def _io_job(base, view, S, design, fp):
    def run():
        graph.save(base, "io-graph.json")
        extractor.save_view(view, "io-view.json")
        fingerprint.save_set(S, "io-set.json")
        trevisan.save_design(design, "io-design.json")
        with open("io-fp.json", "w", encoding="utf-8") as fh:
            json.dump(fp.to_doc(), fh, sort_keys=True)
        with open("io-fp.json", "r", encoding="utf-8") as fh:
            fp_back = fingerprint.fingerprint_from_doc(json.load(fh))
        back = (graph.load("io-graph.json"), extractor.load_view("io-view.json"),
                fingerprint.load_set("io-set.json"),
                trevisan.load_design("io-design.json"), fp_back)
        same = [a == b for a, b in zip(back, (base, view, S, design, fp))]
        sizes = []
        for name in ("graph", "view", "set", "design", "fp"):
            with open(f"io-{name}.json", "rb") as fh:
                sizes.append(_sha(fh.read()))
        return {"same": same, "files": sizes}

    def check(out):
        return None if all(out["same"]) else f"save/load changed objects: {out}"
    return Job("io", run, check)


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = omex.cli.main(argv)
    return code, buf.getvalue()


def _cli_job(kind, argv, expect_code=0):
    def run():
        code, text = _cli(argv)
        return {"code": code, "report": _sha(text)}

    def check(out):
        if out["code"] != expect_code:
            return f"omex {' '.join(argv)} exited {out['code']}"
        return None
    return Job(kind, run, check)


_FP_ARGS = ["--flavor", "match", "--graph", "cli-base.json",
            "--set", "cli-set.json"]


def _cli_fp_encode_job(lg, S, target):
    out_file = f"cli-enc-{target}.json"

    def run():
        code, text = _cli(["fp", "encode", *_FP_ARGS, "--target", str(target),
                           "--out", out_file])
        with open(out_file, "rb") as fh:
            written = fh.read()
        return {"code": code, "report": _sha(text), "file": _sha(written)}

    def check(out):
        with open(out_file, "r", encoding="utf-8") as fh:
            fp = fingerprint.fingerprint_from_doc(json.load(fh))
        element = fingerprint.decode_matching(lg, S, fp)
        if out["code"] != 0 or element != target:
            return f"CLI fingerprint of {target} exited {out['code']}, decodes to {element}"
        return None
    return Job("cli-fp-encode", run, check)


def _cli_fp_decode_job(target):
    argv = ["fp", "decode", *_FP_ARGS, "--fingerprint", f"cli-fp-{target}.json"]

    def run():
        code, text = _cli(argv)
        return {"code": code, "report": _sha(text),
                "element": json.loads(text)["outcome"]["element"]}

    def check(out):
        if out["code"] != 0 or out["element"] != target:
            return f"CLI decode of the fingerprint of {target} gave {out}"
        return None
    return Job("cli-fp-decode", run, check)


def build_codes_roundtrip(seed: int) -> list[Job]:
    rng = SplitMix64(seed * 8 + 4)
    half = Fraction(1, 2)
    jobs = []

    base43, _ = offline.construct_verified_offline_graph(
        offline.OfflineParams(4, 3, 2), rng.next_u64())
    lg43 = online.layered(base43, 3)
    for _ in range(20):
        jobs.append(_fp_match_job(
            lg43, fingerprint.EnumeratedSet("S", 3, _subset(rng, 16, 8))))

    views = [extractor.random_extractor_search(4, 2, 2, half, 3,
                                               rng.next_u64())[0]
             for _ in range(3)]
    for _ in range(20):
        # keep sets whose every element stops being dangerous at some layer
        while True:
            elements = _subset(rng, 16, 4)
            if not fingerprint.layer_sets(views, elements)[-1]:
                break
        jobs.append(_fp_ext_job(views, fingerprint.EnumeratedSet("S", 2, elements)))

    pview, _ = extractor.random_extractor_search(4, 2, 2, half, 3,
                                                 rng.next_u64(), prefix=True)
    for _ in range(20):
        elements = _subset(rng, 16, 4)
        s_c = (elements[0], elements[1 + rng.below(3)])
        jobs.append(_fp_two_job(pview, fingerprint.EnumeratedSet("B", 2, elements),
                                fingerprint.EnumeratedSet("C", 1, s_c)))

    for n_msg, count in ((6, 8), (7, 30), (8, 10)):
        nbar = 2 ** n_msg
        for _ in range(count):
            u = format(rng.below(nbar), f"0{n_msg}b")
            flips = rng.sample(nbar, rng.below(nbar // 4 + 1))
            jobs.append(_hadamard_job(n_msg, u, flips))
        # fill the codeword table now, so its cost lands in set-up
        trevisan.list_decode(trevisan.CodeTable(n_msg, Fraction(1, 4)),
                             "0" * nbar)

    design = trevisan.greedy_weak_design(3, 4, 16, rng.next_u64())
    code3 = trevisan.CodeTable(3, Fraction(1, 4))
    for _ in range(8):
        pairs = [(format(rng.below(8), "03b"), format(rng.below(1 << 16), "016b"))
                 for _ in range(16)]
        jobs.append(_trev_eval_job(code3, design, pairs))

    fp = fingerprint.encode_matching(
        lg43, fingerprint.EnumeratedSet("S", 3, tuple(range(8))), 3)
    for _ in range(12):
        jobs.append(_io_job(base43, views[0],
                            fingerprint.EnumeratedSet("S", 2, _subset(rng, 16, 4)),
                            design, fp))

    # files for the in-process CLI jobs, named relative to the work directory
    # so the report bytes do not depend on where the benchmark runs
    base32, _ = offline.construct_verified_offline_graph(
        offline.OfflineParams(3, 2, 2), rng.next_u64())
    graph.save(base32, "cli-base.json")
    cli_set = _subset(rng, 8, 4)
    fingerprint.save_set(fingerprint.EnumeratedSet("S", 2, cli_set), "cli-set.json")
    extractor.save_view(views[1], "cli-view.json")
    lg32 = online.layered(base32, 2)
    S32 = fingerprint.EnumeratedSet("S", 2, cli_set)
    for target in cli_set:
        doc = fingerprint.encode_matching(lg32, S32, target).to_doc()
        with open(f"cli-fp-{target}.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    for i in range(8):
        jobs.append(_cli_fp_encode_job(lg32, S32, cli_set[i % 4]))
        jobs.append(_cli_fp_decode_job(cli_set[i % 4]))
    jobs += [_cli_job("cli-hall", ["offline", "hall", "--graph", "cli-base.json",
                                   "--s", "4"])] * 8
    # the costliest kind, a fifth of the pass: the 90th percentile falls
    # in its middle
    jobs += [_cli_job("cli-ext-check", ["ext", "check", "--graph", "cli-view.json"])] * 30
    return _order(rng, jobs)


BUILDERS = {
    "offline-hall": build_offline_hall,
    "extractor-verify": build_extractor_verify,
    "online-sweep": build_online_sweep,
    "codes-roundtrip": build_codes_roundtrip,
}
