"""Single entry point exposing every subsystem plus the `demo` commands.

Reports go to stdout as JSON (CSV with --csv). A report echoes the command
and seed; re-running the echoed command reproduces the report byte for byte
(timings are only included when --timing is passed, precisely so that the
default report stays deterministic). Exit codes: 0 for ok/success verdicts,
1 for witness/counterexample/failure verdicts, 2 for usage errors.
"""

import argparse
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .extractor import (ExtractorView, hazard_report, hazard_walk,
                        is_extractor, is_prefix_extractor, optimal_degree,
                        optimal_degree_pow2, prefix_failure_bound,
                        random_extractor_search)
from .fingerprint import (EnumeratedSet, Fingerprint, bits_for,
                          decode_extractor, decode_matching,
                          decode_two_conditions, encode_extractor,
                          encode_matching, encode_two_conditions, layer_sets)
from .graph import BipartiteGraph, GraphError, load, save
from .offline import (OfflineParams, construct_verified_offline_graph,
                      hall_check, random_offline_graph, series_base,
                      series_bound)
from .online import (LayeredGraph, MatchingSession, counterexample_graph,
                     exhaustive_online_check, half_rejection_audit, layered,
                     online_strategy_exists)
from .rng import SplitMix64
from .trevisan import (CodeTable, WeakDesign, greedy_weak_design, list_decode,
                       trevisan_eval, verify_weak_design)

# the greedy weak-design grid exercised by `demo trevisan`
DESIGN_GRID = [(1, 4, 4), (2, 3, 6), (2, 4, 10), (2, 6, 14), (3, 4, 16),
               (3, 6, 24), (4, 4, 24)]


# --flavor value -> the `flavor` field of that flavor's fingerprint files
FP_FLAVORS = {"match": "matching", "ext": "extractor", "two": "two-condition"}


class UsageError(Exception):
    """Flag combinations argparse cannot express statically."""


def _plain(x):
    """Make a value JSON-ready: fractions as 'p/q' strings, tuples as lists,
    dict keys as strings."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _fraction(text: str) -> Fraction:
    """argparse type of every --eps/--delta; `1/0` is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _render(args, argv, outcome, started) -> str:
    """The report as the text to print: JSON, or CSV with --csv."""
    report = {
        "command": "omex " + " ".join(argv),
        "seed": getattr(args, "seed", None),
        "params": {k: _plain(v) for k, v in vars(args).items()
                   if k not in ("func", "csv", "timing") and v is not None},
        "outcome": _plain(outcome),
    }
    if args.timing:
        report["timing_s"] = round(time.monotonic() - started, 6)
    if args.csv:
        import csv   # only here: every other report would pay its import
        import io
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_csv_rows(report))
        return buf.getvalue().removesuffix("\n")
    return json.dumps(report, sort_keys=True)


def _csv_rows(report):
    outcome = report["outcome"]
    rows = outcome.get("rows") if isinstance(outcome, dict) else None
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        header = sorted({k for r in rows for k in r})
        yield header
        for r in rows:
            yield [str(r.get(k, "")) for k in header]
        return
    for key, value in _flatten("outcome", outcome):
        yield key, str(value)   # csv would write None as an empty field


def _flatten(prefix, value):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(f"{prefix}.{k}", v)
    elif isinstance(value, list):
        yield prefix, ";".join(str(v) for v in value)
    else:
        yield prefix, value


def _load_view_or_graph(args) -> ExtractorView:
    """A view file carries K and eps; a bare graph file needs --K/--eps."""
    K, eps = args.K, args.eps
    if (K is None) != (eps is None):
        raise UsageError("--K and --eps go together")

    def from_doc(doc):
        if K is not None:
            return ExtractorView(BipartiteGraph.from_doc(doc), K, eps)
        # anything but a bare graph object goes to the view parser, which
        # names the missing or malformed field
        if isinstance(doc, dict) and "K" not in doc and "eps" not in doc:
            raise UsageError("graph file has no embedded K/eps; pass --K and --eps")
        return ExtractorView.from_doc(doc)
    return load(args.graph, SimpleNamespace(from_doc=from_doc))


# ---------------------------------------------------------------------------
# offline
# ---------------------------------------------------------------------------

def _series_bound(n: int, k: int, c: int) -> Fraction:
    """`series_bound`, refused at once if unrenderable: for series_base
    a/b in lowest terms its denominator is b^(2^k), numerator >= a^(2^k).

    a/b is 2^(n+k) / n^E with E = c(n^c - 1), and at most 2^(n+k) cancels,
    so b keeps more than E * floor(log2 n) - n - k bits. That bound is
    tested first, so a base it already refuses is not built (5 million
    bits at n=6, c=7); taking E at min(c, 64) keeps n^c small."""
    limit = sys.get_int_max_str_digits()

    def refuse(bits: int) -> None:
        # bits: at most the larger bit length of a and b, less one
        if limit and min(bits, 1 << 64) * math.log10(2) > limit / 2 ** k:
            raise ValueError(  # the message str() itself would raise
                f"Exceeds the limit ({limit} digits) for integer string "
                "conversion; use sys.set_int_max_str_digits() to increase "
                "the limit")

    if n >= 2 and k >= 0 and c >= 1:    # else series_base says what is wrong
        t = min(c, 64)
        refuse(t * (n ** t - 1) * (n.bit_length() - 1) - n - k)
    x = series_base(n, k, c)
    refuse(max(x.numerator.bit_length(), x.denominator.bit_length()) - 1)
    return series_bound(n, k, c)


def cmd_offline_gen(args):
    p = OfflineParams(args.n, args.k, args.c)
    if args.no_verify:
        g, attempts = random_offline_graph(p, args.seed), 1
    else:
        g, attempts = construct_verified_offline_graph(
            p, args.seed, max_attempts=args.attempts)
    bound = _series_bound(args.n, args.k, args.c)
    bound_float = float(bound)
    # rendered before saving, so that a report that fails leaves no file
    outcome = {"ok": True, "verified": not args.no_verify,
               "attempts": attempts,
               "left_size": g.left_size, "right_size": g.right_size,
               "degree": p.degree, "series_bound": str(bound),
               "series_bound_float": bound_float, "out": args.out}
    if args.out:
        save(g, args.out)
    return outcome, True


def cmd_offline_hall(args):
    g = load(args.graph)
    witness = hall_check(g, args.s, mode=args.mode)
    return {"ok": witness is None, "witness": witness}, witness is None


def cmd_offline_bound(args):
    total = _series_bound(args.n, args.k, args.c)
    base = series_base(args.n, args.k, args.c)
    return {"sum": total, "sum_float": float(total),
            "base": base, "base_float": float(base)}, True


# ---------------------------------------------------------------------------
# online
# ---------------------------------------------------------------------------

def _read_requests(source: str) -> list[int]:
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    return [int(line) for line in lines if line.strip()]


def cmd_online_run(args):
    base = load(args.graph)
    lg = LayeredGraph.build(base, args.layers)
    requests = _read_requests(args.requests)
    capacity = args.capacity if args.capacity is not None else len(requests)
    session = MatchingSession(lg, capacity=capacity)
    for v in requests:
        session.request(v)
    violation = half_rejection_audit(session)
    ok = not session.rejections and violation is None
    return {"ok": ok,
            "matched": session.matched,
            "rejections": session.rejections,
            "reached": session.reached,
            "forwarded": session.forwarded,
            "audit": None if violation is None else str(violation)}, ok


def cmd_online_game(args):
    g = load(args.graph)
    res = online_strategy_exists(g, args.s)
    outcome = {"exists": res.exists, "nodes": res.nodes}
    if args.tree and res.strategy is not None:
        outcome["strategy"] = res.strategy
    return outcome, res.exists


def cmd_online_sweep(args):
    sweep = exhaustive_online_check(layered(load(args.graph), args.k),
                                    2 ** args.k)
    violation = sweep.first_audit_violation
    return {"ok": sweep.ok, "sequences": sweep.sequences,
            "visited": sweep.visited, "memo_hits": sweep.memo_hits,
            "certified": sweep.certified,
            "first_rejection": sweep.first_rejection,
            "first_audit_violation": None if violation is None
            else [violation[0], str(violation[1])]}, sweep.ok


def cmd_online_layered(args):
    base = load(args.graph)
    lg = layered(base, args.k)
    if args.out:
        save(lg.graph, args.out)
    return {"ok": True, "copies": lg.copies,
            "right_size": lg.graph.right_size,
            "max_degree": lg.graph.max_degree, "out": args.out}, True


# ---------------------------------------------------------------------------
# ext
# ---------------------------------------------------------------------------

def cmd_ext_check(args):
    if args.samples is not None and args.seed is None:
        raise UsageError("sampled mode draws randomness: --seed is required")
    view = _load_view_or_graph(args)
    if args.prefix is not None:
        res = is_prefix_extractor(view, args.prefix)
        outcome = {
            "verdict": "ok" if res.ok else "witness",
            "levels": [{"i": i, "K": ki, "verdict": c.verdict,
                        "checked": c.checked} for i, ki, c in res.levels],
        }
        if not res.ok:
            i, S, dev = res.witness
            outcome["witness"] = {"level": i, "S": list(S), "deviation": dev}
        return outcome, res.ok
    res = is_extractor(view, samples=args.samples, seed=args.seed)
    outcome = {"verdict": res.verdict, "mode": res.mode, "checked": res.checked}
    if res.witness is not None:
        outcome["witness"] = {"S": list(res.witness),
                              "deviation": res.witness_deviation}
    return outcome, res.witness is None


def cmd_ext_search(args):
    view, attempts = random_extractor_search(
        args.n, args.k, args.m, args.eps, args.d, seed=args.seed,
        max_attempts=args.attempts, prefix=args.prefix)
    if args.out:
        save(view, args.out)
    outcome = {"verdict": "ok", "attempts": attempts, "N": view.N,
               "M": view.M, "D": view.D, "K": view.K, "out": args.out}
    if args.prefix:
        outcome["failure_bound"] = prefix_failure_bound(
            args.n, args.k, args.m, args.d, args.eps)
    return outcome, True


def cmd_ext_hazards(args):
    view = _load_view_or_graph(args)
    eset = load(args.set, EnumeratedSet)
    rep = hazard_report(view, eset.elements, args.bad_factor)
    return {"subset": list(rep.subset), "bad": list(rep.bad),
            "dangerous": list(rep.dangerous),
            "weakly_dangerous": list(rep.weakly_dangerous),
            "bad_threshold": rep.bad_threshold,
            "bad_factor": rep.bad_factor}, True


def cmd_ext_degree(args):
    raw = optimal_degree(args.N, args.K, args.M, args.eps)
    return {"raw": raw, "pow2": optimal_degree_pow2(args.N, args.K, args.M,
                                                    args.eps)}, True


def cmd_ext_pbound(args):
    value = prefix_failure_bound(args.n, args.k, args.m, args.d, args.eps)
    return {"bound": value, "finite": math.isfinite(value)}, True


# ---------------------------------------------------------------------------
# trev
# ---------------------------------------------------------------------------

def cmd_trev_design(args):
    design = greedy_weak_design(args.l, args.m, args.d, seed=args.seed)
    if args.out:
        save(design, args.out)
    return {"ok": True, "d": design.d, "block_size": design.block_size,
            "sets": [list(s) for s in design.sets], "out": args.out}, True


def cmd_trev_eval(args):
    design = load(args.design, WeakDesign)
    code = CodeTable(design.block_size, Fraction(1, 4))   # only n_msg is read
    return {"output": trevisan_eval(code, design, args.u, args.y)}, True


def cmd_trev_decode(args):
    length = len(args.word)
    n_msg = length.bit_length() - 1
    if 2 ** n_msg != length:
        raise ValueError(f"word length {length} is not a power of 2")
    code = CodeTable(n_msg, args.delta)
    messages = list_decode(code, args.word)
    return {"messages": messages, "count": len(messages),
            "list_bound": float(1 / (4 * args.delta ** 2))}, True


# ---------------------------------------------------------------------------
# fp
# ---------------------------------------------------------------------------

def _fp_inputs(args):
    """The set file and the layers the flavor reads it through: the base
    graph layered at the set's k (match), or one view per layer (ext, two)."""
    if args.flavor == "match" and not args.graph:
        raise UsageError("match flavor needs --graph (the base graph file)")
    if args.flavor in ("ext", "two") and not args.views:
        raise UsageError(f"{args.flavor} flavor needs --views")
    if args.flavor == "two" and args.views and len(args.views) != 1:
        raise UsageError("two-condition flavor takes exactly one view")
    if args.flavor == "two" and args.cmd == "encode" and not args.set2:
        raise UsageError("two-condition flavor needs --set2 (the second set)")
    eset = load(args.set, EnumeratedSet)
    if args.flavor == "match":
        return eset, layered(load(args.graph), eset.k)
    return eset, [load(path, ExtractorView) for path in args.views]


def cmd_fp_encode(args):
    eset, layers = _fp_inputs(args)
    if args.flavor == "match":
        fp = encode_matching(layers, eset, args.target)
    elif args.flavor == "ext":
        fp = encode_extractor(layers, eset, args.target, args.bad_factor)
    else:
        fp = encode_two_conditions(layers[0], eset,
                                   load(args.set2, EnumeratedSet),
                                   args.target, args.bad_factor)
    if args.out:
        save(fp, args.out)
    return {"fingerprint": fp.to_doc(), "out": args.out}, True


def cmd_fp_decode(args):
    eset, layers = _fp_inputs(args)
    fp = load(args.fingerprint, Fingerprint)
    if fp.flavor != FP_FLAVORS[args.flavor]:
        raise ValueError(f"fingerprint file holds a {fp.flavor} fingerprint, "
                         f"not --flavor {args.flavor}")
    if args.flavor == "match":
        element = decode_matching(layers, eset, fp)
    elif args.flavor == "ext":
        element = decode_extractor(layers, eset, fp, args.bad_factor)
    else:
        if args.side == "c" and args.set2:
            eset = load(args.set2, EnumeratedSet)
        element = decode_two_conditions(layers[0], eset, fp, args.side)
    return {"element": element}, True


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def cmd_demo_counterexample(args):
    cx = counterexample_graph()
    hall2 = hall_check(cx, 2)
    hall3 = hall_check(cx, 3)
    game2 = online_strategy_exists(cx, 2)
    game1 = online_strategy_exists(cx, 1)
    separation = (hall2 is None and hall3 == [0, 1, 2]
                  and not game2.exists and game1.exists)
    return {"hall_s2_ok": hall2 is None, "hall_s3_witness": hall3,
            "online_s2_exists": game2.exists, "online_s1_exists": game1.exists,
            "game_nodes": game2.nodes, "separation": separation}, separation


def cmd_demo_om(args):
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    bound = series_bound(2, 1, 2)
    exact_ok = bound == Fraction(9, 64)
    failures = 0
    p = OfflineParams(2, 1, 2)
    for i in range(args.trials):
        g = random_offline_graph(p, args.seed + i)
        if hall_check(g, 2) is not None:
            failures += 1
    freq = failures / args.trials
    sigma = math.sqrt(float(bound) * (1 - float(bound)) / args.trials)
    mc_ok = freq <= float(bound) + 3 * sigma
    rows = []
    sweeps_ok = True
    # every k <= n for n <= 3, then two larger sizes
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3), (5, 2)):
        base, attempts = construct_verified_offline_graph(
            OfflineParams(n, k, 2), args.seed)
        sweep = exhaustive_online_check(layered(base, k), 2 ** k)
        rows.append({"n": n, "k": k, "attempts": attempts,
                     "sequences": sweep.sequences, "visited": sweep.visited,
                     "memo_hits": sweep.memo_hits,
                     "certified": sweep.certified, "ok": sweep.ok})
        sweeps_ok = sweeps_ok and sweep.ok
    ok = exact_ok and mc_ok and sweeps_ok
    return {"series_bound": bound, "series_bound_exact_ok": exact_ok,
            "trials": args.trials, "failures": failures,
            "failure_frequency": freq, "threshold": float(bound) + 3 * sigma,
            "monte_carlo_ok": mc_ok, "rows": rows,
            "all_sequences_served": sweeps_ok}, ok


def _searched_view(args):
    if args.max_rows < 0:  # checked first, as both lemma demos take it
        raise ValueError("max_rows must be nonnegative")
    m = args.m if args.m is not None else args.k
    d = args.d if args.d is not None else (
        optimal_degree_pow2(2 ** args.n, 2 ** args.k, 2 ** m, args.eps)
        .bit_length() - 1)
    view, attempts = random_extractor_search(
        args.n, args.k, m, args.eps, d, seed=args.seed,
        max_attempts=args.attempts)
    return view, attempts, d


# how `_hazard_rows` shows a subset that `hazard_walk` certified
_NO_HAZARDS = SimpleNamespace(bad=(), dangerous=(), weakly_dangerous=())


def _hazard_rows(view, args):
    """The (S, hazard report) pairs of the first --max-rows size-K subsets
    in lexicographic order, then the largest dangerous and weakly dangerous
    counts over all of them, from one `hazard_walk`."""
    shown = dict.fromkeys(itertools.islice(
        itertools.combinations(range(view.N), view.K), args.max_rows),
        _NO_HAZARDS)
    worst = worst_weak = 0
    for rep in hazard_walk(view, args.bad_factor):
        worst = max(worst, len(rep.dangerous))
        worst_weak = max(worst_weak, len(rep.weakly_dangerous))
        if rep.subset in shown:
            shown[rep.subset] = rep
    return shown.items(), worst, worst_weak


def cmd_demo_lemma1(args):
    view, attempts, d = _searched_view(args)
    K, eps = view.K, view.eps
    limit = 2 * eps * K
    shown, worst, _ = _hazard_rows(view, args)
    ok = worst < limit
    rows = [{"S": " ".join(map(str, S)), "dangerous": len(rep.dangerous),
             "weakly_dangerous": len(rep.weakly_dangerous),
             "bad": len(rep.bad)} for S, rep in shown]
    return {"attempts": attempts, "d": d, "K": K, "eps": eps,
            "dangerous_limit": limit, "max_dangerous": worst,
            "subsets": math.comb(view.N, K), "bound_ok": ok,
            "rows": rows}, ok


def cmd_demo_lemma3(args):
    view, attempts, d = _searched_view(args)
    K, eps = view.K, view.eps
    limit = 4 * eps * K
    shown, _, worst = _hazard_rows(view, args)
    ok = worst <= limit
    rows = [{"S": " ".join(map(str, S)),
             "weakly_dangerous": len(rep.weakly_dangerous)}
            for S, rep in shown]
    return {"attempts": attempts, "d": d, "K": K, "eps": eps,
            "weak_limit": limit, "max_weakly_dangerous": worst,
            "subsets": math.comb(view.N, K), "bound_ok": ok,
            "rows": rows}, ok


def cmd_demo_prefix(args):
    view, attempts = random_extractor_search(
        args.n, args.k, args.m, args.eps, args.d, seed=args.seed,
        max_attempts=args.attempts, prefix=True)
    check = is_prefix_extractor(view, args.k)
    bounds = [prefix_failure_bound(args.n, args.k, args.m, d, args.eps)
              for d in (args.d, args.d + 1, args.d + 2)]
    finite = all(math.isfinite(b) for b in bounds)
    monotone = bounds[0] > bounds[1] > bounds[2]
    ok = check.ok and finite and monotone
    return {"attempts": attempts,
            "levels": [{"i": i, "K": ki, "verdict": c.verdict}
                       for i, ki, c in check.levels],
            "failure_bounds": {str(args.d + j): bounds[j] for j in range(3)},
            "finite": finite, "monotone_decreasing": monotone}, ok


def cmd_demo_trevisan(args):
    if args.samples < 0:
        raise ValueError("samples must be nonnegative")
    designs = [{"block_size": block, "m": m, "d": d,
                "ok": verify_weak_design(
                    greedy_weak_design(block, m, d, seed=args.seed), m) is None}
               for block, m, d in DESIGN_GRID]
    designs_ok = all(row["ok"] for row in designs)
    code2, code4 = CodeTable(2, Fraction(1, 4)), CodeTable(4, Fraction(1, 8))
    max_list = max(len(list_decode(code2, format(w, "04b"))) for w in range(16))
    rng = SplitMix64(args.seed)
    max_list4 = max((len(list_decode(code4, format(rng.below(2 ** 16), "016b")))
                     for _ in range(args.samples)), default=0)
    johnson_ok = (max_list <= 1 / (4 * float(code2.delta) ** 2)
                  and max_list4 <= 1 / (4 * float(code4.delta) ** 2))
    ok = designs_ok and johnson_ok
    return {"designs": designs, "designs_ok": designs_ok,
            "decode_exhaustive_words": 16,
            "decode_sampled_words": args.samples,
            "max_list_size": max_list, "johnson_ok": johnson_ok}, ok


def cmd_demo_muchnik(args):
    # matching flavor, exhaustive at (n=2, k=1)
    base, _ = construct_verified_offline_graph(OfflineParams(2, 1, 2), args.seed)
    lg = layered(base, 1)
    match_checked = 0
    match_ok = True
    for size in (1, 2):
        for elements in itertools.permutations(range(4), size):
            eset = EnumeratedSet("b", 1, elements)
            for a in elements:
                fp = encode_matching(lg, eset, a)
                match_ok = match_ok and decode_matching(lg, eset, fp) == a
                match_ok = match_ok and fp.payload_bits <= 1 + bits_for(2) + bits_for(4)
                match_checked += 1
    # matching flavor, certified at (n=3, k=2): encoding runs greedy over
    # the set in order and decoding replays that run, so a sweep that serves
    # every request sequence roundtrips every element of every ordered set
    # of at most 4 elements
    base3, _ = construct_verified_offline_graph(OfflineParams(3, 2, 2), args.seed)
    sweep = exhaustive_online_check(layered(base3, 2), 4)
    match_ok = match_ok and sweep.ok

    # extractor flavor over a verified stack with halving K
    rng = SplitMix64(args.seed)
    eps = Fraction(1, 4)
    stack = []
    for layer, k_layer in enumerate((2, 1, 0)):
        view, _ = random_extractor_search(3, k_layer, 2, eps, 6,
                                          seed=args.seed + layer)
        stack.append(view)
    ext_checked = 0
    ext_ok = True
    shrink_ok = True
    for _ in range(30):
        size = 1 + rng.below(4)
        elements = tuple(rng.sample(8, size))
        eset = EnumeratedSet("b", 2, elements)
        chain = layer_sets(stack, elements)
        for t in range(len(chain) - 1):
            shrink_ok = shrink_ok and len(chain[t + 1]) < 2 * eps * stack[t].K
        for a in elements:
            fp = encode_extractor(stack, eset, a)
            ext_ok = ext_ok and decode_extractor(stack, eset, fp) == a
            ext_ok = ext_ok and fp.ordinal < fp.ordinal_bound
            ext_checked += 1
    ok = match_ok and ext_ok and shrink_ok
    return {"matching_roundtrips": match_checked,
            "matching_certified_sequences": sweep.sequences,
            "matching_ok": match_ok,
            "extractor_roundtrips": ext_checked, "extractor_ok": ext_ok,
            "layer_shrinkage_ok": shrink_ok}, ok


def cmd_demo_two_cond(args):
    pview, attempts = random_extractor_search(
        4, 2, 2, Fraction(1, 2), 4, seed=args.seed, prefix=True,
        max_attempts=args.attempts)
    rng = SplitMix64(args.seed)
    checked = 0
    skipped = 0
    all_ok = True
    for _ in range(20):
        b_elems = tuple(rng.sample(16, 4))
        c_elems = b_elems[:2]
        s_b = EnumeratedSet("b", 2, b_elems)
        s_c = EnumeratedSet("c", 1, c_elems)
        for a in c_elems:
            try:
                fp = encode_two_conditions(pview, s_b, s_c, a)
            except ValueError:
                skipped += 1   # weakly dangerous target: precondition reported
                continue
            prefix_law = fp.q == fp.p >> (fp.bound - fp.second_bound)
            via_b = decode_two_conditions(pview, s_b, fp, "b") == a
            via_c = decode_two_conditions(pview, s_c, fp, "c") == a
            all_ok = all_ok and prefix_law and via_b and via_c
            checked += 1
    ok = all_ok and checked > 0
    return {"attempts": attempts, "roundtrips": checked, "skipped": skipped,
            "all_ok": all_ok}, ok


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# A flag is (name, argparse keywords). Flags that several commands share are
# defined once; a command that needs a variant derives it with `_with`.
SEED = ("--seed", {"type": int, "required": True})
OUT = ("--out", {})
ATTEMPTS = ("--attempts", {"type": int, "default": 64})
BAD_FACTOR = ("--bad-factor", {"type": int, "default": 2})
EPS = ("--eps", {"type": _fraction, "required": True})
GRAPH = ("--graph", {"required": True})
C = ("--c", {"type": int, "default": 2})


def _with(flag, **kw):
    """`flag` with some of its argparse keywords replaced."""
    return flag[0], {**flag[1], **kw}


def _ints(*names, **kw):
    """Int flags, required unless `kw` says otherwise."""
    return [(name, {"type": int, "required": True, **kw}) for name in names]


# the graph-or-view input of `ext check` and `ext hazards`
VIEW_OR_GRAPH = [_with(GRAPH, help="graph or view file"),
                 *_ints("--K", required=False), _with(EPS, required=False)]
LEMMA = [*_ints("--n", "--k"), EPS, SEED, *_ints("--m", "--d", required=False),
         ATTEMPTS, BAD_FACTOR, *_ints("--max-rows", required=False, default=512)]
FP = [("--flavor", {"choices": tuple(FP_FLAVORS), "required": True}),
      ("--graph", {"help": "base graph file (match flavor)"}),
      ("--views", {"nargs": "+",
                   "help": "view files, one per layer (ext/two flavors)"}),
      ("--set", {"required": True, "help": "enumerated set file"}),
      ("--set2", {"help": "second set file (two flavor)"}), BAD_FACTOR]

# group -> (help, {command -> (function, help or None, flags)})
COMMANDS = {
    "offline": ("off-line graphs and Hall checks", {
        "gen": (cmd_offline_gen, "draw a graph, retrying until verified", [
            *_ints("--n", "--k"), C, SEED, OUT, ATTEMPTS,
            ("--no-verify", {"action": "store_true",
                             "help": "emit the first draw without the Hall check"})]),
        "hall": (cmd_offline_hall, "smallest violating subset, if any", [
            GRAPH, *_ints("--s"),
            ("--mode", {"choices": ("exhaustive", "matching"),
                        "default": "exhaustive",
                        "help": "both run the same test, which by Hall's "
                                "theorem finds the same witness"}),
            *_ints("--jobs", required=False, default=1,
                   help="has no effect; the check runs in one thread")]),
        "bound": (cmd_offline_bound, "exact union-bound series",
                  [*_ints("--n", "--k"), C]),
    }),
    "online": ("greedy engine and game search", {
        "run": (cmd_online_run, "serve a request stream", [
            _with(GRAPH, help="base graph file"),
            *_ints("--layers", required=False, default=1,
                   help="number of stacked copies of the right part"),
            ("--requests", {"required": True, "help": "file of indices, or -"}),
            *_ints("--capacity", required=False)]),
        "game": (cmd_online_game, "does any on-line strategy exist?", [
            GRAPH, *_ints("--s"),
            ("--tree", {"action": "store_true",
                        "help": "include the winning strategy tree"})]),
        "layered": (cmd_online_layered, "verify the base and stack k+1 copies",
                    [GRAPH, *_ints("--k"), OUT]),
        "sweep": (cmd_online_sweep,
                  "serve every sequence of up to 2^k requests on k+1 copies",
                  [GRAPH, *_ints("--k")]),
    }),
    "ext": ("extractor verification and search", {
        "check": (cmd_ext_check, "verify a view exhaustively or sampled", [
            *VIEW_OR_GRAPH,
            *_ints("--prefix", required=False,
                   help="check all truncation levels up to this k"),
            *_ints("--samples", required=False,
                   help="sampled mode with this many random subsets"),
            _with(SEED, required=False, help="required for sampled mode")]),
        "search": (cmd_ext_search, "draw random views until one verifies", [
            *_ints("--n", "--k", "--m", "--d"), EPS, SEED, ATTEMPTS,
            ("--prefix", {"action": "store_true"}), OUT]),
        "hazards": (cmd_ext_hazards, "bad/dangerous analysis for a set", [
            *VIEW_OR_GRAPH, ("--set", {"required": True}), BAD_FACTOR]),
        "degree": (cmd_ext_degree, "degree formula (raw and power of 2)",
                   [*_ints("--N", "--K", "--M"), EPS]),
        "pbound": (cmd_ext_pbound, "prefix failure bound",
                   [*_ints("--n", "--k", "--m", "--d"), EPS]),
    }),
    "trev": ("weak designs and the Hadamard code", {
        "design": (cmd_trev_design, "randomized greedy weak design", [
            *_ints("--l", help="block size"), *_ints("--m", help="number of sets"),
            *_ints("--d", help="universe size"), SEED, OUT]),
        "eval": (cmd_trev_eval, "evaluate the design/code composition", [
            ("--u", {"required": True, "help": "message bits"}),
            ("--y", {"required": True, "help": "seed bits"}),
            ("--design", {"required": True})]),
        "decode": (cmd_trev_decode,
                   "list decoding by a fast Walsh-Hadamard transform",
                   [("--word", {"required": True}),
                    ("--delta", {"type": _fraction, "required": True})]),
    }),
    "fp": ("fingerprint encode/decode", {
        "encode": (cmd_fp_encode, None, [*FP, *_ints("--target"), OUT]),
        "decode": (cmd_fp_decode, None, [
            *FP, ("--fingerprint", {"required": True}),
            ("--side", {"choices": ("b", "c"), "default": "b"})]),
    }),
    "demo": ("self-contained verification runs, one per headline check", {
        "counterexample": (cmd_demo_counterexample,
                           "off-line matchable up to 2, yet no on-line strategy",
                           []),
        "om": (cmd_demo_om,
               "union-bound series, Monte Carlo, and full sequence sweeps",
               [SEED, *_ints("--trials", required=False, default=200)]),
        "lemma1": (cmd_demo_lemma1,
                   "dangerous-count bound (< 2*eps*K) on a verified view", LEMMA),
        "lemma3": (cmd_demo_lemma3,
                   "weakly-dangerous bound (<= 4*eps*K) on a verified view",
                   LEMMA),
        "prefix": (cmd_demo_prefix, "prefix search plus failure bounds", [
            *_ints("--n", required=False, default=6),
            *_ints("--k", "--m", required=False, default=3),
            *_ints("--d", required=False, default=4),
            _with(EPS, required=False, default=Fraction(1, 2)), SEED, ATTEMPTS]),
        "trevisan": (cmd_demo_trevisan,
                     "design grid plus the Johnson list-size bound",
                     [SEED, *_ints("--samples", required=False, default=10_000)]),
        "muchnik": (cmd_demo_muchnik,
                    "matching and extractor flavor roundtrips", [SEED]),
        "two-cond": (cmd_demo_two_cond,
                     "two-condition roundtrips and the prefix law",
                     [SEED, ATTEMPTS]),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omex",
        description="on-line matching, extractor checks, and fingerprint "
                    "protocols at desk scale")
    parser.add_argument("--csv", action="store_true",
                        help="emit the report as CSV instead of JSON")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report "
                             "(breaks byte determinism)")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        sub = groups.add_parser(group, help=group_help).add_subparsers(
            dest="cmd", required=True)
        for name, (func, help_text, flags) in commands.items():
            # a help keyword, even None, would list the command in the
            # group's help, so commands without help pass none
            p = sub.add_parser(name, **({"help": help_text} if help_text else {}))
            for flag, kw in flags:
                p.add_argument(flag, **kw)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    started = time.monotonic()
    try:
        outcome, ok = args.func(args)
        # rendered here too: an exact value can overflow a float or exceed
        # the int-to-str digit limit, and that is an error report as well
        text = _render(args, argv, outcome, started)
    except UsageError as e:
        print(f"omex: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, GraphError, OSError, OverflowError) as e:
        ok, text = False, _render(args, argv, {"error": str(e)}, started)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; send the rest, and the flush at
        # exit, to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
