"""Fingerprint encode/decode over explicitly enumerated sets.

The encoder knows a target element and an enumerated set containing it; it
emits a short fingerprint. The decoder knows only the set (with the same
enumeration order) and the fingerprint, and must return the element. Three
flavors: the matching flavor rides the layered on-line engine, the
extractor flavor names a non-overloaded neighbor plus a small ordinal, and
the two-condition flavor produces a pair (p, q) with q a prefix of p that
decodes against two different sets.

Enumeration order is load-bearing everywhere: ordinals index filtered
enumerations, and replaying the same order is what makes decoding work.

Set and fingerprint files go through the codec in `omex.graph`:
`save_set`/`load_set` are its bindings to sets, and `Fingerprint` is the
file kind of all three flavors.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from math import ceil

from .extractor import ExtractorView, hazard_report, truncate
from .graph import INT, INTS, STR, load, read_fields, save
from .online import LayeredGraph, MatchingSession


def bits_for(count: int) -> int:
    """Bits needed to index `count` distinct values (0 for a single value)."""
    if count < 1:
        raise ValueError("count must be positive")
    return (count - 1).bit_length()


@dataclass(frozen=True)
class EnumeratedSet:
    """Ordered distinct left-vertex labels with a capacity bound 2^k.

    The order models an enumeration and is part of the data: encoders and
    decoders must consume the same order to agree.
    """

    label: str
    k: int
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("elements must be distinct")
        if self.elements and bits_for(len(self.elements)) > self.k:
            raise ValueError(
                f"{len(self.elements)} elements exceed the bound 2^{self.k}")

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def to_doc(self) -> dict:
        return {"label": self.label, "k": self.k, "elements": list(self.elements)}

    @staticmethod
    def from_doc(doc) -> "EnumeratedSet":
        return EnumeratedSet(*read_fields(doc, label=STR, k=INT, elements=INTS))


save_set = save
load_set = partial(load, kind=EnumeratedSet)


def _partners(view: ExtractorView, elements, r: int) -> list[int]:
    """The elements with `r` among their neighbors, in enumeration order."""
    return [x for x in elements if r in view.graph.neighbors[x]]


def _partner_at(view: ExtractorView, elements, r: int, ordinal: int) -> int:
    """The decoders' lookup: `ordinal` indexes `_partners` from the front."""
    found = _partners(view, elements, r)
    if not 0 <= ordinal < len(found):
        raise ValueError(f"ordinal {ordinal} out of range "
                         f"({len(found)} partners); mismatched inputs")
    return found[ordinal]


class Fingerprint:
    """File form shared by the three flavors: the `flavor` tag plus every
    field, all integers."""

    def to_doc(self) -> dict:
        return {"flavor": self.flavor, **vars(self)}

    @staticmethod
    def from_doc(doc) -> "Fingerprint":
        """Inverse of `to_doc` for all three flavors; a missing or ill-typed
        field raises GraphFormatError, an unknown flavor ValueError."""
        flavor, = read_fields(doc, flavor=STR)
        for cls in (MatchingFingerprint, ExtractorFingerprint,
                    TwoConditionFingerprint):
            if cls.flavor == flavor:
                kinds = {f.name: INT for f in fields(cls)}
                return cls(*read_fields(doc, **kinds))
        raise ValueError(f"unknown fingerprint flavor {flavor!r}")


fingerprint_from_doc = Fingerprint.from_doc


# ---------------------------------------------------------------------------
# matching flavor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingFingerprint(Fingerprint):
    flavor = "matching"
    right_index: int        # matched right vertex in the layered right part
    payload_bits: int       # bits to name right_index
    neighbor_ordinal: int   # position of right_index in the target's list
    neighbor_bits: int


def encode_matching(g: LayeredGraph, S: EnumeratedSet, a: int) -> MatchingFingerprint:
    """Run the greedy engine over S in enumeration order; the fingerprint is
    the right vertex matched to `a` (plus, for the cheap-given-a side, its
    ordinal inside a's neighbor list)."""
    if a not in S:
        raise ValueError(f"target {a} not in set {S.label!r}")
    if g.copies != S.k + 1:
        raise ValueError(
            f"graph has {g.copies} layers, set bound k={S.k} needs {S.k + 1}")
    session = MatchingSession(g, capacity=2 ** S.k)
    for v in S.elements:
        if session.request(v) is None:
            # impossible over a layered graph with an off-line-good base
            raise AssertionError(
                f"engine rejected {v}; the base graph precondition is broken")
    matched_right = session.matched[a]
    row = g.graph.neighbors_of(a)
    return MatchingFingerprint(
        right_index=matched_right,
        payload_bits=bits_for(g.graph.right_size),
        neighbor_ordinal=row.index(matched_right),
        neighbor_bits=bits_for(len(row)),
    )


def decode_matching(g: LayeredGraph, S: EnumeratedSet,
                    fp: MatchingFingerprint) -> int:
    """Replay the identical engine over S until the fingerprint's right
    vertex gets matched; its partner is the answer."""
    session = MatchingSession(g, capacity=2 ** S.k)
    for v in S.elements:
        r = session.request(v)
        if r == fp.right_index:
            return v
    raise ValueError(
        f"right vertex {fp.right_index} never matched during replay; "
        "the (graph, set) pair does not match the encoder's")


# ---------------------------------------------------------------------------
# extractor flavor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtractorFingerprint(Fingerprint):
    flavor = "extractor"
    layer: int
    right_index: int
    ordinal: int            # position of the target among right_index's
    payload_bits: int       # neighbors in the enumeration of the layer set
    layer_bits: int
    ordinal_bound: int      # strict bound on ordinal from the bad threshold
    ordinal_bits: int

    @property
    def total_bits(self) -> int:
        return self.payload_bits + self.layer_bits + self.ordinal_bits

    def to_doc(self) -> dict:
        return {**super().to_doc(), "total_bits": self.total_bits}


def layer_sets(views: list[ExtractorView], elements: tuple[int, ...],
               bad_factor: int = 2) -> list[tuple[int, ...]]:
    """The chain S_0, S_1, ... where each next set is the dangerous part of
    the previous one under the corresponding view. Stops after the first
    empty set or when the views run out; enumeration order is preserved."""
    return [tuple(elements), *(report.dangerous for _, _, report
                               in _layers(views, elements, bad_factor))]


def _layers(views: list[ExtractorView], elements, bad_factor: int):
    """(view, S_i, S_i's hazard report) for each nonempty S_i of `layer_sets`."""
    current = tuple(elements)
    for layer, view in enumerate(views):
        if not current:
            return
        if len(current) > view.K:
            raise ValueError(
                f"layer {layer} holds {len(current)} elements, "
                f"more than its view's K = {view.K}")
        report = hazard_report(view, current, bad_factor)
        yield view, current, report
        current = report.dangerous


def encode_extractor(views: list[ExtractorView], S: EnumeratedSet, a: int,
                     bad_factor: int = 2) -> ExtractorFingerprint:
    """Walk the layers until `a` stops being dangerous, then name its first
    non-bad neighbor there and the ordinal of `a` among that neighbor's
    left partners inside the layer set."""
    if a not in S:
        raise ValueError(f"target {a} not in set {S.label!r}")
    if not views:
        raise ValueError("need at least one view")
    # `a` is in every set it reaches, so only the views can run out
    for layer, (view, current, report) in enumerate(
            _layers(views, S.elements, bad_factor)):
        if a not in report.dangerous:
            bad = set(report.bad)
            p = next(r for r in view.graph.neighbors_of(a) if r not in bad)
            bound = ceil(Fraction(2 * bad_factor * view.D * view.K, view.M))
            return ExtractorFingerprint(
                layer=layer,
                right_index=p,
                ordinal=_partners(view, current, p).index(a),
                payload_bits=view.m,
                layer_bits=bits_for(len(views)),
                ordinal_bound=bound,
                ordinal_bits=bits_for(bound),
            )
    raise RuntimeError(
        f"target {a} is dangerous at every one of the {len(views)} layers; "
        "supply more layers (the dangerous set shrinks by 2*eps per layer)")


def decode_extractor(views: list[ExtractorView], S: EnumeratedSet,
                     fp: ExtractorFingerprint, bad_factor: int = 2) -> int:
    """Recompute the layer chain, filter the layer set down to neighbors of
    the named right vertex, and take the element at the ordinal."""
    if not 0 <= fp.layer < len(views):
        raise ValueError(
            f"fingerprint names layer {fp.layer}, outside the {len(views)} "
            "views supplied")
    chain = layer_sets(views[:fp.layer], S.elements, bad_factor)
    if len(chain) <= fp.layer:
        raise ValueError("layer chain ended before the fingerprint's layer")
    return _partner_at(views[fp.layer], chain[fp.layer], fp.right_index,
                       fp.ordinal)


# ---------------------------------------------------------------------------
# two-condition flavor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoConditionFingerprint(Fingerprint):
    flavor = "two-condition"
    p: int                  # right vertex in the full view
    q: int                  # its prefix in the truncated view
    bound: int              # k: capacity exponent of the first set
    second_bound: int       # l: capacity exponent of the second set
    payload_bits: int       # bits of p (the full output length m)
    prefix_bits: int        # bits of q (m - (k - l))
    ordinal_b: int
    ordinal_c: int


def encode_two_conditions(pview: ExtractorView, s_b: EnumeratedSet,
                          s_c: EnumeratedSet, a: int,
                          bad_factor: int = 2) -> TwoConditionFingerprint:
    """First neighbor p of `a` such that p is not bad for the first set and
    its prefix q is not bad for the second set under the truncated view.

    Such a neighbor exists whenever `a` is weakly dangerous for neither
    side: each filter then passes more than half of the D edges. The view
    should be prefix-verified so that the hazard bounds of both levels
    carry their usual guarantees.
    """
    k, l = s_b.k, s_c.k
    if l > k:
        raise ValueError(f"second bound l={l} must not exceed k={k}")
    if k > pview.n:
        raise ValueError(f"first bound k={k} exceeds the view's n={pview.n}")
    if pview.K != 2 ** k:
        raise ValueError(f"view has K={pview.K}, the first set needs 2^{k}")
    if a not in s_b or a not in s_c:
        raise ValueError(f"target {a} must belong to both sets")
    shift = k - l
    trunc = truncate(pview, shift)
    rep_b = hazard_report(pview, s_b.elements, bad_factor)
    rep_c = hazard_report(trunc, s_c.elements, bad_factor)
    if a in rep_b.weakly_dangerous:
        raise ValueError(
            f"target {a} is weakly dangerous for set {s_b.label!r}; "
            "the existence argument needs both sides below half")
    if a in rep_c.weakly_dangerous:
        raise ValueError(
            f"target {a} is weakly dangerous for set {s_c.label!r} "
            "under the truncated view")
    bad_b, bad_c = set(rep_b.bad), set(rep_c.bad)
    p = q = None
    for r in pview.graph.neighbors_of(a):
        if r not in bad_b and (r >> shift) not in bad_c:
            p, q = r, r >> shift
            break
    if p is None:  # ruled out by the half-plus-half counting argument
        raise AssertionError("no neighbor passed both filters")
    return TwoConditionFingerprint(
        p=p, q=q, bound=k, second_bound=l,
        payload_bits=pview.m, prefix_bits=pview.m - shift,
        ordinal_b=_partners(pview, s_b.elements, p).index(a),
        ordinal_c=_partners(trunc, s_c.elements, q).index(a),
    )


def decode_two_conditions(pview: ExtractorView, eset: EnumeratedSet,
                          fp: TwoConditionFingerprint, side: str) -> int:
    """Recover the element from either condition's set: side "b" uses p on
    the full view, side "c" uses q on the truncated view."""
    if side == "b":
        view, target, ordinal = pview, fp.p, fp.ordinal_b
    elif side == "c":
        view = truncate(pview, fp.bound - fp.second_bound)
        target, ordinal = fp.q, fp.ordinal_c
    else:
        raise ValueError(f"side must be 'b' or 'c', got {side!r}")
    return _partner_at(view, eset.elements, target, ordinal)
