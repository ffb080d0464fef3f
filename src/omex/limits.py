"""Resource guards for the exhaustive searches.

Every exhaustive enumeration (Hall subsets, extractor subsets, game trees)
and every generated graph, charged by `charge_edges`, is bounded by a
ceiling from this module. Defaults suit desk-scale inputs; the only way to
change them is the OMEX_LIMITS environment variable, a comma-separated list
such as ``OMEX_LIMITS=subset_nodes=2000000,game_nodes=500000``, which each
guard reads where it fires.
"""

import os
from dataclasses import dataclass, fields


class LimitExceeded(RuntimeError):
    """An exhaustive search would exceed its configured ceiling."""


@dataclass
class Limits:
    # cap on subsets examined by any single subset enumeration
    subset_nodes: int = 5_000_000
    # cap on game-tree nodes explored by the online strategy search
    game_nodes: int = 2_000_000
    # cap on edges drawn by a randomized graph construction
    gen_edges: int = 8_000_000

    def override(self, text: str) -> "Limits":
        """Apply ``key=value`` overrides from a comma-separated string; an
        unknown key or a value other than an integer >= 0 raises ValueError."""
        known = {f.name for f in fields(self)}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad limits entry: {part!r}")
            key, value = part.split("=", 1)
            key = key.strip()
            if key not in known:
                raise ValueError(f"unknown limit: {key!r}")
            try:
                number = int(value)
            except ValueError:
                raise ValueError(f"limit {key!r} in OMEX_LIMITS must be an "
                                 f"integer, got {value!r}") from None
            if number < 0:
                raise ValueError(f"limit {key!r} must be >= 0, got {number}")
            setattr(self, key, number)
        return self


def default_limits() -> Limits:
    lim = Limits()
    env = os.environ.get("OMEX_LIMITS")
    if env:
        lim.override(env)
    return lim


def charge_edges(edges: int, what: str) -> None:
    """Refuse `edges` generated edges past `gen_edges`; a count of more
    than 64 bits is named by its size, not formatted."""
    limit = default_limits().gen_edges
    if edges > limit:
        if edges.bit_length() > 64:
            edges = f"at least 2^{edges.bit_length() - 1}"
        raise LimitExceeded(f"{edges} {what} exceed limit {limit}")


def check_draw_bits(bits: int, what: str) -> None:
    """Refuse 2^bits edges, from 2^64 up, past `gen_edges` from the
    exponent, before the caller builds the power."""
    if bits >= 64:
        limit = default_limits().gen_edges
        if bits >= limit.bit_length():      # 2^bits > limit
            raise LimitExceeded(f"at least 2^{bits} {what} exceed limit {limit}")
