"""Resource guards for the exhaustive searches.

Every exhaustive enumeration (Hall subsets, extractor subsets, game trees)
and every draw of random rows (`SplitMix64.rows`) is bounded by a ceiling
from this module. Defaults suit desk-scale inputs; the only way to change
them is the OMEX_LIMITS environment variable, a comma-separated list such
as ``OMEX_LIMITS=subset_nodes=2000000,game_nodes=500000``, which each
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
        """Apply ``key=value`` overrides from a comma-separated string."""
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
            setattr(self, key, int(value))
        return self


def default_limits() -> Limits:
    lim = Limits()
    env = os.environ.get("OMEX_LIMITS")
    if env:
        lim.override(env)
    return lim
