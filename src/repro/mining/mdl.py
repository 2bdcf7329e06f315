"""Minimum-description-length scoring for mined patterns.

Psum's pattern generator ranks candidates with an MDL criterion in the
spirit of SUBDUE: a pattern is valuable when replacing each of its
occurrences with a single super-node shrinks the total description of
the data. For a pattern ``P`` with ``size(P) = |V_p| + |E_p|`` occurring
in ``support`` distinct host graphs with ``embeddings`` total
occurrences, the (simplified, unit-cost) saving is::

    saving = embeddings * (size(P) - 1) - size(P)

i.e. every occurrence collapses ``size(P)`` description units into one,
minus the one-time cost of describing the pattern itself. Larger is
better; single-node patterns always score <= -1 so structure is
preferred whenever it exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.graphs.pattern import Pattern
from repro.matching.coverage import PatternCoverage


@dataclass(frozen=True)
class MinedPattern:
    """A mined candidate with its occurrence statistics."""

    pattern: Pattern
    support: int  # number of distinct host graphs containing it
    embeddings: int  # total matches across hosts
    #: what its matches cover in the hosts it was mined from, read from
    #: the enumeration; ``None`` where only the matcher can say
    coverage: Optional[PatternCoverage] = field(default=None, compare=False)

    @property
    def mdl_score(self) -> float:
        return mdl_score(self.pattern, self.embeddings)

    def __repr__(self) -> str:
        return (
            f"<MinedPattern n={self.pattern.n_nodes} m={self.pattern.n_edges} "
            f"sup={self.support} emb={self.embeddings} mdl={self.mdl_score:.1f}>"
        )


def mdl_score(pattern: Pattern, embeddings: int) -> float:
    """Description-length saving of compressing ``embeddings`` occurrences."""
    size = pattern.size
    return embeddings * (size - 1) - size


__all__ = ["MinedPattern", "mdl_score"]
