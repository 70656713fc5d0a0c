"""Decision diffs: what the controller actually pushes to agents (§5.1).

Fig. 8's step 4: the controller "sends the difference between the new
decision and the previous one to the per-server local Agent". Pushing
diffs instead of full decisions keeps the control messages small — most
cycles only re-rate a few flows and start/stop a handful.

:func:`diff_decisions` computes the typed difference between two directive
sets; :class:`DiffStats` quantifies the savings (the metric behind keeping
the feedback loop under 200 ms at scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.net.directive import TransferDirective

BlockId = Tuple[str, int]
# A transfer's identity from the agent's perspective: one TCP connection
# per (job, source, destination). Ongoing transmissions are kept alive
# across decisions (§5.1 non-blocking update), so a changed block list or
# rate is an *update* to an existing connection, not a teardown.
DirectiveKey = Tuple[str, str, str]


def _key(directive: TransferDirective) -> DirectiveKey:
    return (directive.job_id, directive.src_server, directive.dst_server)


@dataclass
class DecisionDiff:
    """The delta between two consecutive control decisions."""

    added: List[TransferDirective] = field(default_factory=list)
    removed: List[TransferDirective] = field(default_factory=list)
    # Same connection, different block list and/or rate: (old, new).
    updated: List[Tuple[TransferDirective, TransferDirective]] = field(
        default_factory=list
    )
    unchanged: int = 0

    @property
    def num_messages(self) -> int:
        """Control messages needed to apply this diff."""
        return len(self.added) + len(self.removed) + len(self.updated)


def diff_decisions(
    previous: Sequence[TransferDirective],
    current: Sequence[TransferDirective],
    rate_tolerance: float = 0.01,
) -> DecisionDiff:
    """Compute the agent-facing diff between two decisions.

    Directives match on their connection key (job, source, destination).
    A matched pair is *unchanged* — no message — when the block list is
    identical up to already-transferred prefixes (the new list must be a
    suffix-compatible subset of the old one) and the rate moved by at most
    ``rate_tolerance`` (relative); otherwise it is one update message.
    """
    if rate_tolerance < 0:
        raise ValueError("rate_tolerance must be >= 0")
    prev_by_key: Dict[DirectiveKey, TransferDirective] = {
        _key(d): d for d in previous
    }
    diff = DecisionDiff()
    seen = set()
    for directive in current:
        key = _key(directive)
        seen.add(key)
        old = prev_by_key.get(key)
        if old is None:
            diff.added.append(directive)
            continue
        old_rate = old.rate_cap or 0.0
        new_rate = directive.rate_cap or 0.0
        scale = max(abs(old_rate), abs(new_rate), 1e-12)
        rate_changed = abs(new_rate - old_rate) / scale > rate_tolerance
        # A shrinking block list is just the transfer progressing; only
        # genuinely new blocks (or reordering of the remainder) need a
        # message.
        old_blocks = set(old.block_ids)
        blocks_changed = any(b not in old_blocks for b in directive.block_ids)
        if rate_changed or blocks_changed:
            diff.updated.append((old, directive))
        else:
            diff.unchanged += 1
    for key, directive in prev_by_key.items():
        if key not in seen:
            diff.removed.append(directive)
    return diff


@dataclass
class DiffStats:
    """Aggregate diff sizes across a run (vs pushing full decisions)."""

    cycles: int = 0
    total_directives: int = 0
    total_messages: int = 0

    def record(self, decision_size: int, diff: DecisionDiff) -> None:
        self.cycles += 1
        self.total_directives += decision_size
        self.total_messages += diff.num_messages

    @property
    def savings(self) -> float:
        """Fraction of control messages avoided by pushing diffs."""
        if self.total_directives == 0:
            return 0.0
        return 1.0 - self.total_messages / self.total_directives


def diff_stats_over_run(
    decisions: Sequence[Sequence[TransferDirective]],
    rate_tolerance: float = 0.01,
) -> DiffStats:
    """Fold :func:`diff_decisions` over a whole run's decision history."""
    stats = DiffStats()
    previous: Sequence[TransferDirective] = []
    for current in decisions:
        diff = diff_decisions(previous, current, rate_tolerance)
        stats.record(len(current), diff)
        previous = current
    return stats
