"""Sliding-window demand histograms on the simulated clock.

Cache-affinity routing needs to know which graph *families* (dataset
fingerprints) are hot **right now**, not which were hot over the whole
trace: replication should chase the current working set and let
yesterday's burst age out. :class:`DemandHistogram` keeps one
exponentially-decayed counter per family — the continuous analogue of
a sliding-window count, the same idiom LLM serving schedulers use to
drive prefix-cache replication from observed per-prefix demand. Every
observation first decays the counter to the observation time with
half-life ``half_life`` (simulated seconds), then adds one request,
so a family's demand is approximately "requests
seen in the last ``half_life`` seconds" and the whole structure is
deterministic: same observations at the same simulated times, same
histogram — no wall clock anywhere.

The histogram also keeps the set of *hot* families, whose demand
meets a fixed ``threshold``, and pays per change, not per read: a
record can only raise its own family's demand and time can only lower
every family's, so :meth:`DemandHistogram.advance` re-judges just the
families recorded since the last advance and the hot ones whose
predicted threshold crossing has come.
"""

from __future__ import annotations

import heapq
import math

from repro.errors import ConfigError
from repro.utils.validation import check_positive_finite

NOMINATION_MARGIN = 1e-9
"""Relative margin by which a hot family's predicted threshold
crossing is brought forward. Rounding in the prediction and in the
decay expression is about 1e-16 relative, so the exact re-check always
runs before the true crossing."""


class DemandHistogram:
    """Per-family request-demand counters with exponential decay.

    ``half_life`` is the decay half-life in simulated seconds: a
    family's counter halves every ``half_life`` seconds without
    observations. Families are kept in first-observation order, so
    iteration (and therefore every policy built on it) is
    deterministic.

    ``threshold`` defines the hot set: the families whose decayed
    demand at the last :meth:`advance` meets it. Every membership
    decision is the exact expression :meth:`demand` evaluates. A
    family joins when a record since the last advance lifted it to the
    threshold; a hot family leaves when its turn comes in a heap of
    predicted threshold crossings, and the prediction only picks the
    turn. :meth:`advance` times must not decrease.
    """

    def __init__(self, *, threshold, half_life=0.05):
        self.half_life = check_positive_finite(half_life, "half_life")
        self.threshold = check_positive_finite(threshold, "threshold")
        # family -> [decayed weight, time of last decay,
        #            first-observation rank]
        self._families = {}
        self._hot = {}  # hot family -> None, an ordered set
        self._recorded = {}  # families recorded since the last advance
        # (nomination time, rank, family): exactly one entry per hot
        # family, pushed when it turns hot or survives a re-check.
        self._due = []
        self._now = -math.inf

    def __len__(self):
        return len(self._families)

    def __contains__(self, family):
        return family in self._families

    def _decayed(self, state, now):
        weight, last = state[0], state[1]
        if now <= last:
            return weight
        return weight * 0.5 ** ((now - last) / self.half_life)

    def record(self, family, now):
        """Observe one request's demand for ``family`` at ``now``.

        Decays the family's counter to ``now`` first, then adds 1.
        Returns the updated (decayed + added) demand.
        """
        now = float(now)
        state = self._families.get(family)
        if state is None:
            state = [0.0, now, len(self._families)]
            self._families[family] = state
        state[0] = self._decayed(state, now) + 1.0
        state[1] = max(state[1], now)
        self._recorded[family] = None
        return state[0]

    def demand(self, family, now):
        """The family's decayed demand at ``now`` (0.0 if never seen).

        Read-only: does not advance the stored decay anchor, so reads
        at arbitrary times never perturb later arithmetic.
        """
        state = self._families.get(family)
        if state is None:
            return 0.0
        return self._decayed(state, float(now))

    def _schedule(self, family, state):
        """Push a hot family's predicted crossing, brought forward by
        :data:`NOMINATION_MARGIN`, as its one heap entry."""
        weight, last, rank = state
        # demand(t) = weight * 2 ** -((t - last) / half_life) meets the
        # threshold until t = last + half_life * log2(weight / threshold);
        # the logs are taken apart so the ratio cannot overflow.
        offset = self.half_life * (
            math.log2(weight) - math.log2(self.threshold)
        )
        due = last + offset - NOMINATION_MARGIN * (
            abs(last) + offset + self.half_life
        )
        heapq.heappush(self._due, (due, rank, family))

    def advance(self, now):
        """Bring the hot set to ``now``; returns whether it changed.

        Judges each family recorded since the last advance that was
        not hot, and each hot family whose nominated crossing time has
        come, with the exact ``demand(family, now) >= threshold``. No
        other family can have changed sides: without a record, demand
        only decays, and a record only raises it.
        """
        now = float(now)
        if now < self._now:
            raise ConfigError(
                f"advance times must not decrease: {now} < {self._now}"
            )
        self._now = now
        threshold = self.threshold
        hot = self._hot
        changed = False
        for family in self._recorded:
            if family in hot:
                # Its entry is now early, never late: a record only
                # raises demand. If it fell below, that entry is due.
                continue
            state = self._families[family]
            if self._decayed(state, now) >= threshold:
                hot[family] = None
                self._schedule(family, state)
                changed = True
        self._recorded.clear()
        due = self._due
        still_hot = []
        while due and due[0][0] <= now:
            _due, _rank, family = heapq.heappop(due)
            state = self._families[family]
            if self._decayed(state, now) >= threshold:
                still_hot.append((family, state))
            else:
                del hot[family]
                changed = True
        for family, state in still_hot:
            self._schedule(family, state)
        return changed

    @property
    def hot_set(self):
        """The families hot at the last :meth:`advance` (a read-only
        view of their set)."""
        return self._hot.keys()

    def ranked(self):
        """The hot families, hottest first at the last :meth:`advance`.

        A list of ``(family, demand)`` pairs; equal demands keep
        first-observation order.
        """
        now = self._now
        rows = []
        for family in self._hot:
            state = self._families[family]
            rows.append((-self._decayed(state, now), state[2], family))
        rows.sort()
        return [(family, -negated) for negated, _rank, family in rows]
