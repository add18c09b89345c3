"""Appendable record of ratings that arrive through serving.

A deployed recommender keeps learning after training stops: cold-start
users fold in, existing users rate more items, and brand-new items show
up with their first ratings.  :class:`InteractionLog` is where the
serving tier parks those events until the next refresh — an append-only
(user, item, rating) triplet log that validates input through the same
gate as the fold-in solver and materialises on demand into the CSR
delta the incremental refresh consumes.

Item ids *may* exceed the trained item count (that is how new items
enter the system) and user ids may exceed the trained user count (that
is a fold-in user); both axes grow when the log is folded back into the
model by :func:`~repro.serving.lifecycle.refresh.refresh_factors`.
Re-rating rule: a repeated (user, item) event is *added*, not replaced.
Duplicate pairs sum when the log is materialised, matching the
deduplication the trainer applies to its input, and a refresh adds them
to the base entry of that cell too
(:func:`~repro.serving.lifecycle.refresh.merged_ratings`): one user
rating one item 5, then 1, then 2 gives a single 8.0 entry, which may
leave the rating scale.
"""

from __future__ import annotations

import numpy as np

from repro.serving.foldin import validate_ratings
from repro.sparse.csr import CSRMatrix

__all__ = ["InteractionLog"]


class InteractionLog:
    """Append-only (user, item, rating) events awaiting the next refresh.

    Repeated (user, item) events sum (5, then 1, then 2 is one 8.0 entry);
    see the module docstring.
    """

    def __init__(self):
        self._users: list[np.ndarray] = []
        self._items: list[np.ndarray] = []
        self._ratings: list[np.ndarray] = []
        self._n_events = 0
        # Windowed retention (see compact()): the oldest events are
        # folded into one summed CSR delta so the raw event list stays
        # bounded while every view keeps seeing the full history.
        self._compacted: CSRMatrix | None = None
        self._n_compacted = 0
        # Concatenation of the recorded chunks, rebuilt lazily: every
        # view (affected users, max ids, CSR materialisation) reads the
        # same triplets, so one concatenation serves them all until the
        # next record() invalidates it.
        self._concatenated: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return self._n_events

    @property
    def n_events(self) -> int:
        """Number of retained raw (user, item, rating) events."""
        return self._n_events

    @property
    def n_compacted(self) -> int:
        """Raw events absorbed into the compacted delta by :meth:`compact`."""
        return self._n_compacted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InteractionLog({self._n_events} events, {self.affected_users().size} users)"

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, user: int, items: np.ndarray, ratings: np.ndarray) -> int:
        """Append one user's ratings; returns the number of events added.

        Validation is shared with the fold-in path
        (:func:`~repro.serving.foldin.validate_ratings`): items must be
        aligned 1-D integer indices and non-negative — but, unlike a
        fold-in against a frozen store, they are *not* bounded above, so
        ratings on items the model has never seen are recordable.
        """
        user_arr = np.asarray(user)
        if user_arr.ndim != 0 or not np.issubdtype(user_arr.dtype, np.integer):
            raise ValueError(f"user must be a scalar integer id, got {user!r}")
        if int(user_arr) < 0:
            raise ValueError("user id must be non-negative")
        items, ratings = validate_ratings(items, ratings)
        if items.size == 0:
            return 0
        self._users.append(np.full(items.size, int(user_arr), dtype=np.int64))
        self._items.append(items.copy())
        self._ratings.append(ratings.copy())
        self._n_events += items.size
        self._concatenated = None
        return int(items.size)

    def clear(self) -> None:
        """Forget all recorded events (after a refresh consumed them)."""
        self._users.clear()
        self._items.clear()
        self._ratings.clear()
        self._n_events = 0
        self._compacted = None
        self._n_compacted = 0
        self._concatenated = None

    def compact(self, max_events: int) -> int:
        """Fold the oldest events into a retained CSR delta; returns how many.

        Windowed retention for a long-lived serving log: the newest
        ``max_events`` raw events are kept as-is and everything older is
        summed into one compacted CSR delta (duplicate (user, item)
        pairs merge, exactly as :meth:`to_csr` would merge them).  Every
        view — :meth:`arrays`, :meth:`affected_users`, :meth:`to_csr`,
        and therefore an incremental refresh — still sees the full
        history, so refresh results are unchanged while the raw event
        list stays bounded.  Only the per-event ordering inside the
        compacted window is lost, which no consumer depends on
        (downstream CSR construction sums duplicates regardless).
        """
        if max_events < 0:
            raise ValueError("max_events must be non-negative")
        n_fold = self._n_events - max_events
        if n_fold <= 0:
            return 0
        users, items, ratings = (
            np.concatenate(self._users),
            np.concatenate(self._items),
            np.concatenate(self._ratings),
        )
        old_u, old_i, old_r = users[:n_fold], items[:n_fold], ratings[:n_fold]
        m = int(old_u.max()) + 1
        n = int(old_i.max()) + 1
        if self._compacted is not None:
            m = max(m, self._compacted.shape[0])
            n = max(n, self._compacted.shape[1])
            old_u = np.concatenate([self._compacted.row_ids(), old_u])
            old_i = np.concatenate([self._compacted.indices, old_i])
            old_r = np.concatenate([self._compacted.data, old_r])
        self._compacted = CSRMatrix.from_arrays((m, n), old_u, old_i, old_r)
        self._n_compacted += n_fold
        self._users = [users[n_fold:]] if max_events else []
        self._items = [items[n_fold:]] if max_events else []
        self._ratings = [ratings[n_fold:]] if max_events else []
        self._n_events = max_events
        self._concatenated = None
        return n_fold

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The event triplets as aligned, read-only ``(users, items, ratings)``.

        The full history: the compacted delta's (summed) entries first,
        then the retained raw events in recording order.
        """
        if self._concatenated is None:
            users: list[np.ndarray] = []
            items: list[np.ndarray] = []
            ratings: list[np.ndarray] = []
            if self._compacted is not None:
                users.append(self._compacted.row_ids())
                items.append(self._compacted.indices)
                ratings.append(self._compacted.data)
            users.extend(self._users)
            items.extend(self._items)
            ratings.extend(self._ratings)
            if users:
                triple = (
                    np.concatenate(users).astype(np.int64, copy=False),
                    np.concatenate(items).astype(np.int64, copy=False),
                    np.concatenate(ratings).astype(np.float64, copy=False),
                )
            else:
                triple = (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                )
            for arr in triple:
                arr.setflags(write=False)
            self._concatenated = triple
        return self._concatenated

    def affected_users(self) -> np.ndarray:
        """Sorted unique user ids with at least one recorded event."""
        users, _, _ = self.arrays()
        return np.unique(users)

    def max_user(self) -> int:
        """Largest recorded user id (-1 when empty)."""
        users, _, _ = self.arrays()
        return int(users.max()) if users.size else -1

    def max_item(self) -> int:
        """Largest recorded item id (-1 when empty)."""
        _, items, _ = self.arrays()
        return int(items.max()) if items.size else -1

    def to_csr(self, n_users: int | None = None, n_items: int | None = None) -> CSRMatrix:
        """Materialise the delta as a CSR matrix, summing duplicates.

        The shape covers every recorded id; ``n_users`` / ``n_items``
        widen it further (e.g. to the model's axes) but may not shrink
        below what the log contains.
        """
        users, items, ratings = self.arrays()
        m = max(self.max_user() + 1, n_users or 0)
        n = max(self.max_item() + 1, n_items or 0)
        if n_users is not None and n_users < self.max_user() + 1:
            raise ValueError(f"log contains user {self.max_user()}, cannot fit {n_users} rows")
        if n_items is not None and n_items < self.max_item() + 1:
            raise ValueError(f"log contains item {self.max_item()}, cannot fit {n_items} columns")
        return CSRMatrix.from_arrays((m, n), users, items, ratings)
