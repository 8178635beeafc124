"""A B+ tree index with duplicate keys, point and range scans.

The paper's phonetic index is "a standard database B-Tree index ... on the
grouped phoneme string identifier attribute" (Section 5.3); this module is
that standard index.  Keys are any mutually comparable Python values (the
phonetic index stores integers); each key maps to the list of rowids
carrying it.

The implementation is a textbook B+ tree: sorted keys in every node,
leaves chained for range scans, splits on overflow, and borrow/merge
rebalancing on underflow, so deletes do not degrade the tree.  ``bisect``
does the in-node searching.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from repro.errors import DatabaseError


class _Leaf:
    __slots__ = ("keys", "buckets", "next")

    def __init__(self) -> None:
        self.keys: list = []
        self.buckets: list[list] = []
        self.next: _Leaf | None = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds the rest.
        self.keys: list = []
        self.children: list = []


class BPlusTree:
    """B+ tree mapping keys to lists of values (duplicates allowed)."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise DatabaseError(f"B+ tree order must be >= 4, got {order}")
        self.order = order
        self._max_keys = order - 1
        self._min_keys = (order - 1) // 2
        self._root: _Leaf | _Internal = _Leaf()
        self._size = 0  # number of (key, value) entries

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(cls, items, order: int = 64) -> "BPlusTree":
        """Build a tree from sorted ``(key, bucket)`` pairs in one pass.

        Linear time (no per-entry descent): leaves are packed
        left-to-right at full fanout, internal levels built bottom-up.
        This is the snapshot-restore path — a checkpointed 200k-row
        index re-attaches without paying 200k ``insert`` descents.
        Keys must be strictly increasing and buckets non-empty, else
        :class:`~repro.errors.DatabaseError`.
        """
        tree = cls(order=order)
        # Single validating pass: buckets are copied (the tree mutates
        # them in place) and key order checked as we go — this runs
        # over millions of posting entries on the snapshot-restore
        # path, so no per-leaf re-scans.
        all_keys: list = []
        all_buckets: list[list] = []
        size = 0
        have_prev = False
        prev = None
        for key, bucket in items:
            bucket = list(bucket)
            if not bucket:
                raise DatabaseError("bulk_load buckets must be non-empty")
            if have_prev and not prev < key:
                raise DatabaseError(
                    "bulk_load requires strictly increasing keys"
                )
            prev = key
            have_prev = True
            all_keys.append(key)
            all_buckets.append(bucket)
            size += len(bucket)
        if not all_keys:
            return tree
        cap = tree._max_keys
        floor = tree._min_keys
        leaves: list[_Leaf] = []
        i, n = 0, len(all_keys)
        while i < n:
            take = min(cap, n - i)
            # Never leave an underfull tail: shrink this node instead.
            if 0 < n - i - take < floor:
                take = n - i - floor
            leaf = _Leaf()
            leaf.keys = all_keys[i : i + take]
            leaf.buckets = all_buckets[i : i + take]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
            i += take
        tree._size = size
        level: list = leaves
        lows = [leaf.keys[0] for leaf in leaves]
        max_children = order
        min_children = floor + 1
        while len(level) > 1:
            parents: list = []
            parent_lows: list = []
            i, n = 0, len(level)
            while i < n:
                take = min(max_children, n - i)
                if 0 < n - i - take < min_children:
                    take = n - i - min_children
                node = _Internal()
                node.children = level[i : i + take]
                node.keys = lows[i + 1 : i + take]
                parents.append(node)
                parent_lows.append(lows[i])
                i += take
            level = parents
            lows = parent_lows
        tree._root = level[0]
        return tree

    # ------------------------------------------------------------- search

    def search(self, key) -> list:
        """All values stored under ``key`` (empty list if absent).

        Deliberately uninstrumented: callers probe in tight loops, so
        the phonetic pipeline accounts for ``btree.probes`` itself
        (batched — see ``repro.core.engine`` and ``core.strategies``).
        """
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return list(leaf.buckets[idx])
        return []

    def contains(self, key) -> bool:
        """True if at least one entry exists under ``key``."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        return idx < len(leaf.keys) and leaf.keys[idx] == key

    def range_scan(
        self,
        low=None,
        high=None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[object, object]]:
        """Yield ``(key, value)`` pairs with ``low <= key <= high`` in order.

        ``None`` bounds are open ends.  Inclusivity of each bound is
        controlled independently.
        """
        if low is None:
            leaf: _Leaf | None = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf(low)
            if low_inclusive:
                idx = bisect.bisect_left(leaf.keys, low)
            else:
                idx = bisect.bisect_right(leaf.keys, low)
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None:
                    if high_inclusive:
                        if key > high:
                            return
                    elif key >= high:
                        return
                for value in leaf.buckets[idx]:
                    yield key, value
                idx += 1
            leaf = leaf.next
            idx = 0

    def items(self) -> Iterator[tuple[object, list]]:
        """Yield ``(key, bucket)`` for every distinct key, in key order."""
        leaf: _Leaf | None = self._leftmost_leaf()
        while leaf is not None:
            for key, bucket in zip(leaf.keys, leaf.buckets):
                yield key, list(bucket)
            leaf = leaf.next

    def keys(self) -> Iterator:
        for key, _bucket in self.items():
            yield key

    def _find_leaf(self, key) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    # ------------------------------------------------------------- insert

    def insert(self, key, value) -> None:
        """Add ``value`` under ``key`` (duplicates accumulate)."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep_key, right = split
            new_root = _Internal()
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def _insert(self, node, key, value):
        if isinstance(node, _Leaf):
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.buckets[idx].append(value)
                return None
            node.keys.insert(idx, key)
            node.buckets.insert(idx, [value])
            if len(node.keys) > self._max_keys:
                return self._split_leaf(node)
            return None
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, value)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right)
        if len(node.keys) > self._max_keys:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.buckets = leaf.buckets[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.buckets = leaf.buckets[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep_key, right

    # ------------------------------------------------------------- delete

    def delete(self, key, value) -> bool:
        """Remove one occurrence of ``value`` under ``key``.

        Returns True if an entry was removed, False if absent.
        """
        removed = self._delete(self._root, key, value)
        if removed:
            self._size -= 1
            if isinstance(self._root, _Internal) and len(self._root.keys) == 0:
                self._root = self._root.children[0]
        return removed

    def _delete(self, node, key, value) -> bool:
        if isinstance(node, _Leaf):
            idx = bisect.bisect_left(node.keys, key)
            if idx >= len(node.keys) or node.keys[idx] != key:
                return False
            bucket = node.buckets[idx]
            try:
                bucket.remove(value)
            except ValueError:
                return False
            if not bucket:
                node.keys.pop(idx)
                node.buckets.pop(idx)
            return True
        idx = bisect.bisect_right(node.keys, key)
        child = node.children[idx]
        removed = self._delete(child, key, value)
        if removed:
            self._rebalance(node, idx)
        return removed

    def _rebalance(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        if self._entry_count(child) >= self._min_keys:
            return
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        # Borrow from a sibling with spare entries, else merge.
        if left is not None and self._entry_count(left) > self._min_keys:
            self._borrow_from_left(parent, idx)
        elif right is not None and self._entry_count(right) > self._min_keys:
            self._borrow_from_right(parent, idx)
        elif left is not None:
            self._merge(parent, idx - 1)
        elif right is not None:
            self._merge(parent, idx)

    @staticmethod
    def _entry_count(node) -> int:
        return len(node.keys)

    def _borrow_from_left(self, parent: _Internal, idx: int) -> None:
        left = parent.children[idx - 1]
        child = parent.children[idx]
        if isinstance(child, _Leaf):
            child.keys.insert(0, left.keys.pop())
            child.buckets.insert(0, left.buckets.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _Internal, idx: int) -> None:
        right = parent.children[idx + 1]
        child = parent.children[idx]
        if isinstance(child, _Leaf):
            child.keys.append(right.keys.pop(0))
            child.buckets.append(right.buckets.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Internal, left_idx: int) -> None:
        left = parent.children[left_idx]
        right = parent.children[left_idx + 1]
        if isinstance(left, _Leaf):
            left.keys.extend(right.keys)
            left.buckets.extend(right.buckets)
            left.next = right.next
        else:
            left.keys.append(parent.keys[left_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_idx)
        parent.children.pop(left_idx + 1)

    # ------------------------------------------------------------ checks

    def check_invariants(self) -> None:
        """Verify structural invariants (used by the test suite).

        Checks: sorted keys in every node, fanout bounds on non-root
        nodes, uniform leaf depth, leaf chain consistency, and separator
        correctness.  Raises :class:`~repro.errors.DatabaseError` on any
        violation.
        """
        leaves: list[_Leaf] = []

        def walk(node, depth: int, low, high) -> int:
            keys = node.keys
            for a, b in zip(keys, keys[1:]):
                if not a < b:
                    raise DatabaseError(f"unsorted node keys {keys!r}")
            if keys:
                if low is not None and keys[0] < low:
                    raise DatabaseError("separator violation (low)")
                if high is not None and keys[-1] >= high:
                    raise DatabaseError("separator violation (high)")
            if isinstance(node, _Leaf):
                if node is not self._root and len(keys) < self._min_keys:
                    raise DatabaseError("leaf underflow")
                if len(keys) > self._max_keys:
                    raise DatabaseError("leaf overflow")
                for bucket in node.buckets:
                    if not bucket:
                        raise DatabaseError("empty bucket")
                leaves.append(node)
                return depth
            if node is not self._root and len(keys) < self._min_keys:
                raise DatabaseError("internal underflow")
            if len(keys) > self._max_keys:
                raise DatabaseError("internal overflow")
            if len(node.children) != len(keys) + 1:
                raise DatabaseError("child count mismatch")
            depths = set()
            bounds = [low, *keys, high]
            for i, child in enumerate(node.children):
                depths.add(walk(child, depth + 1, bounds[i], bounds[i + 1]))
            if len(depths) != 1:
                raise DatabaseError("leaves at different depths")
            return depths.pop()

        walk(self._root, 0, None, None)
        # Leaf chain must visit exactly the leaves found by the walk.
        chained = []
        leaf: _Leaf | None = self._leftmost_leaf()
        while leaf is not None:
            chained.append(leaf)
            leaf = leaf.next
        if [id(x) for x in chained] != [id(x) for x in leaves]:
            raise DatabaseError("leaf chain does not match tree order")
        total = sum(len(b) for x in leaves for b in x.buckets)
        if total != self._size:
            raise DatabaseError(
                f"size mismatch: counted {total}, recorded {self._size}"
            )
