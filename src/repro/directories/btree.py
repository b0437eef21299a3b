"""A B+tree: the ordered index structure under directories.

Section 6: "The Directory Manager creates and maintains directories.
Directories use standard techniques modified to handle object
histories."  The *standard technique* here is a B+tree — ordered keys in
leaves linked for range scans; the history modification lives one level
up in :mod:`repro.directories.directory`.

Each leaf key holds a bucket (list) of values, so duplicate keys are
supported.  Deletion is lazy: emptied keys are removed from their leaf,
but leaves are not rebalanced — the tree stays correct (scans skip empty
leaves) and only degrades toward a sparser shape under adversarial
delete patterns, the usual engineering trade.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Optional


class _Leaf:
    __slots__ = ("keys", "buckets", "next")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.buckets: list[list[Any]] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []      # separators: child i holds keys < keys[i]
        self.children: list[Any] = []  # len(children) == len(keys) + 1


class BPlusTree:
    """An order-*m* B+tree mapping comparable keys to value buckets."""

    def __init__(self, order: int = 32) -> None:
        if order < 4:
            raise ValueError("B+tree order must be at least 4")
        self.order = order
        self._root: Any = _Leaf()
        self._size = 0  # total values across all buckets

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            index = bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def search(self, key: Any) -> list[Any]:
        """All values stored under *key* (empty list if none)."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.buckets[index])
        return []

    def __contains__(self, key: Any) -> bool:
        return bool(self.search(key))

    def range_leaves(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[list[Any], list[list[Any]]]]:
        """Yield each leaf's in-range ``(keys, buckets)`` slices, in key
        order: the one walk every range read makes, cut by ``bisect``."""
        if low is None:
            leaf, start = self._leftmost_leaf(), 0
        else:
            leaf = self._find_leaf(low)
            cut = bisect_left if include_low else bisect_right
            start = cut(leaf.keys, low)
        cut = bisect_right if include_high else bisect_left
        while leaf is not None:
            keys = leaf.keys
            stop = len(keys) if high is None else cut(keys, high)
            if start < stop:
                yield keys[start:stop], leaf.buckets[start:stop]
            if stop < len(keys):
                return
            leaf, start = leaf.next, 0

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with low ≤/< key ≤/< high, key-ordered."""
        for keys, buckets in self.range_leaves(low, high, include_low, include_high):
            for key, bucket in zip(keys, buckets):
                for value in bucket:
                    yield key, value

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        return self.range_scan()

    def keys(self) -> Iterator[Any]:
        """Distinct keys in order."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            for key, bucket in zip(leaf.keys, leaf.buckets):
                if bucket:
                    yield key
            leaf = leaf.next

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def min_key(self) -> Any:
        """Smallest key, or None if empty."""
        for key in self.keys():
            return key
        return None

    def max_key(self) -> Any:
        """Largest key, or None if empty (O(n) over leaves)."""
        result = None
        for key in self.keys():
            result = key
        return result

    # -- insertion ------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Add *value* under *key* (duplicates under one key allowed)."""
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def _insert(self, node: Any, key: Any, value: Any):
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.buckets[index].append(value)
                return None
            node.keys.insert(index, key)
            node.buckets.insert(index, [value])
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.children) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.buckets = leaf.buckets[middle:]
        del leaf.keys[middle:]
        del leaf.buckets[middle:]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        del node.keys[middle:]
        del node.children[middle + 1 :]
        return separator, right

    # -- deletion ------------------------------------------------------------------------

    def remove(self, key: Any, value: Any) -> bool:
        """Remove one occurrence of *value* under *key*; True if found."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        bucket = leaf.buckets[index]
        try:
            bucket.remove(value)
        except ValueError:
            return False
        if not bucket:
            del leaf.keys[index]
            del leaf.buckets[index]
        self._size -= 1
        return True

    def remove_all(self, key: Any) -> int:
        """Remove every value under *key*; returns how many were removed."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return 0
        count = len(leaf.buckets[index])
        del leaf.keys[index]
        del leaf.buckets[index]
        self._size -= count
        return count

    # -- introspection ----------------------------------------------------------------------

    def depth(self) -> int:
        """Height of the tree (1 for a lone leaf)."""
        node = self._root
        levels = 1
        while isinstance(node, _Internal):
            node = node.children[0]
            levels += 1
        return levels
