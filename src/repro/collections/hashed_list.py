"""A list API backed by an insertion-ordered hash set.

Table 2's first rule replaces an ``ArrayList`` that performs "a large
volume of contains operations on a large sized list" with a
``LinkedHashSet``.  The program still speaks the List interface, so this
adapter provides list semantics (insertion order, positional reads) over a
linked hash table: ``contains`` becomes O(1) while ``get(i)`` degrades to
an order-walk -- which is exactly why the built-in rule only fires when
indexed reads are absent.

Like a real replacement by a set, duplicates are dropped; Chameleon only
suggests this replacement for contexts whose usage never relies on
duplicates (add/contains/iterate-dominated), mirroring the paper's remark
that it optimises selection and leaves equivalence to the user/rules.
"""

from __future__ import annotations

from typing import Any

from repro.collections.base import ListImpl, UnsupportedOperation, values_equal
from repro.collections.storage import HashKeyStorage

__all__ = ["HashBackedListImpl"]


class HashBackedListImpl(HashKeyStorage, ListImpl):
    """Insertion-ordered, deduplicating hash-backed list."""

    IMPL_NAME = "LinkedHashSet"
    LINKED = True

    def add(self, value: Any) -> None:
        self._table.put(value, None)

    def add_at(self, index: int, value: Any) -> None:
        raise UnsupportedOperation(
            "hash-backed list does not support positional insertion")

    def get(self, index: int) -> Any:
        self._check_index(index, self._table.count)
        for i, entry in enumerate(self._table.iter_entries()):
            if i == index:
                return entry.key
        raise AssertionError("unreachable: index checked against count")

    def set_at(self, index: int, value: Any) -> Any:
        raise UnsupportedOperation(
            "hash-backed list does not support positional update")

    def remove_at(self, index: int) -> Any:
        value = self.get(index)
        self._table.remove(value)
        return value

    def index_of(self, value: Any) -> int:
        # Membership is a hash probe; the position (rarely wanted by the
        # workloads this backs) costs an order walk.
        if self._table.get_entry(value) is None:
            return -1
        for i, entry in enumerate(self._table.iter_entries()):
            if values_equal(entry.key, value):
                return i
        raise AssertionError("unreachable: entry known present")
