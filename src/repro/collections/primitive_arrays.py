"""Primitive-array list family: "IntArray -- array of ints. (Similar for
other primitives)" (section 4.2).

Every member is generated from a slot description, so ``IntArray``,
``LongArray``, ``DoubleArray``, ``BoolArray`` (and any user-defined
primitive) share one implementation of the storage logic while differing
in slot width and accepted values -- exactly how such families are stamped
out in real collection libraries.  No member boxes its elements: storing
the int ``7`` takes a 4-byte ``int[]`` slot, not a reference to a 16-byte
box.
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, List, Optional, Type

from repro.collections.base import ListImpl
from repro.collections.storage import ItemArrayStorage
from repro.memory.heap import HeapObject

__all__ = ["PrimitiveArrayImpl", "make_primitive_array_impl",
           "IntArrayImpl", "LongArrayImpl", "DoubleArrayImpl",
           "BoolArrayImpl"]


class PrimitiveArrayImpl(ItemArrayStorage, ListImpl):
    """Generic unboxed array list; subclasses fix slot width and checks.

    Class attributes set by :func:`make_primitive_array_impl`:

    * ``SLOT_BYTES`` -- bytes per element slot;
    * ``ARRAY_TYPE_NAME`` -- simulated array type (``"long[]"``...);
    * ``CHECK`` -- value validator/normaliser (raises ``TypeError``).
    """

    IMPL_NAME = "PrimitiveArray"
    DEFAULT_CAPACITY = 10
    SLOT_BYTES = 4
    ARRAY_TYPE_NAME = "prim[]"
    CHECK: Callable[[Any], Any] = staticmethod(lambda value: value)

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._items: List[Any] = []
        self._array: Optional[HeapObject] = None
        self._capacity = 0
        self._allocate_anchor(ref_fields=1, int_fields=2)
        self._grow_to(initial_capacity if initial_capacity is not None
                      else self.DEFAULT_CAPACITY)

    def _array_bytes(self, elements: int) -> int:
        model = self.vm.model
        return model.align(model.array_header_bytes
                           + elements * self.SLOT_BYTES)

    # ------------------------------------------------------------------
    # List operations
    # ------------------------------------------------------------------
    def add(self, value: Any) -> None:
        value = self.CHECK(value)
        self._ensure_capacity(len(self._items) + 1)
        self._items.append(value)
        self.charge(self.vm.costs.array_access)

    def add_at(self, index: int, value: Any) -> None:
        value = self.CHECK(value)
        size = len(self._items)
        if not 0 <= index <= size:
            raise IndexError(f"index {index} out of range [0, {size}]")
        self._ensure_capacity(size + 1)
        self._items.insert(index, value)
        self.charge(self.vm.costs.array_access
                    + self.vm.costs.copy_per_element * (size - index))

    def set_at(self, index: int, value: Any) -> Any:
        value = self.CHECK(value)
        self._check_index(index, len(self._items))
        old = self._items[index]
        self._items[index] = value
        self.charge(self.vm.costs.array_access)
        return old

    def remove_at(self, index: int) -> Any:
        self._check_index(index, len(self._items))
        old = self._items.pop(index)
        self.charge(self.vm.costs.array_access
                    + self.vm.costs.copy_per_element
                    * (len(self._items) - index))
        return old

    def clear(self) -> None:
        self.charge(self.vm.costs.array_access)
        self._items.clear()


def make_primitive_array_impl(name: str, slot_bytes: int,
                              check: Callable[[Any], Any],
                              array_type_name: Optional[str] = None,
                              ) -> Type[PrimitiveArrayImpl]:
    """Stamp out one member of the primitive-array family.

    Args:
        name: Implementation name (``"LongArray"``).
        slot_bytes: Bytes per element slot.
        check: Validator; must raise ``TypeError`` on foreign values and
            return the (possibly normalised) stored value.
        array_type_name: Simulated array type; defaults from ``name``.
    """
    if slot_bytes <= 0:
        raise ValueError("slot width must be positive")
    return type(name + "Impl", (PrimitiveArrayImpl,), {
        "IMPL_NAME": name,
        "SLOT_BYTES": slot_bytes,
        "ARRAY_TYPE_NAME": array_type_name or name.replace("Array", "").lower() + "[]",
        "CHECK": staticmethod(check),
        "__doc__": f"Unboxed {slot_bytes}-byte-per-slot list ({name}).",
    })


def _check_integral(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an int, not {type(value).__name__}")
    return int(value)


def _check_real(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a float, not {type(value).__name__}")
    return float(value)


def _check_bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a bool, not {type(value).__name__}")
    return value


IntArrayImpl = make_primitive_array_impl("IntArray", 4, _check_integral)
LongArrayImpl = make_primitive_array_impl("LongArray", 8, _check_integral)
DoubleArrayImpl = make_primitive_array_impl("DoubleArray", 8, _check_real)
BoolArrayImpl = make_primitive_array_impl("BoolArray", 1, _check_bool)
