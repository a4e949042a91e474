"""Schema model for hidden databases.

A hidden database table has *searchable* categorical attributes (the fields
of the web form) and optional *measure* columns (numeric values such as
PRICE that are shown on result pages but cannot be searched on).  The paper
assumes categorical data; numerical search fields are discretised before
they reach this layer (Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hidden_db.exceptions import SchemaError

__all__ = ["Attribute", "Schema", "key_shifts", "row_keys"]


@dataclass(frozen=True)
class Attribute:
    """One searchable categorical attribute.

    Values are the integers ``0 .. domain_size-1``; ``labels`` optionally
    maps them to human-readable strings (e.g. car makes).
    """

    name: str
    domain_size: int
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.domain_size < 2:
            raise SchemaError(
                f"attribute {self.name!r} needs a domain of at least 2 values, "
                f"got {self.domain_size}"
            )
        if self.labels is not None and len(self.labels) != self.domain_size:
            raise SchemaError(
                f"attribute {self.name!r} has {self.domain_size} values but "
                f"{len(self.labels)} labels"
            )

    @property
    def is_boolean(self) -> bool:
        """True when the domain has exactly two values."""
        return self.domain_size == 2

    def label_of(self, value: int) -> str:
        """Human-readable label for *value* (falls back to the integer)."""
        self.validate_value(value)
        if self.labels is not None:
            return self.labels[value]
        return str(value)

    def value_of(self, label: str) -> int:
        """Inverse of :meth:`label_of` for labelled attributes."""
        if self.labels is None:
            raise SchemaError(f"attribute {self.name!r} has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise SchemaError(
                f"attribute {self.name!r} has no value labelled {label!r}"
            ) from None

    def validate_value(self, value: int) -> None:
        """Raise :class:`SchemaError` unless *value* is in the domain."""
        if not (0 <= int(value) < self.domain_size):
            raise SchemaError(
                f"value {value} outside domain [0, {self.domain_size}) of "
                f"attribute {self.name!r}"
            )


def boolean_attributes(names: Iterable[str]) -> List[Attribute]:
    """Convenience constructor for a batch of Boolean attributes."""
    return [Attribute(name, 2) for name in names]


class Schema:
    """An ordered collection of searchable attributes plus measure columns.

    The attribute order given here is the *storage* order; estimators are
    free to walk the query tree in a different order (Section 5.1 recommends
    decreasing fanout).
    """

    def __init__(
        self,
        attributes: Sequence[Attribute],
        measure_names: Sequence[str] = (),
    ) -> None:
        if not attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names in schema")
        if len(set(measure_names)) != len(list(measure_names)):
            raise SchemaError("duplicate measure names in schema")
        overlap = set(names) & set(measure_names)
        if overlap:
            raise SchemaError(f"names used both as attribute and measure: {overlap}")
        self._attributes: Tuple[Attribute, ...] = tuple(attributes)
        self._measure_names: Tuple[str, ...] = tuple(measure_names)
        self._index: Dict[str, int] = {a.name: i for i, a in enumerate(attributes)}

    # -- attribute access ---------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """All searchable attributes in storage order."""
        return self._attributes

    @property
    def measure_names(self) -> Tuple[str, ...]:
        """Names of the non-searchable measure columns."""
        return self._measure_names

    def __len__(self) -> int:
        return len(self._attributes)

    def __getitem__(self, index: int) -> Attribute:
        return self._attributes[index]

    def __iter__(self):
        return iter(self._attributes)

    def index_of(self, name: str) -> int:
        """Position of the attribute called *name*."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def attribute(self, name: str) -> Attribute:
        """The attribute called *name*."""
        return self._attributes[self.index_of(name)]

    # -- domain geometry ----------------------------------------------------

    def domain_size(self, indices: Optional[Sequence[int]] = None) -> int:
        """|Dom(...)| — cardinality of the Cartesian product of domains.

        With no argument, the full domain of the table (the paper's |Dom|).
        Computed in exact integer arithmetic; this can be astronomically
        large (e.g. 2^40).
        """
        if indices is None:
            indices = range(len(self._attributes))
        size = 1
        for i in indices:
            size *= self._attributes[i].domain_size
        return size

    def fanouts(self) -> Tuple[int, ...]:
        """Domain size of each attribute, in storage order."""
        return tuple(a.domain_size for a in self._attributes)

    def decreasing_fanout_order(self) -> Tuple[int, ...]:
        """Attribute indices sorted by decreasing fanout (stable).

        Section 5.1: placing large-fanout attributes near the root minimises
        the expected smart-backtracking probe cost.
        """
        return tuple(
            sorted(
                range(len(self._attributes)),
                key=lambda i: (-self._attributes[i].domain_size, i),
            )
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"{a.name}({a.domain_size})" for a in self._attributes)
        return f"Schema([{parts}], measures={list(self._measure_names)})"


# -- row identity -----------------------------------------------------------


def key_shifts(fanouts: Sequence[int]) -> Tuple[int, ...]:
    """Bit offset of each attribute's field in a :func:`row_keys` key.

    Each field is as wide as ``fanout - 1`` needs and the first attribute
    takes the most significant bits, so a row's key is
    ``sum(value[j] << shifts[j])``: setting attribute *j* of a row from *a*
    to *b* adds ``(b - a) << shifts[j]`` to its key.
    """
    shifts = []
    offset = 0
    for fanout in reversed(fanouts):
        shifts.append(offset)
        offset += (int(fanout) - 1).bit_length()
    return tuple(reversed(shifts))


def row_keys(data: np.ndarray, fanouts: Sequence[int]) -> np.ndarray:
    """One order-preserving integer key per row of *data*.

    The key packs the row's values (each in ``[0, fanout)``) into the bit
    fields of :func:`key_shifts`.  Equal keys mean equal rows and sorting
    keys sorts rows lexicographically, so
    ``np.unique(row_keys(data, fanouts), return_index=True)`` returns the
    indices ``np.unique(data, axis=0, return_index=True)`` returns, in the
    same order, for the price of a 1-D sort.  Keys of up to 64 bits come
    back as ``uint64``; wider keys as an object array of Python ints, which
    keep the same order and the same arithmetic.
    """
    data = np.asarray(data)
    words = []  # (bits, packed uint64 word), most significant first
    word = np.zeros(data.shape[0], dtype=np.uint64)
    bits = 0
    for j, fanout in enumerate(fanouts):
        width = (int(fanout) - 1).bit_length()
        if bits + width > 64:
            words.append((bits, word))
            word = np.zeros(data.shape[0], dtype=np.uint64)
            bits = 0
        word <<= width
        word |= data[:, j].astype(np.uint64)
        bits += width
    if not words:
        return word
    words.append((bits, word))
    keys = np.zeros(data.shape[0], dtype=object)
    for bits, word in words:
        keys = (keys << bits) | word.astype(object)
    return keys
