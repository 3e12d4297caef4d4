"""Relation schemas and attribute types.

Ariel supports the relational model with a POSTQUEL-style data definition
language.  We provide the four scalar types the paper's examples use
(``int4``, ``float8``, ``text``, ``bool``) plus aliases (``int``,
``integer``, ``float``, ``real``, ``string``, ``boolean``).
"""

from __future__ import annotations

import enum
from operator import call
from dataclasses import dataclass

from repro.errors import CatalogError, SemanticError


class AttributeType(enum.Enum):
    """Scalar attribute types supported by the engine."""

    INT = "int4"
    FLOAT = "float8"
    TEXT = "text"
    BOOL = "bool"

    @classmethod
    def from_name(cls, name: str) -> "AttributeType":
        """Resolve a type name (including aliases) to an AttributeType."""
        try:
            return _TYPE_ALIASES[name.lower()]
        except KeyError:
            accepted = ", ".join(sorted(_TYPE_ALIASES))
            raise SemanticError(
                f"unknown type name: {name!r}; "
                f"accepted names and aliases: {accepted}") from None

    def python_type(self) -> type:
        """The Python type used to store values of this attribute type."""
        return _PYTHON_TYPES[self]

    def accepts(self, value: object) -> bool:
        """True if ``value`` can be stored in an attribute of this type.

        Integers are acceptable for FLOAT attributes (they are widened on
        store); bool is *not* acceptable for INT despite being an int
        subclass, mirroring SQL's separation of the domains.
        """
        if value is None:
            return True
        if self is AttributeType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is AttributeType.FLOAT:
            return (isinstance(value, (int, float))
                    and not isinstance(value, bool))
        if self is AttributeType.TEXT:
            return isinstance(value, str)
        return isinstance(value, bool)

    def coerce(self, value: object) -> object:
        """Coerce ``value`` for storage, raising SemanticError on mismatch."""
        return _COERCERS[self](value)

    def coercer(self):
        """The bare coercion callable for this type — what the tuple
        storage hot path calls, bypassing enum dispatch."""
        return _COERCERS[self]


_TYPE_ALIASES = {
    "int4": AttributeType.INT,
    "int": AttributeType.INT,
    "integer": AttributeType.INT,
    "float8": AttributeType.FLOAT,
    "float": AttributeType.FLOAT,
    "real": AttributeType.FLOAT,
    "double": AttributeType.FLOAT,
    "text": AttributeType.TEXT,
    "string": AttributeType.TEXT,
    "varchar": AttributeType.TEXT,
    "char": AttributeType.TEXT,
    "bool": AttributeType.BOOL,
    "boolean": AttributeType.BOOL,
}

_PYTHON_TYPES = {
    AttributeType.INT: int,
    AttributeType.FLOAT: float,
    AttributeType.TEXT: str,
    AttributeType.BOOL: bool,
}


def _coerce_int(value):
    if value is None or (type(value) is int):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SemanticError(f"value {value!r} is not valid for type int4")


def _coerce_float(value):
    if value is None or type(value) is float:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise SemanticError(f"value {value!r} is not valid for type float8")


def _coerce_text(value):
    if value is None or isinstance(value, str):
        return value
    raise SemanticError(f"value {value!r} is not valid for type text")


def _coerce_bool(value):
    if value is None or isinstance(value, bool):
        return value
    raise SemanticError(f"value {value!r} is not valid for type bool")


_COERCERS = {
    AttributeType.INT: _coerce_int,
    AttributeType.FLOAT: _coerce_float,
    AttributeType.TEXT: _coerce_text,
    AttributeType.BOOL: _coerce_bool,
}


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation."""

    name: str
    type: AttributeType

    def __str__(self) -> str:
        return f"{self.name} = {self.type.value}"


class Schema:
    """An ordered list of attributes with by-name lookup.

    Schemas are immutable once constructed.  Attribute names are
    case-sensitive (the paper's examples are all lower case) and must be
    unique within a schema.
    """

    __slots__ = ("attributes", "_positions", "_coercers")

    def __init__(self, attributes: list[Attribute] | tuple[Attribute, ...]):
        self.attributes: tuple[Attribute, ...] = tuple(attributes)
        positions: dict[str, int] = {}
        for i, attr in enumerate(self.attributes):
            if attr.name in positions:
                raise CatalogError(
                    f"duplicate attribute name: {attr.name!r}")
            positions[attr.name] = i
        self._positions = positions
        self._coercers = tuple(a.type.coercer() for a in self.attributes)

    @classmethod
    def of(cls, **columns: str) -> "Schema":
        """Convenience constructor: ``Schema.of(name='text', age='int')``."""
        return cls([Attribute(name, AttributeType.from_name(type_name))
                    for name, type_name in columns.items()])

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def __repr__(self) -> str:
        cols = ", ".join(str(a) for a in self.attributes)
        return f"Schema({cols})"

    def names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(a.name for a in self.attributes)

    def has(self, name: str) -> bool:
        """True if an attribute with this name exists."""
        return name in self._positions

    def position(self, name: str) -> int:
        """Zero-based position of the attribute, or raise SemanticError."""
        try:
            return self._positions[name]
        except KeyError:
            raise SemanticError(f"unknown attribute: {name!r}") from None

    def attribute(self, name: str) -> Attribute:
        """The attribute with this name, or raise SemanticError."""
        return self.attributes[self.position(name)]

    def type_of(self, name: str) -> AttributeType:
        """The type of the named attribute."""
        return self.attribute(name).type

    def coerce_values(self, values: tuple) -> tuple:
        """Validate and coerce a value tuple against this schema."""
        coercers = self._coercers
        if len(values) != len(coercers):
            raise StorageArityError(len(coercers), len(values))
        return tuple(map(call, coercers, values))


class StorageArityError(CatalogError):
    """Tuple arity does not match the schema."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"schema expects {expected} values, got {got}")
        self.expected = expected
        self.got = got
