"""Base class of the package's validated, immutable value types.

A subclass names its fields in __slots__ and sets each once, through _init,
after checking its arguments.  Then assigning or deleting a field raises
AttributeError, and objects of one type with equal fields are equal and hash
equal: a frozen dataclass without importing dataclasses, which pulls inspect
and ast into every command's start-up.
"""


class Frozen:
    __slots__ = ()

    def _init(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"
