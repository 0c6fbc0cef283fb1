"""Record classes built from their annotations, without generated source.

``@record`` turns a class whose body annotates its fields into a record
with the semantics of ``dataclasses.dataclass`` that muspec uses: fields in
annotation order, positional and keyword construction, defaults and
``field(default_factory=...)``, ``__post_init__``, the dataclass ``repr``,
value ``==`` and, for frozen records, a hash equal to the hash of the field
tuple.  A mutable record with ``eq`` is unhashable; ``eq=False`` keeps
identity equality and hashing.  A frozen record raises
``FrozenInstanceError`` (an ``AttributeError``) on assignment or deletion
of an attribute.  A class that declares ``__slots__`` in its body keeps
them, and is copied and pickled through its constructor.

Every method is a closure over the class's field names, one
``operator.attrgetter`` for its values and one ``zip`` over names and
arguments: decorating a class compiles nothing, where ``dataclasses``
compiles one generated source text per method.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, is_, itemgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class field:
    """A default made fresh for every instance by ``default_factory()``."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, /, *, frozen: bool = False, eq: bool = True):
    """Class decorator: ``@record`` or ``@record(frozen=True, eq=False)``."""
    if cls is None:
        return lambda c: _build(c, frozen, eq)
    return _build(cls, frozen, eq)


def _tuple_getter(getter, keys: tuple):
    """The function from an object to the tuple of its ``keys``: an
    ``attrgetter`` or ``itemgetter`` of them, a tuple for one key too."""
    get = getter(*keys)
    if len(keys) > 1:
        return get
    return lambda obj: (get(obj),)


def _build(cls, frozen: bool, eq: bool):
    body = cls.__dict__
    names = tuple(body.get("__annotations__", {}))
    slotted = "__slots__" in body
    fill = []  # each field's default: a value, a field(), or _MISSING
    for name in names:
        default = _MISSING if slotted else body.get(name, _MISSING)
        if isinstance(default, field):
            delattr(cls, name)
        elif default is _MISSING and fill and fill[-1] is not _MISSING:
            raise TypeError(f"{cls.__qualname__}: field {name!r} without a default "
                            f"follows a field with one")
        fill.append(default)
    n = len(names)
    required = sum(default is _MISSING for default in fill)  # the first ones
    factories = tuple(i for i, default in enumerate(fill) if isinstance(default, field))
    fill = tuple(fill)
    known = frozenset(names)
    title = f"{cls.__qualname__}()"
    post_init = body.get("__post_init__")
    # picks[k]: the values of the fields after the first k, from keywords
    picks = tuple(_tuple_getter(itemgetter, names[k:]) for k in range(n))

    def bind(args, kwargs):
        """Every field's value in order, from arguments that are not
        exactly n positional ones."""
        k = len(args)
        if k > n:
            raise TypeError(f"{title} takes {n} positional arguments but {k} were given")
        if kwargs:
            if k + len(kwargs) == n:
                try:
                    return args + picks[k](kwargs)
                except KeyError:
                    pass  # an unknown name, reported below
            args = (*args, *map(kwargs.pop, names[k:], fill[k:]))
            for name in kwargs:  # left over: given twice, or no such field
                if name in known:
                    raise TypeError(f"{title} got multiple values for argument {name!r}")
                raise TypeError(f"{title} got an unexpected keyword argument {name!r}")
        else:
            args += fill[k:]
        # by identity: == on a numpy value is elementwise
        if k < required and any(map(is_, args[k:required], repeat(_MISSING))):
            missing = ", ".join(repr(name) for name, value in zip(names, args)
                                if value is _MISSING)
            raise TypeError(f"{title} missing required arguments: {missing}")
        if factories:
            args = list(args)
            for i in factories:
                if args[i] is fill[i]:
                    args[i] = fill[i].default_factory()
        return args

    # by setattr, not self.__dict__.update: on CPython 3.11 an instance
    # whose __dict__ was read keeps a real dict, and every attribute read
    # of it is several times slower
    put = object.__setattr__ if frozen else setattr

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        if post_init is not None:
            post_init(self)

    values = _tuple_getter(attrgetter, names)
    labels = tuple(f"{name}=" for name in names)

    def __repr__(self):
        inner = ", ".join([f"{label}{value!r}" for label, value in zip(labels, values(self))])
        return f"{self.__class__.__qualname__}({inner})"

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    if slotted:
        def __reduce__(self):  # copy and pickle: by default they fill slots by setattr
            return self.__class__, values(self)

        cls.__reduce__ = __reduce__
    if eq:
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__ if frozen else None
    if frozen:
        def __setattr__(self, name, value):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenInstanceError(f"cannot delete field {name!r}")

        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    return cls
