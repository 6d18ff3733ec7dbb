"""The one class decorator behind every frozen value type of the package.

It lives apart from the graph types, so modules that define records but
take no graph, such as the metric spaces, load no graph code.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls):
    """Make cls a frozen value class over its annotated fields, in order.

    Records of one class are equal when their fields are, hash as the field
    tuple, show as Name(field=value, ...), and refuse attribute assignment and
    deletion (object.__setattr__ still sets a field).  Unless cls has an
    __init__, one is supplied: it takes the fields by position or keyword,
    defaults from class attributes, then calls __post_init__.  Unlike the
    standard library's frozen records, it generates and compiles no code.
    """
    names = tuple(cls.__annotations__)
    wanted, defaults = set(names), {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or values.keys() != wanted or kwargs.keys() & set(names[: len(args)]):
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)}), each once")
        vars(self).update(values)
        post_init(self)

    def frozen(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot set or delete {name!r}")

    cls.__eq__ = lambda self, other: (
        fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented
    )
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__repr__ = lambda self: f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, fields(self)))})"
    cls.__setattr__ = cls.__delattr__ = frozen
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    return cls
