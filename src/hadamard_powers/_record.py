"""Frozen value records: what @dataclass(frozen=True) gives, without its
import cost (dataclasses imports inspect and compiles generated source for
every class, on every import of the package).

@record reads a class's annotated fields in order, with their class-level
defaults, and installs an __init__ taking them positionally or by keyword
(then __post_init__, if the class has one), a __setattr__ and __delattr__
that refuse, a repr Name(field=value, ...) and, unless eq=False, __eq__
and __hash__ over the tuple of fields.
"""

import operator


def record(cls=None, *, eq=True):
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    known = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    title = f"{cls.__qualname__}()"

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title} takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{title} got multiple values for argument {name!r}")
            kwargs[name] = value
        if not kwargs.keys() <= known:
            raise TypeError(f"{title} got an unexpected keyword argument "
                            f"{sorted(kwargs.keys() - known)[0]!r}")
        try:
            values = {name: kwargs[name] if name in kwargs else defaults[name] for name in names}
        except KeyError as exc:
            raise TypeError(f"{title} missing required argument {exc.args[0]!r}") from None
        self.__dict__.update(values)
        if post_init is not None:
            self.__post_init__()

    def __setattr__(self, name, *value):  # also __delattr__, without the value
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {cls.__qualname__}")

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({body})"

    get = operator.attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    methods = {"__init__": __init__, "__setattr__": __setattr__, "__delattr__": __setattr__,
               "__repr__": __repr__}
    if eq:
        methods.update(__eq__=__eq__, __hash__=__hash__)
    for name, method in methods.items():
        setattr(cls, name, method)
    return cls
