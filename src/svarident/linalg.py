"""Dense linear-algebra kernels for small matrices.

Everything here operates on plain numpy arrays at desk scale (n up to a few
dozen).  Rank decisions go through a single tolerance policy so that every
caller in the package counts singular values the same way.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


class _Record:
    """Base of the package's public value classes.  Each subclass becomes a
    dataclass (fields, replace, astuple, asdict and __match_args__ work)
    whose methods are these, not code that @dataclass(frozen=True)
    generates and compiles for every class (about 1 ms a class): __init__
    binds positional, keyword and default arguments, then runs
    __post_init__; repr, equality (with the same class only) and hash go
    over the fields in order; setting or deleting an attribute raises
    FrozenInstanceError.  An instance's __dict__ holds exactly its fields,
    in order (a subclass's own __init__ must fill it so), and these
    methods read the fields from it.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        fields = dataclasses.fields(cls)
        cls._positions = tuple(enumerate(f.name for f in fields))
        cls._defaults = tuple(f.default for f in fields)
        if "__init__" not in cls.__dict__:
            cls.__signature__ = inspect.Signature([
                inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                                  default=inspect.Parameter.empty if f.default is dataclasses.MISSING
                                  else f.default)
                for f in fields], return_annotation=None)

    def __init__(self, *args, **kwargs):
        positions = self._positions
        if kwargs or len(args) != len(positions):
            args = self._bind(args, kwargs)
        d = self.__dict__
        for i, name in positions:
            d[name] = args[i]
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The value of each field, in order, from a call's arguments and
        the fields' defaults."""
        names = cls.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name, default in zip(names[len(args):], cls._defaults[len(args):]):
            value = kwargs.pop(name, default)
            if value is dataclasses.MISSING:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            values.append(value)
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return values

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in self.__dict__.items()])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


class RankTolerance(_Record):
    """Cutoff policy for counting singular values as nonzero.

    policy "relative": cutoff = value * sigma_max, with value defaulting to
    max(rows, cols) * machine epsilon (the conventional rank rule).
    policy "absolute": cutoff = value, which must be supplied.
    Under either policy the cutoff is at least the default one: a smaller
    cutoff would count rounding errors as rank.  A value must be finite
    and positive: an infinite cutoff would call every matrix rank 0.
    """

    policy: str = "relative"
    value: float | None = None

    def __post_init__(self):
        if self.policy not in ("relative", "absolute"):
            raise ValueError(f"unknown tolerance policy {self.policy!r}")
        if self.policy == "absolute" and self.value is None:
            raise ValueError("absolute tolerance requires a value")
        if self.value is not None and not 0.0 < self.value < np.inf:
            raise ValueError("tolerance value must be finite and positive")

    def resolve(self, shape: tuple[int, int], sigma_max):
        """The cutoff against reference sigma_max (an array gives one each),
        never below the default max(shape) * eps * sigma_max."""
        floor = max(shape) * _EPS * sigma_max
        if self.value is None:
            return floor
        return np.maximum(self.value if self.policy == "absolute" else self.value * sigma_max, floor)


DEFAULT_TOL = RankTolerance()


def numerical_rank(m, tol: RankTolerance = DEFAULT_TOL):
    """Number of singular values above the resolved cutoff.  Zero matrix -> 0.

    m is a float array; a stack of matrices (..., rows, cols) gives an
    array of ranks, one each.
    """
    if min(m.shape[-2:]) == 0:
        return 0 if m.ndim == 2 else np.zeros(m.shape[:-2], dtype=int)
    s = np.linalg.svd(m, compute_uv=False)
    ranks = (s > tol.resolve(m.shape[-2:], s[..., :1])).sum(axis=-1)
    return int(ranks) if m.ndim == 2 else ranks
