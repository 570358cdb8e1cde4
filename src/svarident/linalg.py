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
    takes the fields' values, by position or through the signature built
    here (keywords and defaults), then runs __post_init__; repr, equality
    (with the same class only) and hash go over the fields in order;
    setting or deleting an attribute raises FrozenInstanceError.  An
    instance's __dict__ holds exactly its fields, in order, and these
    methods read the fields from it.  A call that gives every field by
    position skips the bind, which costs several microseconds, so the
    package builds the records of a walk and a report by position.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        cls.__signature__ = inspect.Signature([
            inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                              default=inspect.Parameter.empty if f.default is dataclasses.MISSING
                              else f.default)
            for f in dataclasses.fields(cls)], return_annotation=None)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            bound = self.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        # one fresh dict, not one filled key by key: attribute reads of the
        # latter miss the interpreter's fast path
        object.__setattr__(self, "__dict__", dict(zip(names, args)))
        self.__post_init__()

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
    """Cutoff for counting singular values as nonzero.

    With no value the cutoff is max(rows, cols) * machine epsilon *
    sigma_max (the conventional rank rule).  A value is an absolute cutoff,
    but never below that default one: a smaller cutoff would count rounding
    errors as rank.  A value must be finite and positive: an infinite
    cutoff would call every matrix rank 0.
    """

    value: float | None = None

    def __post_init__(self):
        if self.value is not None and not 0.0 < self.value < np.inf:
            raise ValueError("tolerance value must be finite and positive")

    def resolve(self, shape: tuple[int, int], sigma_max):
        """The cutoff against reference sigma_max (an array gives one each),
        never below the default max(shape) * eps * sigma_max."""
        floor = max(shape) * _EPS * sigma_max
        return floor if self.value is None else np.maximum(self.value, floor)


DEFAULT_TOL = RankTolerance()


def numerical_rank(m, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Number of singular values of the 2-D float array m above the
    resolved cutoff.  Zero matrix -> 0."""
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int((s > tol.resolve(m.shape, s[0])).sum())
