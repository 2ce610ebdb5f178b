"""Run configuration, exit codes and `Validated`; imports no numpy."""

from __future__ import annotations

from typing import NamedTuple

# Calibrated mean density ratio (overridable via `calibrate`) and the
# truncation bound of every Euler product.
DEFAULT_H_C = 1.325067
DEFAULT_EULER_PMAX = 10**6

# Exit codes (shared with the CLI): all good / invariant violated /
# reference-value mismatches only.
EXIT_OK = 0
EXIT_INVARIANT_FAILURE = 2
EXIT_REFERENCE_MISMATCH = 3


class Validated:
    """NamedTuple mixin: building, `_make` and `_replace` run `_validate`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, iterable):  # NamedTuple's (and _replace) skip __new__
        return cls(*iterable)


class _RunConfigFields(NamedTuple):
    limit: int = 10**6
    checkpoints: tuple[int, ...] | None = None  # None: table's reference xs
    h_c: float = DEFAULT_H_C
    euler_pmax: int = DEFAULT_EULER_PMAX
    strict_paper: bool = False
    threads: int = 1


class RunConfig(Validated, _RunConfigFields):
    """Everything a reproducible run depends on.

    limit bounds the points a run reads: the reference rows up to it, or
    the checkpoints.  The CLI counts at those points alone, sieving only
    as far as the largest.  h_c is the estimator's calibrated density
    ratio and euler_pmax the truncation bound of every Euler product.  The
    thread count never changes an output byte; it only tunes the count
    and the invariant suite.
    """

    __slots__ = ()

    def _validate(self):
        if self.limit < 5:
            raise ValueError(f"limit must be >= 5, got {self.limit}")
        if self.checkpoints is not None:
            xs = self.checkpoints
            bad = [x for x in xs if not 5 <= x <= self.limit]
            if bad:
                raise ValueError(
                    f"checkpoints outside [5, limit={self.limit}]: {bad}"
                )
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError(
                    f"checkpoints must be strictly increasing, got {list(xs)}"
                )
        if not 0 < self.h_c < float("inf"):
            raise ValueError(f"h_c must be positive and finite, got {self.h_c}")
        if self.euler_pmax < 100:
            raise ValueError(f"euler_pmax must be >= 100, got {self.euler_pmax}")
