"""Uniformly sampled time series."""
from __future__ import annotations

import numpy as np

from .errors import DomainError, Record, real_number


class TimeSeries(Record, hidden=("samples",)):
    """Uniform samples: t_k = t0 + k*dt.  t0, dt > 0 and the samples are numbers,
    not text; dt and the samples are finite, the samples read-only."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        t0, dt = real_number(self.t0, "t0"), real_number(self.dt, "dt")
        if not np.isfinite(dt) or dt <= 0:
            raise DomainError(f"dt must be positive and finite, got {self.dt!r}")
        try:
            if np.asarray(self.samples).dtype.kind in "SU":  # numpy would parse "1.5"
                raise TypeError
            arr = np.array(self.samples, dtype=float, copy=True)
        except (TypeError, ValueError):
            raise DomainError("samples must be numbers") from None
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("samples must all be finite")
        arr.flags.writeable = False
        self.__dict__.update(t0=t0, dt=dt, samples=arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def duration(self) -> float:
        return self.dt * (self.samples.size - 1)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def with_samples(self, samples) -> "TimeSeries":
        return TimeSeries(self.t0, self.dt, samples)


def seeded_rng(seed: int) -> np.random.Generator:
    """The one pseudo-random source used for synthetic data; always seeded."""
    return np.random.default_rng(seed)
