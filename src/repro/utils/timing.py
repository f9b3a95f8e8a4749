"""Wall-clock timing helpers used by the benchmark harness and pipelines.

The paper reports wall-clock times for every stage (incomplete Cholesky,
approximate inverse, query evaluation, reduction, transient analysis).  The
``Timer`` context manager gives a uniform way to collect those stage timings
into a dictionary that the reporting code can print next to the paper's
numbers.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Accumulate named wall-clock timings.

    Accumulation is lock-protected, so engines queried from several
    threads (the serving layer's executor fan-out) never lose an
    increment; overlapping sections still *sum* their wall-clock, so a
    section worked by k threads at once counts k-fold.

    Example
    -------
    >>> t = Timer()
    >>> with t.section("factorize"):
    ...     pass
    >>> "factorize" in t.times
    True
    """

    times: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @contextmanager
    def section(self, name: str):
        """Time a ``with`` block and accumulate under ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` measured elsewhere under ``name``."""
        with self._lock:
            self.times[name] = self.times.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        """Sum of all recorded sections in seconds."""
        with self._lock:
            return sum(self.times.values())

    def __getitem__(self, name: str) -> float:
        with self._lock:
            return self.times[name]

    def report(self) -> str:
        """Render timings as aligned ``name: seconds`` lines."""
        with self._lock:  # one consistent snapshot; total matches the rows
            times = dict(self.times)
        if not times:
            return "(no timings recorded)"
        width = max(len(k) for k in times)
        lines = [f"{k.ljust(width)} : {v:10.4f} s" for k, v in times.items()]
        lines.append(f"{'total'.ljust(width)} : {sum(times.values()):10.4f} s")
        return "\n".join(lines)


@contextmanager
def timed():
    """Yield a zero-argument callable returning elapsed seconds so far.

    >>> with timed() as elapsed:
    ...     _ = sum(range(10))
    >>> elapsed() >= 0.0
    True
    """
    start = time.perf_counter()
    yield lambda: time.perf_counter() - start
