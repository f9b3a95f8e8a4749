"""Shared helpers of the benchmark: seeds, samples, failure ledger, host facts."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
import zlib

import numpy as np


def derive_seed(seed: int, tag: str) -> int:
    """Independent, reproducible generator seed for one input of a workload."""
    sequence = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(sequence.generate_state(1)[0])


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, tag))


def median(values) -> "float | None":
    return float(statistics.median(values)) if len(values) else None


def percentile(values, q: float) -> "float | None":
    """The ``q``-th percentile, or ``None`` unless ten samples lie beyond it."""
    if len(values) * (100.0 - q) / 100.0 < 10.0:
        return None
    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relative_errors(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return np.abs(values - reference) / np.abs(reference)


def uniform_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` uniformly random node pairs with distinct endpoints."""
    first = rng.integers(0, n, size=count)
    second = (first + rng.integers(1, n, size=count)) % n
    return np.column_stack((first, second))


def host_info() -> dict:
    import numpy
    import scipy

    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "cpus": os.cpu_count(),
        "ram_gb": round(ram / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class HostReference:
    """A fixed computation that shares no code with ``repro``, read right
    after every timed sample to measure how fast the host is running then.

    The benchmark's host is shared: its speed drifts by up to 2x, over
    seconds and over minutes, for every program on it alike, but not for
    every kind of work alike: interpreted Python slows down more than numpy
    and scipy kernels do.  So a reading has two timed parts, on working
    sets larger than the core's own caches: ``interpreted``, a pure-Python
    breadth-first search like an ordering's, and ``native``, a numpy sort
    and random gathers and a scipy sparse product.  A sample scaled by one
    part (or ``both``) of the readings taken just before and just after it
    is the time it would have taken on a host on which that part takes
    ``NOMINAL_S``.  A change to ``repro`` moves the sample and leaves the
    readings alone.
    """

    NOMINAL_S = {"interpreted": 0.01, "native": 0.01, "both": 0.02}

    def __init__(self):
        import scipy.sparse

        rng = np.random.default_rng(0)
        side = 100
        nodes = np.arange(side * side).reshape(side, side)
        self._neighbours = [[] for _ in range(side * side)]
        for a, b in [*zip(nodes[:, :-1].ravel(), nodes[:, 1:].ravel()),
                     *zip(nodes[:-1].ravel(), nodes[1:].ravel())]:
            self._neighbours[a].append(int(b))
            self._neighbours[b].append(int(a))
        self._values = rng.random(1_000_000)
        self._index = rng.integers(0, 1_000_000, size=(100_000, 2))
        entries = rng.integers(0, 30_000, size=(2, 60_000))
        self._matrix = scipy.sparse.csr_matrix(
            (rng.random(60_000), (entries[0], entries[1])), shape=(30_000, 30_000)
        )
        self._vector = rng.random(30_000)
        self.readings: "list[dict[str, float]]" = []
        self.read()

    def read(self) -> None:
        """Time one pass of the reference computation and keep the reading."""
        start = time.perf_counter()
        for source in (0, 5050):
            depth = {source: 0}
            frontier = [source]
            while frontier:
                following = []
                for v in frontier:
                    for w in self._neighbours[v]:
                        if w not in depth:
                            depth[w] = depth[v] + 1
                            following.append(w)
                frontier = following
        middle = time.perf_counter()
        np.sort(self._values[:100_000])
        gathered = self._values[self._index[:, 0]] - self._values[self._index[:, 1]]
        np.abs(gathered).sum()
        (self._matrix @ self._matrix.T) @ self._vector
        end = time.perf_counter()
        self.readings.append(
            {"interpreted": middle - start, "native": end - middle, "both": end - start}
        )

    def scale(self, seconds: float, part: str) -> float:
        """Read the reference now and scale ``seconds``, just measured, by
        the mean of ``part`` of this reading and the one before it."""
        before = self.readings[-1][part]
        self.read()
        return seconds * 2.0 * self.NOMINAL_S[part] / (before + self.readings[-1][part])

    def median_ms(self) -> "dict[str, float]":
        return {
            part: 1e3 * statistics.median(r[part] for r in self.readings)
            for part in self.NOMINAL_S
        }


def run_window(seconds: float, min_cycles: int, cycle) -> int:
    """Call ``cycle(i)`` until ``seconds`` have passed and at least
    ``min_cycles`` cycles ran; return the number of cycles."""
    start = time.perf_counter()
    count = 0
    while count < min_cycles or time.perf_counter() - start < seconds:
        cycle(count)
        count += 1
    return count


class Ledger:
    """Operations attempted and failed, correctness checks and samples."""

    def __init__(self, reference: "HostReference | None" = None, bound=None):
        self.reference = reference
        # which part of a reference reading scales each sample series
        self.bound: "dict[str, str]" = bound or {}
        self.attempted = 0
        self.failures: "list[str]" = []
        self.checks: "dict[str, bool]" = {}
        self.samples: "dict[str, list[float]]" = {}
        self.scaled: "dict[str, list[float]]" = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, what: str, fn, *args, **kwargs):
        """Attempt one operation; a raised exception counts as a failure
        and returns ``None``."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failed operation must be counted
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, reason: str) -> None:
        """Record a failed operation that did not raise (a wrong answer)."""
        self.failures.append(reason)

    def check(self, name: str, passed: bool) -> None:
        """Record a correctness gate; once failed it stays failed."""
        self.checks[name] = bool(passed) and self.checks.get(name, True)

    def sample(self, name: str, value: float) -> None:
        """Record one sample and, with a host reference, the sample scaled
        to the reference host."""
        self.samples.setdefault(name, []).append(float(value))
        if self.reference is not None:
            part = self.bound.get(name, "both")
            self.scaled.setdefault(name, []).append(self.reference.scale(value, part))

    def count_nonfinite(self, what: str, values: np.ndarray) -> bool:
        """Answers for pairs in one component must all be finite; return
        whether they are."""
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            self.fail(f"{what}: {bad} non-finite answers")
        return not bad

    @property
    def correct(self) -> bool:
        return not self.failures and all(self.checks.values())
