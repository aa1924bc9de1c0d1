"""Timing helpers: one op in-process, percentiles, cold-start set-up time."""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

SETUP_ARGV = ["tableaux", "--N", "2", "--l", "1"]
# After the command, the child times the reference computation on the CPU
# it ran on and reports that time and the time its own report took, which
# the parent takes off the start-up time.
SETUP_CODE = (
    "import sys, time\n"
    "from qwebs.cli import main\n"
    f"rc = main({SETUP_ARGV!r})\n"
    "sys.stdout.flush()\n"
    "tail = time.perf_counter()\n"
    "from perfbench.measure import reference_work\n"
    "refs = []\n"
    "for _ in range(3):\n"
    "    t = time.perf_counter()\n"
    "    reference_work()\n"
    "    refs.append(time.perf_counter() - t)\n"
    "print(sorted(refs)[1], time.perf_counter() - tail, file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


# The reference computation takes about REFERENCE_S on the host where the
# benchmark was calibrated (2-vCPU VM, Python 3.11) at its fast speed.
REFERENCE_S = 0.00175
_SUBSETS = tuple(frozenset(j for j in range(8) if (i >> j) & 1) for i in range(256))


def reference_work(rounds: int = 80) -> int:
    """Fixed pure-Python work shaped like the program's kernels (dicts keyed by
    tuples of frozensets, small-integer arithmetic), independent of qwebs."""
    acc: dict = {}
    for r in range(rounds):
        for i in range(0, 256, 3):
            s, t = _SUBSETS[i], _SUBSETS[(i * 7 + r) % 256]
            if s & t:
                continue
            e = len(s) - len(t) + r
            acc[(s, t)] = acc.get((s, t), 0) + e * e
    return len(acc)


class SpeedProbe:
    """Tracks the host's speed by timing the reference computation.

    The host's speed swings by up to 1.8x over seconds to minutes (on a
    shared 2-vCPU VM the same op took 37 ms in one stretch and 70 ms in the
    next), which no median within one run removes.  The probe times the
    reference at every `mark` (between ops) and, while entered, every
    PERIOD_S from a SIGALRM handler, so long ops are sampled inside too.
    `seconds` then gives an interval at the reference speed: a run in a slow
    stretch of the host reads like one in a fast stretch, while a slower
    program still reads slower.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._old_handler = None

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_work()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def mark(self) -> None:
        self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def seconds(self, t0: float, t1: float) -> float:
        """[t0, t1] at the reference speed, less the samples taken inside it.

        The speed is REFERENCE_S over the reference time of the two samples
        before t0, those inside and the two after t1: their median when none
        falls inside (robust to one disturbed sample), else their mean (a
        long op may span a change of speed).
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        window = self.durations[max(0, lo - 2): hi + 2]
        if not window:
            raise ValueError("no speed samples around the interval")
        ref = statistics.mean(window) if inside else statistics.median(window)
        return (t1 - t0 - sum(inside)) * REFERENCE_S / ref


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n)) if n else 0


class Capture(io.StringIO):
    """Stdout of one op; with a tracer, each write is a `cli.emit` span."""

    def __init__(self, tracer=None):
        super().__init__()
        self._tracer = tracer

    def write(self, s: str) -> int:
        if self._tracer is None:
            return super().write(s)
        idx = self._tracer.open("cli.emit")
        try:
            return super().write(s)
        finally:
            self._tracer.close(idx)


def run_op(main, argv, caches, tracer=None):
    """Run one CLI command in-process from cold caches.

    Returns (start, end, exit code or None, stdout text, error text), with
    start and end read from time.perf_counter around the call.
    """
    for c in caches:
        c.cache_clear()
    gc.collect()
    out, err = Capture(tracer), io.StringIO()
    rc, error = None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the op failed; the run goes on and counts it
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return t0, t1, rc, out.getvalue(), error or err.getvalue().strip()


def setup_times(root: str, count: int) -> tuple[list[float], list[float], list[str]]:
    """Time `count` fresh interpreters that import qwebs and run one command.

    Returns the times at the reference speed, the raw times, and a list of
    problems with the outputs.
    """
    env = {k: v for k, v in os.environ.items() if k != "QWEBS_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    times, raw, problems = [], [], []
    for _ in range(count):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            problems.append("set-up command timed out")
            continue
        seconds = time.perf_counter() - t0
        try:
            ref, tail = map(float, proc.stderr.strip().splitlines()[-1].split())
            if proc.returncode != 0 or not json.loads(proc.stdout):
                raise ValueError(f"exit {proc.returncode}")
        except (ValueError, IndexError) as exc:
            problems.append(f"set-up command failed: {exc}: {proc.stderr[-200:]}")
            continue
        raw.append(seconds - tail)
        times.append((seconds - tail) * REFERENCE_S / ref)
    return times, raw, problems
