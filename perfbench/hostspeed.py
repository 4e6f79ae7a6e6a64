"""Host-speed sampling, so that a command's time can be given at a fixed host speed.

The benchmark runs on a few vCPUs of a host shared with other tenants. Their
load slows every instruction of the benchmark, by up to a factor of two, for
stretches from under a second to minutes; CPU time grows with wall time, so
this is contention for the core, not waiting for it. Plain command times then
spread by 20-35% between runs of the same code.

A ``Sampler`` measures the host's speed inside the measured process: a
real-time interval timer interrupts it every ``interval`` seconds, and the
handler times ``burst()``, a fixed piece of numpy work of the kind stochwave
does (8-point FFTs with Python glue, one 64x64 FFT). The host speed over an
interval is ``REFERENCE_BURST_S`` divided by that burst's time, and

    rescale(elapsed, bursts) = (elapsed - sum(bursts)) * mean(REFERENCE_BURST_S / bursts)

is the process's work in seconds at the reference speed: each interval adds
its length times the speed measured in it, and the bursts' own time is taken
out. ``REFERENCE_BURST_S`` is the burst's time when the host is idle
(Intel Xeon at 2.0 GHz, numpy 2.4), so a rescaled time reads as the time the
command takes on an idle host.

Run as a script, it runs one stochwave CLI command in this process under a
sampler and writes the burst times as JSON:

    python3 perfbench/hostspeed.py BURSTS.json converge --config cfg.json --out DIR
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

REFERENCE_BURST_S = 5.0e-4
INTERVAL_S = 0.05

_X = np.exp(1j * np.arange(8.0))
_PHASE = np.exp(-0.1j * np.arange(8.0))
_GRID = np.exp(1j * np.arange(4096.0)).reshape(64, 64)


def burst() -> float:
    """Time one fixed piece of work; its result is discarded."""
    start = time.perf_counter()
    for _ in range(20):
        z = np.fft.ifft(np.fft.fft(_X) * _PHASE) + 0.5 * _X
        float(np.vdot(z, z).real)
    np.fft.ifft2(np.fft.fft2(_GRID) * 0.5)
    return time.perf_counter() - start


class Sampler:
    """Times a burst now and then every ``interval`` seconds until ``stop``."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.bursts: list[float] = []

    def _sample(self, *_):
        self.bursts.append(burst())

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()   # at least one sample, however short the work
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.bursts


def rescale(elapsed: float, bursts: list[float]) -> float:
    """ELAPSED seconds, bursts taken out, at the reference host speed."""
    speed = sum(REFERENCE_BURST_S / b for b in bursts) / len(bursts)
    return (elapsed - sum(bursts)) * speed


def main(argv: list[str]) -> int:
    bursts_path, cli_args = argv[0], argv[1:]
    sampler = Sampler().start()
    try:
        import stochwave.cli as cli

        code = cli.main(cli_args)
    finally:
        bursts = sampler.stop()
        with open(bursts_path, "w") as fh:
            json.dump({"bursts": bursts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
