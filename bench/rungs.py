"""Direct micro-rungs for two layers too hot to wrap in spans.

``rdb.codec`` and ``core.stats`` are called hundreds of times per request;
a span around each call would cost more than the call.  Their time shows up
inside their callers' self time, so these two loops time them directly,
through their public functions only.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.core.stats import StatsRegistry
from repro.rdb import codec

_FIELDS = 20_000
_REPEATS = 5


def codec_roundtrip_ns(seed: int) -> float:
    """Median ns to write and read back one field of a seeded mix of
    unsigned/signed varints, u32s, byte strings and text."""
    rng = random.Random(seed)
    writers = (
        (codec.write_uvarint, codec.read_uvarint,
         lambda: rng.randrange(1 << rng.choice((7, 14, 28, 56)))),
        (codec.write_svarint, codec.read_svarint,
         lambda: rng.randrange(-(1 << 30), 1 << 30)),
        (codec.write_u32, codec.read_u32, lambda: rng.randrange(1 << 32)),
        (codec.write_bytes, codec.read_bytes,
         lambda: rng.randbytes(rng.randrange(24))),
        (codec.write_str, codec.read_str,
         lambda: "".join(rng.choices("abcdefgh", k=rng.randrange(16)))),
    )
    fields = []
    for _ in range(_FIELDS):
        write, read, make = rng.choice(writers)
        fields.append((write, read, make()))
    timings = []
    for _ in range(_REPEATS):
        started = time.perf_counter_ns()
        buf = bytearray()
        for write, _read, value in fields:
            write(buf, value)
        data = bytes(buf)
        pos = 0
        back = []
        for _write, read, _value in fields:
            value, pos = read(data, pos)
            back.append(value)
        timings.append((time.perf_counter_ns() - started) / _FIELDS)
        if back != [value for _w, _r, value in fields]:
            raise AssertionError("codec round trip changed a field")
    return statistics.median(timings)


def stats_add_ns() -> float:
    """Median ns per ``StatsRegistry.add`` on a registered counter."""
    stats = StatsRegistry()
    timings = []
    for _ in range(_REPEATS):
        started = time.perf_counter_ns()
        for _ in range(_FIELDS):
            stats.add("btree.searches")
        timings.append((time.perf_counter_ns() - started) / _FIELDS)
    return statistics.median(timings)
