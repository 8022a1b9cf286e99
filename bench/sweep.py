"""Scaling sweep: microseconds per call against input size, one series per layer.

Not part of the repeated benchmark runs. Each series varies one input
size with everything else fixed and reports the median of several timed
batches, plus the least-squares slope of log(time) against log(size), so
that complexity claims ("the oracle is cubic", "tables grow as |L|^|X|")
can cite measured numbers. Inputs are seeded and fixed.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time

import convalg
import workloads as W

BATCHES = 5
BATCH_SECONDS = 0.05


def per_call_us(fn):
    """Median microseconds per call over several batches of calls."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS / 4 or reps >= 1 << 16:
            break
        reps *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    return statistics.median(samples)


def slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else float("nan")


def conv_op_case(rng, size, lat):
    s = W.random_structure(rng, size)
    args = [convalg.random_map(rng, lat, s.carrier) for _ in range(2)]
    return lambda: convalg.conv_op(lat, s, "f", args)


def series(rng):
    chain = convalg.chain_lattice
    out = {}
    out["conv_op by carrier size (chain:2, 30% of tuples)"] = [
        (n, per_call_us(conv_op_case(rng, n, chain(2)))) for n in (2, 3, 4, 5, 6, 8)]
    out["conv_op by lattice size (carrier 3, chains)"] = [
        (k + 1, per_call_us(conv_op_case(rng, 3, chain(k)))) for k in (1, 2, 4, 8, 16)]
    opens = W.topologies_by_size(3)
    out["conv_op by lattice size (carrier 3, open sets of 3 points)"] = [
        (k, per_call_us(conv_op_case(rng, 3, convalg.open_set_heyting(opens[k][0]))))
        for k in (2, 3, 4, 5, 6, 8)]

    def rel_image_case(n):
        s = W.random_structure(rng, n)
        args = [frozenset(rng.sample(s.carrier, n // 2)) for _ in range(2)]
        return lambda: convalg.rel_image(s, "f", args)

    out["rel_image by carrier size (30% of tuples)"] = [
        (n, per_call_us(rel_image_case(n))) for n in (2, 4, 6, 8, 12)]

    def t2_case(interior):
        a = convalg.random_step(rng, max_denominator=997, max_interior=interior)
        b = convalg.random_step(rng, max_denominator=997, max_interior=interior)
        pieces = len(a.breakpoints) + len(b.breakpoints)
        return pieces, lambda: convalg.t2_join(a, b)

    rows = []
    for interior in (4, 8, 16, 32, 64):
        pieces, fn = t2_case(interior)
        rows.append((pieces, per_call_us(fn)))
    out["t2_join by breakpoints of both arguments"] = rows

    def oracle_case(n):
        a, b = (convalg.sample_to_grid(convalg.random_grid_step(rng, n), n) for _ in range(2))
        return lambda: convalg.grid_conv_oracle(n, "join", a, b)

    out["grid_conv_oracle join by grid size"] = [
        (n, per_call_us(oracle_case(n))) for n in (8, 16, 24, 32, 48)]

    def holds_case(size, lat):
        s = W.random_structure(rng, size)
        eq = W.PROBES[0]
        return lambda: convalg.holds_in(convalg.ConvolutionAlgebra(lat, s), eq)

    out["holds_in (f v w) = (f w v), fresh algebra, by element count"] = [
        ((k + 1) ** size, per_call_us(holds_case(size, chain(k))))
        for size, k in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))]
    return out


def main(out_dir):
    rng = random.Random("sweep")
    result = {}
    for name, points in series(rng).items():
        result[name] = {"points": points, "loglog_slope": slope(points)}
        print(f"{name}  (log-log slope {result[name]['loglog_slope']:.2f})")
        for size, us in points:
            print(f"  {size:>6}  {us:12.2f} us/call")
    path = out_dir / "sweep.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"record: {path.name} in {out_dir.name}/")
