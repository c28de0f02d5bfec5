"""Seeded REPRO001 violations (golden fixture — never imported)."""

import random
import time


def stamp():
    return time.time()  # line 8: banned wall-clock read


def jitter():
    return random.random()  # line 12: shared global RNG


def unseeded():
    return random.Random()  # line 16: RNG without explicit seed


def seeded_ok():
    return random.Random(42)  # fine: explicit seed


def annotated_ok():
    return time.perf_counter()  # repro: volatile telemetry only


def iterate_bad(values):
    total = 0
    for item in {1, 2, 3}:  # line 28: unordered set iteration
        total += item
    for item in set(values):  # line 30: unordered set iteration
        total += item
    for item in sorted(set(values)):  # fine: sorted
        total += item
    return total


def dated():
    return time.strftime("%Y")  # line 39: formats the current time
