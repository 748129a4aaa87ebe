"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared machine, other tenants slow everything in this process by up to
2x, for seconds to minutes at a time. They slow code with a large working set
more than code that stays in the core's own caches. This loop does both kinds
of work basm does, in about equal time: a tree walk dispatched on
`isinstance` over a small state, and copies of a dict of 20 000 entries with
scattered lookups and rendering. So it slows down by about the same factor as
the benchmark's units. The benchmark times it next to every unit of work and
scales the unit's times by `REFERENCE_S / loop time`. The result is in
*reference seconds*: the time the unit would take on a machine that runs the
loop in `REFERENCE_S`.

The loop uses no basm code, so no change to basm can move it.
"""
from __future__ import annotations

import random
from time import perf_counter

# The loop's time on a quiet 2-vCPU x86_64 VM with Python 3.11.7, so that
# reference seconds there read about as plain seconds.
REFERENCE_S = 0.038
SMALL_ROUNDS = 100
LARGE_ROUNDS = 8
LOOKUPS = 2_000


class Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _build(depth: int, i: int):
    if depth == 0:
        return Var(i % 16) if i % 3 else Lit(i)
    return Bin(i % 3, _build(depth - 1, 2 * i + 1), _build(depth - 1, 2 * i + 2))


def _eval(term, env: dict) -> int:
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Var):
        return env[term.name]
    a, b = _eval(term.left, env), _eval(term.right, env)
    if term.op == 0:
        return (a + b) % 1_000_003
    if term.op == 1:
        return (a * b) % 1_000_003
    return abs(a - b)


_TREE = _build(8, 0)
_TABLE = {("cell", (i,)): 7 * i for i in range(20_000)}
_KEYS = list(_TABLE)
random.Random(0).shuffle(_KEYS)


def loop_s() -> float:
    """Seconds the fixed loop takes now: the faster of two passes, so that a
    one-off stall such as a page fault on fresh memory does not count."""
    return min(_pass_s(), _pass_s())


def _pass_s() -> float:
    start = perf_counter()
    env = {k: 7 * k + 1 for k in range(16)}
    small = {(k,): k for k in range(400)}
    for r in range(SMALL_ROUNDS):
        value = _eval(_TREE, env)
        env = dict(env)
        env[r % 16] = value
        small = dict(small)
        small[(r % 400,)] = value
        sorted(small, key=repr)
    table = _TABLE
    for r in range(LARGE_ROUNDS):
        table = dict(table)
        total = 0
        for key in _KEYS[r * LOOKUPS:(r + 1) * LOOKUPS]:
            total += table[key]
        table[_KEYS[r]] = total
        "\n".join([f"{name}({args[0]}) := {value}"
                   for (name, args), value in list(table.items())[:3_000]])
    return perf_counter() - start
