"""Output oracles that share no code with the program under test.

Each oracle recomputes a workload's result from the raw per-round edge
arrays with plain numpy (no CSR matrices, no engine, no protocol
classes), so a wrong answer from the program cannot be reproduced by
the oracle that checks it.  The engine's ``engine.*`` counters are
predicted from the same recomputation and must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EdgeSource = Callable[[int], tuple[np.ndarray, np.ndarray]]


def simple_edges(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected simple-graph edge set: each unordered pair once."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    low, high = np.minimum(u, v), np.maximum(u, v)
    # Pack each pair into one int64 (both endpoints are below 2**31) and
    # drop repeats after a sort; np.unique's hash path is ~7x slower here.
    keys = np.sort((low << 32) | high)
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys >> 32, keys & 0xFFFFFFFF


@dataclass(frozen=True)
class FloodTrace:
    """A flood's completion round and the traffic it generated."""

    rounds: int
    sent: int
    delivered: int


def flood_oracle(
    n: int, edges_at: EdgeSource, source: int, max_rounds: int
) -> FloodTrace:
    """Frontier flooding over ``edges_at(r)``: the round every node knows.

    A node sends in round ``r`` iff it was informed before ``r``; it
    receives one message per informed neighbour.
    """
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    sent = delivered = 0
    for round_no in range(max_rounds):
        u, v = simple_edges(*edges_at(round_no))
        from_u, from_v = informed[u], informed[v]
        sent += int(informed.sum())
        delivered += int(from_u.sum()) + int(from_v.sum())
        informed = informed.copy()
        informed[v[from_u]] = True
        informed[u[from_v]] = True
        if informed.all():
            return FloodTrace(round_no + 1, sent, delivered)
    raise AssertionError(f"flood did not complete within {max_rounds} rounds")


def flood_batch_counters(traces: Sequence[FloodTrace]) -> dict[str, int]:
    """The ``engine.*`` counters one ``flood_times_batch`` call must emit.

    Every lane executes its rounds up to and including the one that
    informs its last node; the fused loop runs until the slowest lane.
    """
    return {
        "engine.rounds": sum(t.rounds for t in traces),
        "engine.messages_sent": sum(t.sent for t in traces),
        "engine.messages_delivered": sum(t.delivered for t in traces),
        "engine.fast.fused_rounds": max(t.rounds for t in traces),
    }


@dataclass(frozen=True)
class PushSumTrace:
    """Leader estimate curves of a push-sum batch plus its traffic."""

    curves: np.ndarray  # shape (lanes, rounds)
    delivered: int


def pushsum_oracle(
    prefixes: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
    n: int,
    rounds: int,
    leader: int = 0,
) -> PushSumTrace:
    """Push-sum with the degree oracle over cycled edge prefixes.

    ``prefixes[lane][k]`` are lane ``lane``'s round-``k`` edges; round
    ``r`` uses entry ``r % len(prefix)``.  Each node splits its mass
    ``(x, w)`` into ``degree + 1`` equal shares, keeps one and sends one
    to every neighbour; the leader's estimate is ``x / w``.  All lanes
    are summed in one ``np.bincount`` per round over offset edge lists.
    """
    lanes = len(prefixes)
    period = len(prefixes[0])
    total = lanes * n
    stacked = []
    delivered_per_round = []
    for k in range(period):
        us, vs = [], []
        for lane, prefix in enumerate(prefixes):
            u, v = simple_edges(*prefix[k])
            us.append(u + lane * n)
            vs.append(v + lane * n)
        u, v = np.concatenate(us), np.concatenate(vs)
        shares = (
            np.bincount(u, minlength=total) + np.bincount(v, minlength=total) + 1.0
        )
        stacked.append((u, v, shares))
        delivered_per_round.append(2 * u.size)
    x = np.ones(total)
    w = np.zeros(total)
    leaders = np.arange(lanes) * n + leader
    w[leaders] = 1.0
    curves = np.empty((lanes, rounds))
    delivered = 0
    for round_no in range(rounds):
        u, v, shares = stacked[round_no % period]
        delivered += delivered_per_round[round_no % period]
        x_share, w_share = x / shares, w / shares
        x = (
            x_share
            + np.bincount(u, weights=x_share[v], minlength=total)
            + np.bincount(v, weights=x_share[u], minlength=total)
        )
        w = (
            w_share
            + np.bincount(u, weights=w_share[v], minlength=total)
            + np.bincount(v, weights=w_share[u], minlength=total)
        )
        with np.errstate(divide="ignore"):
            curves[:, round_no] = np.where(
                w[leaders] > 0, x[leaders] / w[leaders], np.inf
            )
    return PushSumTrace(curves, delivered)


def pushsum_batch_counters(
    trace: PushSumTrace, n: int
) -> dict[str, int]:
    """The ``engine.*`` counters one push-sum batch must emit."""
    lanes, rounds = trace.curves.shape
    return {
        "engine.rounds": lanes * rounds,
        "engine.messages_sent": lanes * n * rounds,
        "engine.messages_delivered": trace.delivered,
        "engine.fast.fused_rounds": rounds,
    }


def curve_errors(
    got: Sequence[Sequence[float]],
    expected: np.ndarray,
    n: int,
    *,
    rel_tol: float = 1e-9,
    final_tol: float = 1e-6,
) -> list[str]:
    """Where push-sum estimate curves disagree with the oracle's."""
    errors = []
    got_arr = np.asarray(got, dtype=np.float64)
    if got_arr.shape != expected.shape:
        return [f"curve shape {got_arr.shape} != oracle {expected.shape}"]
    finite = np.isfinite(expected)
    if not np.array_equal(finite, np.isfinite(got_arr)):
        errors.append("curves disagree on which rounds have a finite estimate")
    deviation = np.abs(got_arr[finite] - expected[finite]) / np.abs(
        expected[finite]
    )
    if deviation.size and deviation.max() > rel_tol:
        lane, round_no = np.argwhere(
            finite & (np.abs(got_arr - expected) > rel_tol * np.abs(expected))
        )[0]
        errors.append(
            f"lane {lane} round {round_no}: estimate {got_arr[lane, round_no]!r} "
            f"vs oracle {expected[lane, round_no]!r} "
            f"(max relative deviation {deviation.max():.3g})"
        )
    final = got_arr[:, -1]
    off = np.flatnonzero(~(np.abs(final - n) <= final_tol))
    if off.size:
        errors.append(
            f"lane {off[0]}: final estimate {final[off[0]]!r} is not within "
            f"{final_tol} of n={n}"
        )
    return errors


def theorem1_horizon(n: int) -> int:
    """``floor(log3(2n + 1)) - 1`` in exact integer arithmetic."""
    power, exponent = 1, 0
    while power * 3 <= 2 * n + 1:
        power *= 3
        exponent += 1
    return exponent - 1


def counting_errors(n: int, count: int, output_round: int) -> list[str]:
    """A counting run must output ``n`` and not before the horizon."""
    errors = []
    if count != n:
        errors.append(f"count {count} != n={n}")
    horizon = theorem1_horizon(n)
    if output_round < horizon:
        errors.append(
            f"output at round {output_round}, before the Theorem 1 "
            f"horizon {horizon}"
        )
    return errors


def counter_errors(
    got: dict[str, float], expected: dict[str, float]
) -> list[str]:
    """Exact comparison of ``engine.*`` counters."""
    return [
        f"{name} = {got.get(name, 0)!r}, expected {value!r}"
        for name, value in expected.items()
        if got.get(name, 0) != value
    ]
