"""The slot loop, written once and compiled two ways.

The recurrence over (q, z) cannot be vectorized, so the loop is the hot
kernel of every run, and it does nothing else. It reads three market
columns, all computed by the caller before the loop:

    arrival       packets arriving in the slot, as floats
    joint_price   price_ris + price_spectrum
    joint_avail   1 where both avail flags equal 1, else 0

and writes three: x_desired (the policy's wish, stored as a bool),
q_after and z_after. With float arrivals every queue update is float
with float, which CPython specializes; q + float(a) equals q + a bit for
bit for any int64 a, so step's int arrival gives the same queues.
simulator._slot_values derives the other trace columns from these, r
(the joint lease) as x_desired & joint_avail. Both queues are clamped at
zero only after a lease: without one, q only gains an arrival and z
gains eps_d > 0 or nothing, so from q0, z0 >= 0 and arrivals >= 0
neither can go negative. The threshold of both dsf rules,
v * (expected_price_ris + expected_price_spectrum), comes in precomputed.

It takes any indexable sequences for its columns: the plain-Python
backend is handed lists to read (indexing a list is far cheaper than
reading a numpy scalar) and stores its float outputs through memoryviews
of their arrays; numba's njit is handed arrays. Only the
PRICE_READING_KINDS read joint_price, so where no cell of a market has
one of them, the python backend is handed that array, unread, instead
of a list. All randomness is drawn before the loop, so both backends
produce bit-identical traces. Only this variable selects, once per
market; step always runs the plain loop:

    LEASESIM_BACKEND=auto    njit when numba is importable (default)
    LEASESIM_BACKEND=numba   require njit
    LEASESIM_BACKEND=python  force the plain loop

The seven decision rules below are kept inline, so numba compiles the
same source, and must stay in sync with policies.decide; tests enforce
agreement on randomized inputs.
"""
from __future__ import annotations

import os

from .core import ConfigError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


ENV_VAR = "LEASESIM_BACKEND"

# integer codes keep the kernel free of string dispatch
POLICY_CODES = {
    "dsf": 0,
    "dsf_exact_argmin": 1,
    "periodic": 2,
    "greedy": 3,
    "price_only": 4,
    "queue_threshold": 5,
    "myopic": 6,
}

# the kinds whose rule reads joint_price; the others never index it
PRICE_READING_KINDS = frozenset({"price_only", "myopic"})


def _slot_loop(
    q0,
    z0,
    t0,
    freeze_z,
    arrival,
    joint_price,
    joint_avail,
    policy_code,
    period_k,
    price_cutoff,
    queue_cutoff,
    v,
    eps_d,
    threshold,
    x_desired,
    q_after,
    z_after,
):
    q = q0
    z = z0
    for i in range(len(arrival)):
        q = q + arrival[i]  # arrival joins before the policy looks

        if policy_code == 0:  # threshold rule on expected prices
            want = q + z > threshold
        elif policy_code == 1:  # exact argmin, expected prices
            want = q + eps_d * z > threshold
        elif policy_code == 2:  # periodic cadence
            want = (t0 + i) % period_k == 0 and q > 0.0
        elif policy_code == 3:  # greedy
            want = q > 0.0
        elif policy_code == 4:  # price_only
            want = joint_price[i] <= price_cutoff and q > 0.0
        elif policy_code == 5:  # queue_threshold
            want = q >= queue_cutoff
        else:  # myopic: exact argmin, realized prices
            want = q + eps_d * z > v * joint_price[i]

        # core's z - r + eps * (1 - r), split on r: the same IEEE result
        # for any finite eps, which ControlParams guarantees
        if want and joint_avail[i]:  # atomic mask: all or nothing, r = 1
            q = q - 1.0
            z = z - 1.0
            if q < 0.0:  # only a lease can take a queue below zero
                q = 0.0
            if z < 0.0:
                z = 0.0
        else:  # urgency accrues, unless frozen on an empty queue
            z = z + (0.0 if freeze_z and q == 0.0 else eps_d)

        x_desired[i] = want
        q_after[i] = q
        z_after[i] = z


_slot_loop_njit = njit(cache=True)(_slot_loop) if HAVE_NUMBA else None


def resolve_backend() -> str:
    """Map LEASESIM_BACKEND to 'numba' or 'python'."""
    choice = os.environ.get(ENV_VAR, "auto").lower()
    if choice in ("", "auto"):
        return "numba" if HAVE_NUMBA else "python"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise ConfigError(f"{ENV_VAR}=numba but numba is not importable")
        return "numba"
    if choice == "python":
        return "python"
    raise ConfigError(f"{ENV_VAR} must be auto, numba or python, got {choice!r}")


def get_loop(backend: str):
    """The slot-loop callable of `backend`, as resolve_backend() names it."""
    if backend == "numba":
        return _slot_loop_njit
    return _slot_loop
