"""The slot loop, written once and compiled two ways.

The recurrence over (q, z) cannot be vectorized, so the loop is the hot
kernel of every run. It takes any indexable sequences for its market and
output columns: the plain-Python backend is handed lists (indexing a list
is far cheaper than reading a numpy scalar), numba's njit is handed
arrays. All randomness is drawn before the loop, so both backends produce
bit-identical traces. Selection:

    LEASESIM_BACKEND=auto    njit when numba is importable (default)
    LEASESIM_BACKEND=numba   require njit
    LEASESIM_BACKEND=python  force the plain loop

The decision expressions below must stay textually in sync with
policies.decide; tests enforce agreement on randomized inputs.
"""
from __future__ import annotations

import os

from .core import ConfigError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba present in the dev env
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda func: func


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


def _slot_loop(
    q0,
    z0,
    t0,
    freeze_z,
    arrival,
    price_ris,
    price_spectrum,
    avail_ris,
    avail_spectrum,
    policy_code,
    period_k,
    price_cutoff,
    queue_cutoff,
    v,
    eps_d,
    exp_price_ris,
    exp_price_spectrum,
    q_before,
    z_before,
    x_desired,
    y_desired,
    x_effective,
    y_effective,
    r_out,
    cost,
    q_after,
    z_after,
):
    q = q0
    z = z0
    n = len(arrival)
    for i in range(n):
        q = q + arrival[i]  # arrival joins before the policy looks
        t = t0 + i
        qb = q
        zb = z
        p = price_ris[i]
        s = price_spectrum[i]

        if policy_code == 0:  # threshold rule on expected prices
            want = qb + zb > v * (exp_price_ris + exp_price_spectrum)
        elif policy_code == 1:  # exact argmin, expected prices
            want = qb + eps_d * zb > v * (exp_price_ris + exp_price_spectrum)
        elif policy_code == 2:  # periodic cadence
            want = t % period_k == 0 and qb > 0.0
        elif policy_code == 3:  # greedy
            want = qb > 0.0
        elif policy_code == 4:  # price_only
            want = p + s <= price_cutoff and qb > 0.0
        elif policy_code == 5:  # queue_threshold
            want = qb >= queue_cutoff
        else:  # myopic: exact argmin, realized prices
            want = qb + eps_d * zb > v * (p + s)

        xd = 1 if want else 0
        yd = xd
        both_avail = avail_ris[i] == 1 and avail_spectrum[i] == 1
        xe = xd if both_avail else 0  # atomic mask: all or nothing
        ye = yd if both_avail else 0
        r = xe * ye
        c = xe * p + ye * s

        eff_eps = eps_d
        if freeze_z and qb == 0.0:
            eff_eps = 0.0
        qn = max(qb - r, 0.0)
        zn = max(zb - r + eff_eps * (1 - r), 0.0)

        q_before[i] = qb
        z_before[i] = zb
        x_desired[i] = xd
        y_desired[i] = yd
        x_effective[i] = xe
        y_effective[i] = ye
        r_out[i] = r
        cost[i] = c
        q_after[i] = qn
        z_after[i] = zn

        q = qn
        z = zn


_slot_loop_njit = njit(cache=True)(_slot_loop) if HAVE_NUMBA else None


def resolve_backend(name: str | None = None) -> str:
    """Map the env flag (or an explicit name) to 'numba' or 'python'."""
    choice = (name if name is not None else os.environ.get(ENV_VAR, "auto")).lower()
    if choice in ("", "auto"):
        return "numba" if HAVE_NUMBA else "python"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise ConfigError("LEASESIM_BACKEND=numba but numba is not importable")
        return "numba"
    if choice == "python":
        return "python"
    raise ConfigError(f"unknown backend {choice!r}; expected auto, numba, or python")


def get_loop(backend: str | None = None):
    """Return the slot-loop callable for the selected backend."""
    if resolve_backend(backend) == "numba":
        return _slot_loop_njit
    return _slot_loop
