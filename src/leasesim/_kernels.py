"""The slot loop: one rule table, one template, a loop per policy kind.

The recurrence over (q, z) cannot be vectorized, so the loop is the hot
kernel of every run, and it does nothing else. It reads three market
columns, all computed by the caller before the loop:

    arrival       packets arriving in the slot, as floats
    joint_price   price_ris + price_spectrum
    joint_avail   1 where both avail flags equal 1, else 0

and returns the final (q, z). It stores nothing on an ordinary slot: a
wish to lease sets x_desired[i] (a bool), and a lease that takes a queue
x below zero stores -x, the operand that clamps it, into q_ops or z_ops.
From these simulator._run_loop replays q_after and z_after with
np.cumsum. With float arrivals every queue update is float with float,
which CPython specializes; q + float(a) equals q + a bit for bit for any
int64 a, so step's int arrival gives the same queues. Both queues are
clamped at zero only after a lease: without one, q only gains an arrival
and z gains eps_d > 0 or nothing, so from q0, z0 >= 0 and arrivals >= 0
neither can go negative. The threshold of both dsf rules comes in as
ControlParams.threshold.

RULES holds each policy kind's decision as one expression; _TEMPLATE is
the loop around it. get_loop((kind, freeze_z)), the one lookup, fills
the template with the kind's rule and the pair's accrual of z on first
use, generates the loop with exec and keeps it, so no slot tests the
kind or freeze_z. A loop takes the kind's one parameter,
PolicySpec.param, as `param`, None for a kind that takes none.
The rules must stay in sync with policies.decide, which is written out
on its own; tests enforce agreement on randomized inputs.

The loop reads its columns as lists, since indexing a list is far
cheaper than reading a numpy scalar; it stores the wish into a zeroed
bytearray and the clamp operands through memoryviews of float64 arrays,
which the caller reads back after the loop. Only the PRICE_READING_KINDS,
whose rule names joint_price, read it, so where no cell of a market has
one of them, the loop is handed that array, unread, instead of a list.
"""
from __future__ import annotations

HAVE_NUMBA = False  # perfbench records it as numba_importable; leasesim never uses numba
ENV_VAR = "LEASESIM_BACKEND"  # perfbench records this variable; nothing in leasesim reads it

# one decision rule per policy kind: the wish, as an expression in the
# template's names (q is the backlog after the slot's arrival, i the
# slot's offset from t0); each must agree with policies.decide
RULES = {
    "dsf": "q + z > threshold",  # threshold rule on expected prices
    "dsf_exact_argmin": "q + eps_d * z > threshold",  # exact argmin, expected prices
    "periodic": "(t0 + i) % param == 0 and q > 0.0",  # periodic cadence
    "greedy": "q > 0.0",
    "price_only": "joint_price[i] <= param and q > 0.0",
    "queue_threshold": "q >= param",
    "myopic": "q + eps_d * z > v * joint_price[i]",  # exact argmin, realized prices
}

# the kinds whose rule reads joint_price; the others never index it
PRICE_READING_KINDS = frozenset(kind for kind, want in RULES.items() if "joint_price" in want)

# the loop of one (kind, freeze_z) pair; {want} is the kind's rule and
# {accrual} what z gains in a slot without a lease. Split on r, core's
# z - r + eps * (1 - r) is z - 1.0 with a lease and z + eps without one,
# the same IEEE results for any finite eps, which ControlParams guarantees.
# A lease takes a queue x below zero exactly when x < 1.0 (x is finite and
# >= 0), and x + (-x) is +0.0, so a clamp stores -x, the operand that
# replays it; every other slot stores nothing
_TEMPLATE = """\
def {name}(q0, z0, t0, param, arrival, joint_price, joint_avail, v, eps_d, threshold,
        x_desired, q_ops, z_ops):
    q = q0
    z = z0
    for i in range(len(arrival)):
        q = q + arrival[i]  # arrival joins before the policy looks
        if {want}:
            x_desired[i] = True  # the caller's zeroed buffer holds every other wish
            if joint_avail[i]:  # atomic mask: all or nothing, r = 1
                if q < 1.0:  # only a lease can take a queue below zero
                    q_ops[i] = -q
                    q = 0.0
                else:
                    q = q - 1.0
                if z < 1.0:
                    z_ops[i] = -z
                    z = 0.0
                else:
                    z = z - 1.0
            else:
                z = z + {accrual}
        else:
            z = z + {accrual}
    return q, z
"""

# per freeze_z, z's accrual without a lease; frozen, z + 0.0 on an empty queue
_ACCRUAL = {False: "eps_d", True: "(0.0 if q == 0.0 else eps_d)"}

# per (kind, freeze_z) key, the loop get_loop generated
_LOOPS: dict = {}


def loop_source(kind: str, freeze_z: bool) -> tuple[str, str]:
    """The name and source of the loop of `kind`, with z frozen on an empty
    queue when `freeze_z` is True: _TEMPLATE filled with the kind's rule."""
    name = f"{kind}_loop_frozen" if freeze_z else f"{kind}_loop"
    return name, _TEMPLATE.format(name=name, want=RULES[kind], accrual=_ACCRUAL[freeze_z])


def get_loop(key):
    """The loop of `key`, a (policy kind, freeze_z) pair with freeze_z a
    bool, made once: z is frozen on an empty queue when freeze_z is True."""
    loop = _LOOPS.get(key)
    if loop is None:
        name, source = loop_source(*key)
        namespace = {}
        exec(source, namespace)
        loop = _LOOPS[key] = namespace[name]
    return loop


def resolve_backend() -> str:  # perfbench records what it returns as the backend
    return "python"
