"""The slot loop: one template, filled with each policy kind's wish.

The recurrence over (q, z) cannot be vectorized, so the loop is the hot
kernel of every run, and it does nothing else. It reads three market
columns, all computed by the caller before the loop:

    arrival       packets arriving in the slot, as floats
    joint_price   price_ris + price_spectrum
    joint_avail   1 where both avail flags equal 1, else 0

and returns the final (q, z). It stores nothing on an ordinary slot: a
wish to lease sets x_desired[i] (a bool), and a lease that takes a queue
x below zero stores -x, the operand that clamps it, into q_ops or z_ops.
From these simulator._cell_columns replays q_after and z_after with
np.cumsum. With float arrivals every queue update is float with float,
which CPython specializes; q + float(a) equals q + a bit for bit for any
int64 a, so step's int arrival gives the same queues. Both queues are
clamped at zero only after a lease: without one, q only gains an arrival
and z gains eps_d > 0 or nothing, so from q0, z0 >= 0 and arrivals >= 0
neither can go negative. The threshold of both dsf rules comes in as
ControlParams.threshold.

Each policy kind's wish is one expression, the second item of its row
in policies.POLICY_KINDS; _TEMPLATE is the loop around it.
get_loop((kind, freeze_z)), the one lookup, fills the template with the
kind's wish and the pair's accrual of z on first use, generates the loop
with exec and keeps it, so no slot tests the kind or freeze_z. A loop
takes the kind's one parameter, PolicySpec.param, as `param`, None for a
kind that takes none. policies.decide, written out below the table, is
the reference; tests hold every loop to it on randomized inputs.

step runs one slot through the pair's one-slot kernel, get_loop((kind,
freeze_z, True)): _SLOT_TEMPLATE filled with the same wish and accrual.
It takes the loop's first five arguments, `arrival` as a column of one
slot, then the slot's prices and flags and the loop's v, eps_d and
threshold, and returns step's result, the new QueueState and the slot's
SlotRecord, each stored into a new instance's __dict__ as core.builder
does. RECORD_RULE, the one record rule, is written once as source text:
the kernel runs it inline, and slot_values, which builds a trace's
columns, is generated from it.

The loop reads its columns as lists, since indexing a list is far
cheaper than reading a numpy scalar; it stores the wish into a zeroed
bytearray and the clamp operands through memoryviews of float64 arrays,
which the caller reads back after the loop. Only the PRICE_READING_KINDS,
derived from those rows as the kinds whose wish names joint_price, read
it, so where no cell of a market has one of them, the loop is handed
that array, unread, instead of a list.
"""
from __future__ import annotations

from textwrap import indent

from .core import QueueState
from .environment import COLUMN_RULES
from .policies import POLICY_KINDS

HAVE_NUMBA = False  # perfbench records it as numba_importable; leasesim never uses numba
ENV_VAR = "LEASESIM_BACKEND"  # perfbench records this variable; nothing in leasesim reads it

# the kinds whose wish reads joint_price; the others never index it
PRICE_READING_KINDS = frozenset(kind for kind, (_, want) in POLICY_KINDS.items() if "joint_price" in want)

# the loop of one (kind, freeze_z) pair; {want} is the kind's wish and
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
                continue
        z = z + {accrual}  # no lease: a wish that was blocked, or none
    return q, z
"""

# the one record rule: from a slot's index t, q_before (q after the
# arrival), z_before, its market values, joint_avail, and the wish
# x_desired (an int) and queues q_after, z_after the loop gave, it binds
# every other trace column's name to the column's value. Python numbers
# give one record's values, numpy columns a trace's, each value bit for
# bit the slot's own
RECORD_RULE = """\
y_desired = x_desired
x_effective = y_effective = r = x_desired & joint_avail
cost = r * price_ris + r * price_spectrum
"""

# a slot's values in trace column order, by RECORD_RULE
_SLOT_VALUES = f"""\
def slot_values(t, q_before, z_before, arrival, avail_ris, avail_spectrum, price_ris, price_spectrum,
                joint_avail, x_desired, q_after, z_after):
{indent(RECORD_RULE, "    ")}    return {", ".join(COLUMN_RULES)}
"""

# the one-slot kernel of one (kind, freeze_z) pair: the loop's body on slot 0,
# by the loop's own float operations, then RECORD_RULE; it returns the new
# QueueState and the slot's SlotRecord. The state came into step checked and
# the arrival is >= 0, so the queues stay >= 0 and QueueState's check, which
# every step would pay, is skipped
_SLOT_TEMPLATE = """\
def {name}(q0, z0, t0, param, arrival, price_ris, price_spectrum, avail_ris, avail_spectrum, v, eps_d, threshold):
    arrival = arrival[0]  # a column of one slot, as every loop takes it
    i = 0  # the slot's offset from t0, as the wish reads it
    joint_price = (price_ris + price_spectrum,)
    joint_avail = avail_ris & avail_spectrum
    t = t0
    q_before = q = q0 + arrival
    z_before = z = z0
    x_desired = 1 if {want} else 0
    if x_desired and joint_avail:
        q_after = 0.0 if q < 1.0 else q - 1.0
        z_after = 0.0 if z < 1.0 else z - 1.0
    else:
        q_after, z_after = q, z + {accrual}
{record_rule}
    state = new(QueueState)
    d = state.__dict__
    d["q"] = q_after
    d["z"] = z_after
    record = new(SlotRecord)
    d = record.__dict__
{stores}
    return state, record
"""

# per freeze_z, z's accrual without a lease; frozen, z + 0.0 on an empty queue
_ACCRUAL = {False: "eps_d", True: "(0.0 if q == 0.0 else eps_d)"}

# per get_loop key, the loop or one-slot kernel it generated
_LOOPS: dict = {}


def loop_source(kind: str, freeze_z: bool, one_slot: bool = False) -> tuple[str, str]:
    """The name and source of the loop of `kind`, or with `one_slot` its
    one-slot kernel, with z frozen on an empty queue when `freeze_z` is
    True: _TEMPLATE or _SLOT_TEMPLATE filled with the kind's wish."""
    template, name = (_SLOT_TEMPLATE, f"{kind}_slot") if one_slot else (_TEMPLATE, f"{kind}_loop")
    name = f"{name}_frozen" if freeze_z else name
    return name, template.format(
        name=name, want=POLICY_KINDS[kind][1], accrual=_ACCRUAL[freeze_z],
        record_rule=indent(RECORD_RULE.rstrip(), "    "),
        stores="\n".join(f'    d["{column}"] = {column}' for column in COLUMN_RULES),
    )


def _generate(name: str, source: str, **namespace):
    """The function `name` that `source` defines, run with exec in `namespace`."""
    exec(source, namespace)
    return namespace[name]


slot_values = _generate("slot_values", _SLOT_VALUES)


def get_loop(key):
    """The loop of `key`, a (policy kind, freeze_z) pair with freeze_z a
    bool, made once: z is frozen on an empty queue when freeze_z is True.
    A key (kind, freeze_z, True) gives the pair's one-slot kernel."""
    loop = _LOOPS.get(key)
    if loop is None:
        from .simulator import SlotRecord  # built from the trace schema by simulator, which imports this module
        name, source = loop_source(*key)
        loop = _LOOPS[key] = _generate(name, source, new=object.__new__, QueueState=QueueState, SlotRecord=SlotRecord)
    return loop


def resolve_backend() -> str:  # perfbench records what it returns as the backend
    return "python"
