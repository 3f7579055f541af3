"""The slot loop: the generated loop of each policy kind, the buffers it
writes, and its agreement with policies.decide, core's recurrences and a
chain of step() calls, bit for bit.
"""
import ast
import inspect
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leasesim import _kernels, simulator
from leasesim.core import ControlParams, QueueState, advance_virtual_queue
from leasesim.environment import Realization, ScenarioConfig, draw_realization
from leasesim.policies import POLICY_KINDS, PolicyInput, decide, parse_policy
from leasesim.simulator import TRACE_COLUMNS, SlotRecord, Trace, _cell_columns, default_params, run, step

ALL_POLICIES = [
    "dsf",
    "dsf_exact_argmin",
    "periodic:3",
    "greedy",
    "price_only:8",
    "queue_threshold:5",
    "myopic",
]


def test_get_loop_python_is_uncompiled(monkeypatch):
    """A run calls the plain loop get_loop generated for its kind."""
    generated = _kernels.get_loop(("greedy", False))
    calls = []
    monkeypatch.setitem(_kernels._LOOPS, ("greedy", False), lambda *args: calls.append(args) or generated(*args))
    scenario = ScenarioConfig(horizon_slots=50, initial_backlog=2, seed=3)
    run(scenario, parse_policy("greedy"), default_params(scenario, v=1.0, eps_d=1.0))
    assert len(calls) == 1


@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_each_kind_loop_is_generated_once(monkeypatch, kind, freeze):
    """The first lookup of a (kind, freeze_z) pair generates its loop; a
    second lookup and a run get the same function object."""
    monkeypatch.setattr(_kernels, "_LOOPS", {})
    loop = _kernels.get_loop((kind, freeze))
    assert _kernels.get_loop((kind, freeze)) is loop
    assert loop is not _kernels.get_loop((kind, not freeze))
    scenario = ScenarioConfig(horizon_slots=20, seed=1, freeze_z_when_empty=freeze)
    label = next(label for label in ALL_POLICIES if label.partition(":")[0] == kind)
    run(scenario, parse_policy(label), default_params(scenario, v=1.0, eps_d=1.0))
    assert set(_kernels._LOOPS.values()) == {loop, _kernels.get_loop((kind, not freeze))}


@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_generated_loops_do_not_dispatch(kind, freeze):
    """A generated loop or one-slot kernel, dsf's among them, never reads
    the policy kind or freeze_z, so it cannot compare either on any slot:
    both are settled when the loop is chosen."""
    for key in ((kind, freeze), (kind, freeze, True)):
        code = _kernels.get_loop(key).__code__
        assert {"kind", "freeze_z"}.isdisjoint(code.co_varnames + code.co_names), key


@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_every_one_slot_kernel_takes_the_arrival_column_fifth(kind, freeze):
    """perfbench counts a loop call's slots from args[4], so step's one-slot
    kernel takes `arrival` fifth, as every loop does, after the loop's
    first four inputs; then the slot's prices and flags in place of the
    loop's joint columns, and the loop's v, eps_d and threshold, without
    its three buffers."""
    names = list(inspect.signature(simulator.get_loop((kind, freeze, True))).parameters)
    loop_names = list(inspect.signature(simulator.get_loop((kind, freeze))).parameters)
    assert names[4] == "arrival"
    assert names == loop_names[:5] + ["price_ris", "price_spectrum", "avail_ris", "avail_spectrum"] + loop_names[7:10]


def _branch_stores(tree):
    """Each subscript store in `tree`, as (target, value, the test of the
    innermost `if` whose body holds it, or None)."""
    stores = []

    def visit(node, test):
        if isinstance(node, ast.If):
            for child in node.body:
                visit(child, ast.unparse(node.test))
            for child in node.orelse:
                visit(child, test)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Subscript):
                        stores.append((ast.unparse(sub), ast.unparse(node.value), test))
        for child in ast.iter_child_nodes(node):
            visit(child, test)

    visit(tree, None)
    return stores


@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_generated_loops_store_only_wishes_and_clamps(kind, freeze):
    """A generated loop stores into a buffer only under the wish branch (the
    wish itself) or a clamp branch (the operand that replays the clamp), so
    an ordinary slot stores nothing; it calls nothing but range and len,
    so no per-slot append can stand in for a store either."""
    name, source = _kernels.loop_source(kind, freeze)
    tree = ast.parse(source)
    want = ast.unparse(ast.parse(POLICY_KINDS[kind][1]))
    assert _branch_stores(tree) == [
        ("x_desired[i]", "True", want),
        ("q_ops[i]", "-q", "q < 1.0"),
        ("z_ops[i]", "-z", "z < 1.0"),
    ]
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert calls == {"range", "len"}
    assert _kernels.get_loop((kind, freeze)).__name__ == name

    # step's one-slot kernel runs no loop; outside every branch, it stores
    # each field of the new state and then of the record once, each from
    # the local of the field's name, into an instance made by `new`
    name, source = _kernels.loop_source(kind, freeze, one_slot=True)
    tree = ast.parse(source)
    state_stores = [("d['q']", "q_after", None), ("d['z']", "z_after", None)]
    assert _branch_stores(tree) == state_stores + [(f"d[{column!r}]", column, None) for column in TRACE_COLUMNS]
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree))
    calls = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls == ["new(QueueState)", "new(SlotRecord)"]
    assert _kernels.get_loop((kind, freeze, True)).__name__ == name


@pytest.mark.parametrize("path", ["list", "step"])
def test_the_wish_buffer_reaches_the_loop_all_false(monkeypatch, path):
    """The loop stores only the wishes that are True, so runs hands it a
    wish buffer that holds False in every slot, a zeroed bytearray. step
    hands no buffer: the one-slot kernel it fetches through
    simulator.get_loop, which perfbench counts, gets `arrival` fifth as a
    1-tuple column, then the slot's prices and flags, and returns step's
    state and record."""
    wishes, kernel_calls = [], []

    def get_loop(key):
        def loop(*args):
            if path == "step":
                kernel_calls.append((key, args))
                return _kernels.get_loop(key)(*args)
            wish = args[10]
            assert type(wish) is bytearray
            wishes.append(list(wish))
            return _kernels.get_loop(("dsf", False))(*args)

        return loop

    monkeypatch.setattr(simulator, "get_loop", get_loop)
    scenario = ScenarioConfig(horizon_slots=100, initial_backlog=3, seed=6)
    dsf, params = parse_policy("dsf"), default_params(scenario, v=1.0, eps_d=1.0)
    if path == "step":
        realization, state = draw_realization(scenario), QueueState(3.0, 0.0)
        for i in range(3):
            state, _ = step(state, realization.observation(i), dsf, params, t=1 + i)
        assert len(kernel_calls) == 3
        for i, (key, args) in enumerate(kernel_calls):
            assert key == ("dsf", False, True) and len(args) == 12
            assert args[4:9] == (
                (realization.arrival.item(i),),
                realization.price_ris.item(i), realization.price_spectrum.item(i),
                realization.avail_ris.item(i), realization.avail_spectrum.item(i),
            )
    else:
        trace = run(scenario, dsf, params)
        assert trace.column("x_desired").any()
        [wish] = wishes
        assert len(wish) == len(trace)
        assert not any(any(wish) for wish in wishes)


def test_python_market_columns_hold_only_floats(monkeypatch):
    """The loop adds arrivals to the float q and compares joint prices
    with floats, so both lists it is handed hold floats, never ints."""
    calls = []

    def get_loop(key):
        def loop(*args):
            calls.append(args)
            return _kernels.get_loop(key)(*args)

        return loop

    monkeypatch.setattr(simulator, "get_loop", get_loop)
    realization = draw_realization(ScenarioConfig(horizon_slots=300, arrival_prob=0.5, seed=4))
    spec = parse_policy("myopic")  # a kind in PRICE_READING_KINDS, so the joint-price list is built
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    list(_cell_columns(realization, 0.0, 0.0, 1, False, [(spec, params)]))
    [args] = calls
    arrival, joint_price, _ = args[4:7]
    assert type(arrival) is list and type(joint_price) is list
    assert {type(value) for value in arrival} == {float}
    assert {type(value) for value in joint_price} == {float}
    assert arrival == realization.arrival.tolist()


def test_python_loop_stores_floats_through_memoryviews(monkeypatch):
    """The loop's last three arguments are a bytearray for the wish and
    memoryviews of the q_ops and z_ops arrays. Through them it stores only
    the wishes that are True and, for each lease that clamps a queue x, the
    operand -x; every other operand stays -1.0. It returns the final
    (q, z), which the replayed columns end on."""
    calls = []

    def loop(*args):
        result = _kernels.get_loop(("dsf", False))(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(simulator, "get_loop", lambda key: loop)
    scenario = ScenarioConfig(horizon_slots=200, initial_backlog=3, seed=8)
    trace = run(scenario, parse_policy("dsf"), default_params(scenario, v=0.05, eps_d=0.3))
    [(args, (q, z))] = calls
    wish, q_view, z_view = args[-3:]
    assert type(wish) is bytearray and list(wish) == trace.column("x_desired").tolist()
    assert type(q_view) is memoryview and type(z_view) is memoryview
    assert q_view.format == z_view.format == "d" and len(q_view) == len(z_view) == len(trace)

    leased = trace.column("r") == 1
    q_before, z_before = trace.column("q_before"), trace.column("z_before")
    q_clamps, z_clamps = leased & (q_before < 1.0), leased & (z_before < 1.0)
    assert q_clamps.any() and z_clamps.any() and (leased & ~q_clamps).any()
    q_ops, z_ops = np.asarray(q_view), np.asarray(z_view)
    assert q_ops.tobytes() == np.where(q_clamps, -q_before, -1.0).tobytes()
    assert z_ops.tobytes() == np.where(z_clamps, -z_before, -1.0).tobytes()

    assert type(q) is float and type(z) is float
    assert np.float64(q).tobytes() == trace.column("q_after")[-1].tobytes()
    assert np.float64(z).tobytes() == trace.column("z_after")[-1].tobytes()


@pytest.mark.parametrize("arrival", [2**53 + 1, 2**62], ids=["2**53+1", "2**62"])
def test_huge_arrivals_give_the_same_bytes_on_every_path(arrival):
    """q + float(a) is q + a bit for bit for any int64 a: with arrivals that
    a float cannot hold exactly, a run and a chain of step calls agree, and
    q_before is Python's q + arrival."""
    n = 5
    realization = Realization(
        arrival=np.array([arrival, 0, 1, arrival, 0], dtype=np.int64),
        price_ris=np.full(n, 2.0),
        price_spectrum=np.full(n, 3.0),
        avail_ris=np.array([1, 1, 0, 1, 1], dtype=np.int64),
        avail_spectrum=np.ones(n, dtype=np.int64),
    )
    spec = parse_policy("greedy")
    params = ControlParams(v=1.0, eps_d=1.0, expected_price_ris=5.5, expected_price_spectrum=5.5)
    [columns] = _cell_columns(realization, 0.5, 0.0, 1, False, [(spec, params)])
    trace = Trace(columns)
    state = QueueState(0.5, 0.0)
    for i in range(n):
        want_q_before = state.q + int(realization.arrival[i])
        state, record = step(state, realization.observation(i), spec, params, t=1 + i)
        assert record == trace.record(i), i
        assert np.float64(record.q_before).tobytes() == np.float64(want_q_before).tobytes(), i
        assert columns["q_before"][i].tobytes() == np.float64(want_q_before).tobytes(), i


def assert_core_recurrence(trace, eps_d, freeze):
    """Slot by slot, the trace's queues are exactly core's recurrences.

    q_after is max(q_before - r, 0) and z_after is
    advance_virtual_queue(z_before, r, eps), with eps zeroed on an empty
    queue when z is frozen; compared bit for bit.
    """
    q_before, z_before, r = (trace.column(name).tolist() for name in ("q_before", "z_before", "r"))
    want_q, want_z = [], []
    for qb, zb, served in zip(q_before, z_before, r):
        eps = 0.0 if freeze and qb == 0.0 else eps_d
        want_q.append(max(qb - served, 0.0))
        want_z.append(advance_virtual_queue(zb, served, eps))
    assert np.array(want_q).tobytes() == trace.column("q_after").tobytes()
    assert np.array(want_z).tobytes() == trace.column("z_after").tobytes()


@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_loop_follows_core_recurrence(policy, freeze):
    scenario = ScenarioConfig(
        horizon_slots=600, initial_backlog=2, seed=29, freeze_z_when_empty=freeze
    )
    params = default_params(scenario, v=3.0, eps_d=0.7)
    trace = run(scenario, parse_policy(policy), params)
    assert_core_recurrence(trace, params.eps_d, freeze)


def test_kernel_matches_decide_slot_by_slot():
    """The vectorized loop must reproduce the scalar decide() verdicts.

    Walk a real trace and re-derive each slot's desired decision from the
    recorded pre-queue state and market draw.
    """
    scenario = ScenarioConfig(horizon_slots=400, initial_backlog=1, seed=3)
    realization = draw_realization(scenario)
    params = default_params(scenario, v=5.0, eps_d=1.0)
    for label in ALL_POLICIES:
        spec = parse_policy(label)
        trace = run(scenario, spec, params)
        slot = trace.column("t")
        for i in range(len(trace)):
            obs = realization.observation(i)
            inp = PolicyInput(
                state=QueueState(trace.column("q_before")[i], trace.column("z_before")[i]),
                slot_index=int(slot[i]),
                realized_price_ris=obs.price_ris,
                realized_price_spectrum=obs.price_spectrum,
                params=params,
            )
            want = decide(spec, inp)
            assert trace.column("x_desired")[i] == want.x, (label, i)
            assert trace.column("y_desired")[i] == want.y, (label, i)


def test_loop_outputs_match_loop_dtypes(monkeypatch):
    """The loop's trailing arguments, after `threshold`, are the buffers it
    writes: the wish and the clamp operands of q and z. runs hands them in
    as a zeroed bytearray and memoryviews of float64 arrays filled with
    -1.0, and gets the final (q, z) back as a tuple."""
    names = list(inspect.signature(_kernels.get_loop(("myopic", False))).parameters)
    outputs = names[names.index("threshold") + 1:]
    assert outputs == ["x_desired", "q_ops", "z_ops"]

    calls = []

    def loop(*args):
        buffers = [bytes(buffer) for buffer in args[-3:]]  # as handed in, before the loop writes
        result = _kernels.get_loop(("myopic", False))(*args)
        calls.append((args[-3:], buffers, result))
        return result

    monkeypatch.setattr(simulator, "get_loop", lambda key: loop)
    scenario = ScenarioConfig(horizon_slots=150, initial_backlog=2, seed=8)
    trace = run(scenario, parse_policy("myopic"), default_params(scenario, v=2.0, eps_d=0.5))
    [((wish, q_view, z_view), buffers, result)] = calls
    assert type(wish) is bytearray and type(q_view) is memoryview and type(z_view) is memoryview
    assert q_view.format == z_view.format == "d"
    assert buffers == [bytes(len(trace)), np.full(len(trace), -1.0).tobytes(), np.full(len(trace), -1.0).tobytes()]
    assert type(result) is tuple and len(result) == 2
    assert list(result) == [trace.column("q_after")[-1], trace.column("z_after")[-1]]


# flags: 0 or 1, the only values run's drawn market and step's checked
# observation hand the loop; 1 is drawn twice as often, so leases, and
# the clamps after them, are common
flags = st.sampled_from([1, 0, 1])
market_slots = st.tuples(
    st.integers(0, 2),  # arrival
    st.floats(0.0, 20.0),  # price_ris
    st.floats(0.0, 20.0),  # price_spectrum
    flags,  # avail_ris
    flags,  # avail_spectrum
)
FREE_LEASE = [(0, 1.0, 1.0, 1, 1)]


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(ALL_POLICIES),
    freeze=st.booleans(),
    slots=st.lists(market_slots, min_size=1, max_size=12),
    q0=st.floats(0.0, 4.0),
    z0=st.floats(0.0, 40.0),
    t0=st.integers(1, 10**6),
    v=st.floats(0.1, 4.0),
    eps_d=st.floats(0.1, 3.0),
)
# a lease that both clamps cut back, and a lease on an empty queue
@example(label="greedy", freeze=False, slots=FREE_LEASE, q0=0.25, z0=0.5, t0=1, v=1.0, eps_d=1.0)
@example(label="dsf", freeze=True, slots=FREE_LEASE, q0=0.0, z0=30.0, t0=1, v=0.1, eps_d=1.0)
# idle leases, each a q clamp of 0.0, while z only falls
@example(label="dsf", freeze=False, slots=FREE_LEASE * 3, q0=0.0, z0=30.0, t0=1, v=0.1, eps_d=1.0)
# a lease with z in (0, 1): z clamps, q does not
@example(label="greedy", freeze=False, slots=FREE_LEASE, q0=3.0, z0=0.75, t0=1, v=1.0, eps_d=1.0)
# a fractional q0 that clamps on the second lease
@example(label="greedy", freeze=False, slots=FREE_LEASE * 2, q0=1.5, z0=0.0, t0=1, v=1.0, eps_d=0.5)
# a frozen run: accrual, a blocked wish, a lease to zero, an empty slot that
# keeps z, then a blocked wish on new arrivals
@example(
    label="dsf", freeze=True, q0=0.0, z0=0.0, t0=1, v=0.1, eps_d=0.5,
    slots=[(1, 1.0, 1.0, 1, 1), (0, 1.0, 1.0, 0, 1), (0, 1.0, 1.0, 1, 1), (0, 1.0, 1.0, 1, 1), (2, 1.0, 1.0, 1, 0)],
)
def test_kernel_contract(label, freeze, slots, q0, z0, t0, v, eps_d):
    """On any short market and start: r is the wish masked by both flags
    and is the lease the loop took, both queues stay >= 0, and the trace
    is a chain of step records."""
    arrival, price_ris, price_spectrum, avail_ris, avail_spectrum = zip(*slots)
    realization = Realization(
        arrival=np.array(arrival, dtype=np.int64),
        price_ris=np.array(price_ris),
        price_spectrum=np.array(price_spectrum),
        avail_ris=np.array(avail_ris, dtype=np.int64),
        avail_spectrum=np.array(avail_spectrum, dtype=np.int64),
    )
    spec = parse_policy(label)
    params = ControlParams(v=v, eps_d=eps_d, expected_price_ris=5.5, expected_price_spectrum=5.5)
    [columns] = _cell_columns(realization, q0, z0, t0, freeze, [(spec, params)])

    joint = (realization.avail_ris == 1) & (realization.avail_spectrum == 1)
    assert columns["r"].dtype == columns["x_desired"].dtype == np.int64
    assert columns["r"].tolist() == (columns["x_desired"] & joint).tolist()
    trace = Trace(columns)
    assert_core_recurrence(trace, eps_d, freeze)
    assert (columns["q_after"] >= 0.0).all() and (columns["z_after"] >= 0.0).all()

    state = QueueState(q0, z0)
    for i in range(len(realization)):
        state, record = step(
            state, realization.observation(i), spec, params, t=t0 + i, freeze_z_when_empty=freeze
        )
        assert record == trace.record(i), i
        assert state == QueueState(record.q_after, record.z_after), i


# each kind's one parameter, as PolicySpec holds it
KIND_PARAMS = {
    "periodic": st.integers(1, 5),
    "price_only": st.floats(0.0, 40.0),
    "queue_threshold": st.floats(0.0, 5.0),
}


@st.composite
def one_slot_calls(draw):
    """A (kind, freeze_z) key and the one-slot kernel's inputs for one slot."""
    kind = draw(st.sampled_from(sorted(POLICY_KINDS)))
    param = draw(KIND_PARAMS[kind]) if kind in KIND_PARAMS else None
    arrival = draw(st.integers(0, 2) | st.sampled_from([2**53 + 1, 2**62]))
    inputs = dict(
        q0=draw(st.floats(0.0, 4.0)), z0=draw(st.floats(0.0, 40.0)), t0=draw(st.integers(1, 10**6)),
        param=param, arrival=arrival, price_ris=draw(st.floats(0.0, 20.0)), price_spectrum=draw(st.floats(0.0, 20.0)),
        avail_ris=draw(flags), avail_spectrum=draw(flags),
        v=draw(st.floats(0.1, 4.0)), eps_d=draw(st.floats(0.1, 3.0)), threshold=draw(st.floats(0.0, 50.0)),
    )
    return kind, draw(st.booleans()), inputs


def _slot(kind, freeze, q0=0.0, z0=0.0, t0=1, param=None, arrival=0, price_ris=1.0, price_spectrum=1.0,
          avail_ris=1, avail_spectrum=1, v=1.0, eps_d=1.0, threshold=10.0):
    return kind, freeze, dict(q0=q0, z0=z0, t0=t0, param=param, arrival=arrival, price_ris=price_ris,
                              price_spectrum=price_spectrum, avail_ris=avail_ris, avail_spectrum=avail_spectrum,
                              v=v, eps_d=eps_d, threshold=threshold)


@settings(max_examples=500, deadline=None)
@given(call=one_slot_calls())
# a lease that takes both queues below zero: q + arrival < 1.0 and z < 1.0
@example(call=_slot("greedy", False, q0=0.25, z0=0.5))
@example(call=_slot("dsf", True, q0=0.25, z0=0.5, threshold=0.5))
# an empty queue with z frozen: no wish or a blocked one keeps z, a lease
# on it clamps q at 0.0
@example(call=_slot("dsf", True, z0=3.0))
@example(call=_slot("dsf", True, z0=30.0, avail_spectrum=0))
@example(call=_slot("dsf", True, z0=30.0))
# arrivals that a float cannot hold exactly
@example(call=_slot("greedy", False, q0=0.5, arrival=2**53 + 1))
@example(call=_slot("queue_threshold", True, q0=0.5, arrival=2**62, param=5.0, avail_ris=0))
# a joint price exactly at the price_only cutoff
@example(call=_slot("price_only", False, q0=1.0, price_ris=3.0, price_spectrum=5.0, param=8.0))
# periodic on its period, with and without a backlog
@example(call=_slot("periodic", False, q0=1.0, t0=6, param=3))
@example(call=_slot("periodic", True, t0=6, param=3))
# a dsf state exactly at the threshold, and just past it
@example(call=_slot("dsf", False, q0=2.0, arrival=1, z0=3.0, threshold=6.0))
@example(call=_slot("dsf", False, q0=2.0, arrival=1, z0=3.5, threshold=6.0))
def test_one_slot_kernel_matches_the_loop_bit_for_bit(call):
    """On one slot, the one-slot kernel's state holds the loop's final
    (q, z), bit for bit, as floats, and its record holds the wish the loop
    stores, as an int, and is what slot_values gives from the loop's
    results, with each field of its annotated type."""
    kind, freeze, inputs = call
    head = [inputs[name] for name in ("q0", "z0", "t0", "param")]
    arrival, price_ris, price_spectrum, avail_ris, avail_spectrum = (
        inputs[name] for name in ("arrival", "price_ris", "price_spectrum", "avail_ris", "avail_spectrum")
    )
    tail = [inputs[name] for name in ("v", "eps_d", "threshold")]
    joint_avail = avail_ris & avail_spectrum
    x_desired = bytearray(1)
    q, z = _kernels.get_loop((kind, freeze))(*head, [arrival], [price_ris + price_spectrum], [joint_avail], *tail,
                                             x_desired, [-1.0], [-1.0])
    state, record = _kernels.get_loop((kind, freeze, True))(
        *head, (arrival,), price_ris, price_spectrum, avail_ris, avail_spectrum, *tail
    )
    assert type(state) is QueueState and type(record) is SlotRecord
    assert float.hex(state.q) == float.hex(q) and float.hex(state.z) == float.hex(z)
    assert type(state.q) is float and type(state.z) is float
    assert type(record.x_desired) is int and record.x_desired == x_desired[0]
    assert record == SlotRecord(*_kernels.slot_values(
        inputs["t0"], inputs["q0"] + arrival, inputs["z0"], arrival, avail_ris, avail_spectrum, price_ris,
        price_spectrum, joint_avail, x_desired[0], q, z,
    ))
    assert [type(value).__name__ for value in vars(record).values()] == [f.type for f in fields(SlotRecord)]
