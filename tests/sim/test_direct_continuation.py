"""Direct continuation preserves the engine's total order.

:meth:`Environment.run` may continue a process in place instead of
queueing its resume (see the :mod:`repro.sim.engine` docstring).
:meth:`Environment.step` never does, so a loop over ``step()`` that
applies ``run``'s bound and stop rules is the reference: for every
program, both must produce the same trace, the same clock and the same
final sequence number (the engine's event count).
"""

from hypothesis import given, settings, strategies as st

from repro.oskernel.kernel import KERNEL_6_9
from repro.oskernel.scheduler import CpuScheduler
from repro.sim.engine import PROCESSED, Environment, Event, Interrupt
from repro.sim.events import all_of, any_of
from repro.sim.resources import Resource

INF = float("inf")


class Boom(Exception):
    """The failure ``fail`` ops inject."""


def run_by_steps(env, until=None):
    """``env.run(until)`` rebuilt from ``env.step()`` calls."""
    bound = INF if until is None else float(until)
    bound_seq = env._seq
    env._stopped = False
    while True:
        heads = [q[0] for q in (env._fifo, env._queue) if q]
        if not heads:
            break
        when, seq, _ = min(heads)
        if when > bound or (when == bound and seq >= bound_seq):
            env.now = bound
            return
        env.step()
        if env._stopped:
            return
    if until is not None:
        env.now = bound


def run_direct(env, until=None):
    env.run(until=until)


# --- program model ------------------------------------------------------------
DELAYS = st.sampled_from([0.0, 0.5, 1.0])
OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("request"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("grab"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("burst"), st.sampled_from([0.0, 0.25, 0.5])),
    st.tuples(st.just("succeed"), st.integers(0, 2)),
    st.tuples(st.just("fail"), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("all_of"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("any_of"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    st.tuples(st.just("join"), st.integers(0, 3)),
    st.just(("processed",)),
    st.just(("stop",)),
)
PROGRAMS = st.fixed_dictionaries(
    {
        "capacities": st.tuples(st.integers(1, 3), st.integers(1, 3)),
        "cores": st.integers(1, 2),
        "processes": st.lists(
            st.lists(OPS, min_size=1, max_size=6), min_size=1, max_size=4
        ),
        "until": st.sampled_from([None, 0.0, 0.5, 1.0, 1.5, 2.0]),
    }
)


def build(env, program, trace):
    """Start the program's processes; they append to ``trace``."""
    resources = [Resource(env, capacity=c) for c in program["capacities"]]
    sched = CpuScheduler(
        env=env, logical_cores=program["cores"], freq_ghz=2.0,
        kernel=KERNEL_6_9, single_thread_speedup=1.5,
    )
    events = [Event(env) for _ in range(3)]
    procs = []

    def hold_request(res, hold):
        request = res.request()
        try:
            yield request
        except BaseException:
            res.release(request)
            raise
        try:
            yield env.timeout(hold)
        finally:
            res.release(request)

    def hold_grab(res, hold):
        # The scheduler's grant pattern on a bare resource.
        if res.try_acquire():
            request = None
            try:
                yield PROCESSED
            except BaseException:
                res.release_slot()
                raise
        else:
            request = res.request()
            try:
                yield request
            except BaseException:
                res.release(request)
                raise
        try:
            yield env.sleep(hold)
        finally:
            if request is None:
                res.release_slot()
            else:
                res.release(request)

    def perform(me, op):
        kind = op[0]
        if kind == "timeout":
            return (yield env.timeout(op[1], value=op[1]))
        if kind == "sleep":
            return (yield env.sleep(op[1]))
        if kind == "request":
            return (yield from hold_request(resources[op[1]], op[2]))
        if kind == "grab":
            return (yield from hold_grab(resources[op[1]], op[2]))
        if kind == "burst":
            return (yield from sched.execute(op[1], 0.0))
        if kind == "succeed":
            if not events[op[1]].triggered:
                events[op[1]].succeed((me, op[1]))
            return None
        if kind == "fail":
            if not events[op[1]].triggered:
                events[op[1]].fail(Boom(f"{me}:{op[1]}"))
            return None
        if kind == "wait":
            return (yield events[op[1]])
        if kind == "all_of":
            return (yield all_of(env, [events[op[1]], events[op[2]]]))
        if kind == "any_of":
            return (yield any_of(env, [events[op[1]], events[op[2]]]))
        if kind == "interrupt":
            if op[1] < len(procs) and op[1] != me and procs[op[1]].is_alive:
                procs[op[1]].interrupt(me)
            return None
        if kind == "join":
            if op[1] < len(procs) and op[1] != me:
                return (yield procs[op[1]])
            return None
        if kind == "processed":
            return (yield PROCESSED)
        assert kind == "stop"
        env.stop()
        return None

    def body(me, ops):
        for index, op in enumerate(ops):
            try:
                value = yield from perform(me, op)
                outcome = ("ok", repr(value))
            except Interrupt as intr:
                outcome = ("interrupt", intr.cause)
            except Boom as exc:
                outcome = ("fail", str(exc))
            trace.append(
                (me, index, env.now, outcome,
                 [r.count for r in resources], sched.cores.count)
            )
        return me

    for me, ops in enumerate(program["processes"]):
        procs.append(env.process(body(me, ops)))
    return resources, sched


def drive(program, runner):
    env = Environment()
    trace = []
    resources, sched = build(env, program, trace)
    try:
        runner(env, program["until"])
        trace.append(("bound", env.now, env._seq))
        for _ in range(10):
            if env.peek() == INF:
                break
            runner(env, None)
            trace.append(("run", env.now, env._seq))
    except Exception as exc:  # orphaned failures surface from the loop
        trace.append(("raised", type(exc).__name__, str(exc)))
    return trace, env._seq, env.now


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_run_matches_step_reference(program):
    assert drive(program, run_direct) == drive(program, run_by_steps)


# --- fixed cases --------------------------------------------------------------
def _both(build_fn, until=None):
    """Run ``build_fn(env, log)`` under both runners; return both."""
    results = []
    for runner in (run_direct, run_by_steps):
        env = Environment()
        log = []
        state = build_fn(env, log)
        runner(env, until)
        results.append((log, env._seq, env.now, state(env)))
    return results


def test_interrupt_at_uncontended_grant_releases_core():
    def build_fn(env, log):
        sched = CpuScheduler(
            env=env, logical_cores=2, freq_ghz=2.0, kernel=KERNEL_6_9,
        )

        def victim():
            try:
                yield from sched.execute(1.0, 0.0)
                log.append("ran")
            except Interrupt as intr:
                log.append(("interrupted", env.now, intr.cause))

        proc = env.process(victim())

        def interrupter():
            # Runs at the instant of the grant, before the victim's
            # resume is dispatched (the resume waits behind it).
            log.append(("cores", sched.cores.count))
            proc.interrupt("deadline")
            return
            yield  # pragma: no cover

        env.process(interrupter())
        return lambda env: (sched.cores.count, sched.stats.dispatch_count)

    direct, reference = _both(build_fn)
    assert direct == reference
    log, _, _, (cores, dispatches) = direct
    assert log == [("cores", 1), ("interrupted", 0.0, "deadline")]
    assert cores == 0 and dispatches == 0


def test_entry_at_the_bound_is_not_continued():
    def build_fn(env, log):
        done = Event(env)
        done.succeed("x")
        wake = env.timeout(1.0)  # scheduled before run(until=1.0)

        def proc():
            yield wake
            log.append(("woke", env.now))
            value = yield done  # already processed: resume at (1.0, seq)
            log.append(("continued", env.now, value))

        env.process(proc())
        return lambda env: len(env._fifo)

    direct, reference = _both(build_fn, until=1.0)
    assert direct == reference
    log, _, now, queued = direct
    # The timeout was scheduled before run(until=1.0), so it fires; the
    # resume it leads to is created at the bound and must wait for the
    # next run call.
    assert log == [("woke", 1.0)]
    assert now == 1.0 and queued == 1


def test_event_with_two_subscribers_is_not_continued():
    def build_fn(env, log):
        gate = env.timeout(1.0)
        done = Event(env)
        done.succeed()

        def waiter(name):
            yield gate
            log.append((name, "woke"))
            yield done  # processed: continuing in place would jump ahead
            log.append((name, "continued"))

        env.process(waiter("a"))
        env.process(waiter("b"))
        return lambda env: None

    direct, reference = _both(build_fn)
    assert direct == reference
    assert direct[0] == [
        ("a", "woke"), ("b", "woke"), ("a", "continued"), ("b", "continued"),
    ]


def test_yielded_event_with_another_subscriber_is_not_continued():
    def build_fn(env, log):
        signal = Event(env)

        def listener():
            value = yield signal
            log.append(("listener", value))

        def signaller():
            yield env.timeout(1.0)
            signal.succeed("go")
            # The only entry due now, but the listener subscribed first:
            # its callback must run, so this yield goes through the queue.
            value = yield signal
            log.append(("signaller", value))

        env.process(listener())
        env.process(signaller())
        return lambda env: None

    direct, reference = _both(build_fn)
    assert direct == reference
    assert direct[0] == [("listener", "go"), ("signaller", "go")]


def test_stop_is_not_continued_past():
    def build_fn(env, log):
        def proc():
            yield env.timeout(1.0)
            env.stop()
            yield PROCESSED  # would be next, but the run has stopped
            log.append("continued")

        env.process(proc())
        return lambda env: len(env._fifo)

    direct, reference = _both(build_fn)
    assert direct == reference
    log, _, now, queued = direct
    assert log == [] and now == 1.0 and queued == 1


def test_continuation_keeps_the_event_count():
    """A steady burst loop continues in place yet takes every number."""
    def build_fn(env, log):
        sched = CpuScheduler(
            env=env, logical_cores=4, freq_ghz=2.0, kernel=KERNEL_6_9,
        )

        def worker():
            for _ in range(50):
                yield from sched.execute(0.001, 0.0)
            log.append(env.now)

        env.process(worker())
        return lambda env: sched.stats.dispatch_count

    direct, reference = _both(build_fn)
    assert direct == reference
    # Bootstrap + 50 x (grant turn + burst timeout) + process completion.
    assert direct[1] == 1 + 50 * 2 + 1
