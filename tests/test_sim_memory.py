"""The engine's memory contract: a finished simulation frees by refcount.

No reference cycle may run through a process, the simulator or the
cluster it drives, so that everything a run allocated -- block payloads,
parity accumulators, dead processes -- is released the moment its last
outside reference drops, not whenever the cyclic collector next runs.
Every test here runs with the collector disabled: an object that is not
freed by refcount alone is a contract violation.
"""

import gc
import traceback
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import engine


class Boom(SimulationError):
    """A failure type that can be weakly referenced."""


class Token:
    """A weakly referenceable stand-in for state a process holds.

    Events are slotted without ``__weakref__``, so a process's lifetime
    is observed through a token only it keeps alive.
    """


@pytest.fixture(autouse=True)
def _no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every Simulator built or restored in the test."""
    refs = []
    init = engine.Simulator.__init__
    setstate = engine.Simulator.__setstate__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    def tracked_setstate(self, state):
        setstate(self, state)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(engine.Simulator, "__init__", tracked_init)
    monkeypatch.setattr(engine.Simulator, "__setstate__", tracked_setstate)
    return refs


def _cyclic_repro_garbage():
    """Names of ``repro`` types only the cyclic collector could free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted({
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# ----------------------------------------------------------------------
# Processes.
# ----------------------------------------------------------------------
def test_finished_process_is_freed_by_refcount():
    sim = engine.Simulator()

    def body(token):
        yield sim.timeout(1.0)
        return token

    token = Token()
    proc = sim.process(body(token))
    sim.run()
    assert proc.value is token
    token_ref = weakref.ref(token)
    del token
    assert token_ref() is not None  # held by the process's value
    del proc
    assert token_ref() is None


def test_failed_process_is_freed_by_refcount():
    sim = engine.Simulator()

    def child(token):
        yield sim.timeout(1.0)
        raise Boom(token)

    def parent(proc):
        try:
            yield proc
        except Boom:
            pass

    token = Token()
    proc = sim.process(child(token))
    sim.process(parent(proc))
    sim.run()
    assert isinstance(proc.exception, Boom)
    token_ref = weakref.ref(token)
    del token
    assert token_ref() is not None  # held by the process's exception
    del proc
    assert token_ref() is None


def test_caught_child_failure_leaves_no_cycle():
    """The pipeline-write shape: the waiter keeps the error and its
    children in locals after catching the failure."""
    sim = engine.Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise Boom("replica lost")

    def waiter():
        procs = [sim.process(child()) for _ in range(2)]
        last_error = None
        for proc in procs:
            try:
                yield proc
            except Boom as exc:
                last_error = exc
        caught.append(weakref.ref(last_error))
        yield sim.timeout(1.0)

    top = sim.process(waiter())
    sim.run()
    assert top.ok
    sim_ref = weakref.ref(sim)
    del sim, top
    assert sim_ref() is None
    assert caught[0]() is None


def test_propagated_child_failure_leaves_no_cycle():
    sim = engine.Simulator()

    def child():
        yield sim.timeout(1.0)
        raise Boom("disk gone")

    def waiter():
        procs = [sim.process(child())]
        yield sim.all_of(procs)

    def supervisor(results):
        try:
            yield sim.process(waiter())
        except Boom as exc:
            results.append(weakref.ref(exc))

    results = []
    sim.process(supervisor(results))
    sim.run()
    sim_ref = weakref.ref(sim)
    del sim
    assert sim_ref() is None
    assert results[0]() is None


def _raised_frames(exc):
    """Function names of the traceback below run()'s orphan re-raise."""
    names = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    return names[names.index("_raise_orphan_failures") + 1:]


def test_orphan_failure_keeps_the_failing_body_frame():
    sim = engine.Simulator()

    def crashing():
        yield sim.timeout(1.0)
        raise Boom("unobserved")

    sim.process(crashing())
    with pytest.raises(Boom) as info:
        sim.run()
    assert _raised_frames(info.value) == ["crashing"]


def test_propagated_orphan_failure_keeps_where_it_was_raised():
    sim = engine.Simulator()

    def crashing():
        yield sim.timeout(1.0)
        raise Boom("deep")

    def middle():
        yield sim.process(crashing())

    sim.process(middle())
    with pytest.raises(Boom) as info:
        sim.run()
    assert _raised_frames(info.value) == ["crashing"]


def test_uncaught_interrupt_keeps_the_interrupted_body_frame():
    sim = engine.Simulator()

    def sleeper():
        yield sim.timeout(10.0)

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1.0)
        proc.interrupt("stop")

    sim.process(interrupter())
    with pytest.raises(engine.ProcessInterrupt) as info:
        sim.run()
    assert _raised_frames(info.value) == ["sleeper"]


def test_simulator_with_pooled_sleeps_is_freed_after_run():
    sim = engine.Simulator()

    def sleeper():
        for _ in range(5):
            yield sim.sleep(1.0)

    for _ in range(3):
        sim.process(sleeper())
    sim.run()
    assert sim.now == 5.0
    sim_ref = weakref.ref(sim)
    del sim
    assert sim_ref() is None


# ----------------------------------------------------------------------
# Whole runs.
# ----------------------------------------------------------------------
def _assert_runs_freed(simulators):
    assert simulators, "no simulator was built"
    assert [ref() for ref in simulators] == [None] * len(simulators)
    assert _cyclic_repro_garbage() == []


@pytest.mark.parametrize("seed", [1, 31337])
def test_chaos_soak_frees_its_cluster(seed, simulators):
    from repro.tools.chaos import run_chaos

    result = run_chaos(seed)
    assert result.ok, result.problems
    _assert_runs_freed(simulators)


def test_table2_raidp_task_frees_its_cluster(simulators):
    from repro.experiments import table2_recovery

    key = next(k for k in table2_recovery.tasks(seeds=(1,)) if k[0] == "raidp")
    assert table2_recovery.run_task(key) > 0.0
    _assert_runs_freed(simulators)


def test_fig8_task_frees_its_cluster(simulators):
    from repro.experiments import fig8_write

    key = next(k for k in fig8_write.tasks(seeds=(1,)) if k[0] == "raidp")
    assert fig8_write.run_task(key) > 0.0
    _assert_runs_freed(simulators)
