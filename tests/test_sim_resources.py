"""Unit tests for FIFO resources, semaphores and token buckets."""

import pytest

from repro.errors import SimulationError
from repro.sim import FS_PER_S, Timeout
from repro.sim.engine import Engine
from repro.sim.resources import FifoResource, Semaphore, TokenBucket


def test_fifo_grants_immediately_when_idle():
    engine = Engine()
    resource = FifoResource(engine)
    grant = resource.request()
    assert grant.triggered
    assert resource.busy


def test_fifo_queues_second_requester():
    engine = Engine()
    resource = FifoResource(engine)
    resource.request()
    second = resource.request()
    assert not second.triggered
    assert resource.queue_length == 1
    resource.release()
    assert second.triggered
    assert resource.queue_length == 0


def test_fifo_release_idle_raises():
    with pytest.raises(SimulationError):
        FifoResource(Engine()).release()


def test_fifo_wakeups_in_fifo_order():
    engine = Engine()
    resource = FifoResource(engine)
    resource.request()
    order = []
    for tag in "abc":
        resource.request().subscribe(lambda _e, t=tag: order.append(t))
    for _ in range(3):
        resource.release()
    assert order == ["a", "b", "c"]


def test_occupy_returns_queueing_delay():
    engine = Engine()
    resource = FifoResource(engine)

    def holder():
        waited = yield from resource.occupy(100)
        return waited

    def contender():
        yield Timeout(engine, 10)  # arrive while held
        waited = yield from resource.occupy(50)
        return waited

    first = engine.process(holder())
    second = engine.process(contender())
    engine.run()
    assert first.value == 0
    assert second.value == 90  # requested at t=10, granted at t=100


def test_occupy_serializes_hold_times():
    engine = Engine()
    resource = FifoResource(engine)

    def worker():
        yield from resource.occupy(100)
        return engine.now

    processes = [engine.process(worker()) for _ in range(3)]
    engine.run()
    assert [p.value for p in processes] == [100, 200, 300]


def test_utilization_accounts_held_time():
    engine = Engine()
    resource = FifoResource(engine)

    def worker():
        yield from resource.occupy(50)

    engine.process(worker())
    engine.run()
    engine.schedule(50, lambda: None)  # idle stretch to t=100
    engine.run()
    assert resource.utilization() == pytest.approx(0.5)


def test_fifo_grant_statistics():
    engine = Engine()
    resource = FifoResource(engine)

    def worker():
        yield from resource.occupy(10)

    for _ in range(4):
        engine.process(worker())
    engine.run()
    assert resource.total_grants == 4
    assert resource.total_hold_fs == 40
    assert resource.total_wait_fs == 0 + 10 + 20 + 30


def test_reserve_books_fifo_waits_in_request_order():
    engine = Engine()
    resource = FifoResource(engine)
    assert resource.reserve(10, at_fs=5) == 0
    assert resource.reserve(10, at_fs=5) == 10  # a tie queues behind
    assert resource.reserve(10, at_fs=30) == 0
    assert resource.total_wait_fs == 10


def test_reserve_before_an_earlier_request_raises():
    """An out-of-order request time would get a wrong wait: refuse it."""
    engine = Engine()
    resource = FifoResource(engine)
    resource.reserve(10, at_fs=50)
    with pytest.raises(SimulationError, match="requested at 40 fs"):
        resource.reserve(10, at_fs=40)
    with pytest.raises(SimulationError):
        resource.reserve(10)  # now (0) precedes the booked request
    assert resource.total_grants == 1
    assert resource.reserve(10, at_fs=50) == 10


def test_reserve_order_survives_a_state_round_trip():
    engine = Engine()
    resource = FifoResource(engine)
    resource.reserve(10, at_fs=50)
    restored = FifoResource(Engine())
    restored.load_state(resource.state_dict())
    with pytest.raises(SimulationError):
        restored.reserve(10, at_fs=49)


def test_semaphore_capacity_respected():
    engine = Engine()
    semaphore = Semaphore(engine, capacity=2)
    first = semaphore.request()
    second = semaphore.request()
    third = semaphore.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert semaphore.in_use == 2
    assert semaphore.queue_length == 1
    semaphore.release()
    assert third.triggered


def test_semaphore_release_idle_raises():
    semaphore = Semaphore(Engine(), capacity=1)
    with pytest.raises(SimulationError):
        semaphore.release()


def test_semaphore_invalid_capacity():
    with pytest.raises(SimulationError):
        Semaphore(Engine(), capacity=0)


def test_semaphore_fifo_wakeup_order():
    engine = Engine()
    semaphore = Semaphore(engine, capacity=1)
    semaphore.request()
    order = []
    for tag in "xyz":
        semaphore.request().subscribe(lambda _e, t=tag: order.append(t))
    for _ in range(3):
        semaphore.release()
    assert order == ["x", "y", "z"]


def test_token_bucket_initial_burst_free():
    engine = Engine()
    bucket = TokenBucket(engine, rate_per_s=1000.0, burst=2)
    assert bucket.next_delay_fs() == 0
    assert bucket.next_delay_fs() == 0
    assert bucket.next_delay_fs() > 0


def test_token_bucket_refills_over_time():
    engine = Engine()
    bucket = TokenBucket(engine, rate_per_s=1000.0, burst=1)
    assert bucket.next_delay_fs() == 0
    # 1 ms of simulated time refills one token at 1000/s.
    engine.schedule(FS_PER_S // 1000, lambda: None)
    engine.run()
    assert bucket.next_delay_fs() == 0


def test_token_bucket_rate_must_be_positive():
    with pytest.raises(SimulationError):
        TokenBucket(Engine(), rate_per_s=0.0)


def test_token_bucket_delay_matches_rate():
    engine = Engine()
    bucket = TokenBucket(engine, rate_per_s=10.0, burst=1)
    bucket.next_delay_fs()
    delay = bucket.next_delay_fs()
    assert delay == pytest.approx(FS_PER_S / 10.0, rel=0.01)
