"""Serve-vs-direct parity and unit behavior of the optimizer service.

The ISSUE's contract: for randomized workloads, join orders returned
through the micro-batching service are identical to direct
``predict_join_orders`` calls at every beam width 1-8 — whether a
request was batched, coalesced with an identical request, or answered
from the plan cache.  Plus request-lifecycle behavior: backpressure,
per-request error isolation, timeouts, and lifecycle errors.
"""

import copy
import threading
import time

import numpy as np
import pytest

from repro.core import JointTrainer, ModelConfig, MTMLFQO, serializer
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.serve import (
    CacheStats,
    OptimizerService,
    PlanCache,
    ServeConfig,
    ServiceOverloadedError,
    ServiceStoppedError,
    ServiceTimeoutError,
)
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)

pytestmark = pytest.mark.threaded


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=6, num_tables=5, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=4, epochs=2)
    return feat


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=7))
    items = QueryLabeler(db).label_many(generator.generate(24), with_optimal_order=False)
    assert len(items) >= 8
    return items[:8]


@pytest.fixture()
def model(db, featurizer):
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    return model


def serve_all(service, items):
    """Submit every item concurrently; return orders in item order."""
    results: dict[int, list[str]] = {}
    errors: list[BaseException] = []

    def client(index, item):
        try:
            results[index] = service.optimize(item)
        except BaseException as error:  # surfaced to the test
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i, item)) for i, item in enumerate(items)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return [results[i] for i in range(len(items))]


@pytest.mark.parametrize(
    "bad",
    [
        {"max_batch_size": 0},
        {"max_wait_ms": -1.0},
        {"max_queue_depth": 0},
        {"plan_cache_size": -1},
        {"beam_width": 0},
        {"request_timeout_s": 0.0},
        {"request_timeout_s": -1.0},
    ],
    ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
)
def test_serve_knobs_are_validated(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ServeConfig(**bad)


class TestServeParity:
    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_parity_across_beam_widths(self, db, model, labeled, beam_width):
        direct = model.predict_join_orders(db.name, labeled, beam_width=beam_width)
        config = ServeConfig(max_batch_size=4, max_wait_ms=2.0, beam_width=beam_width)
        with OptimizerService(model, db.name, config) as service:
            served = serve_all(service, labeled)
        assert served == direct

    def test_cached_responses_stay_identical(self, db, model, labeled):
        direct = model.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name, ServeConfig(max_batch_size=4)) as service:
            first = serve_all(service, labeled)
            second = [service.optimize(item) for item in labeled]
            report = service.report()
        assert first == direct
        assert second == direct
        assert report.cache_hits >= len(labeled)  # the whole second pass hit

    def test_resubmitted_object_hits_without_signing(self, db, model, labeled, monkeypatch):
        """A served object keeps its signatures, so resubmitting it hits
        the plan cache without re-entering either signature builder; a
        fresh deep copy signs itself afresh and hits the same entry."""
        item = labeled[0]
        builds: list[str] = []
        for name in ("_build_query_signature", "_build_plan_signature"):
            build = getattr(serializer, name)
            monkeypatch.setattr(
                serializer, name, lambda obj, build=build, name=name: builds.append(name) or build(obj)
            )
        with OptimizerService(model, db.name) as service:
            first = service.optimize(item)
            hits = service.report().cache_hits
            builds.clear()
            assert service.optimize(item) == first
            assert builds == []
            assert service.report().cache_hits == hits + 1
            assert service.optimize(copy.deepcopy(item)) == first
            assert set(builds) == {"_build_query_signature", "_build_plan_signature"}
            assert service.report().cache_hits == hits + 2

    def test_coalesced_duplicates_get_one_model_call(self, db, model, labeled):
        item = labeled[0]
        direct = model.predict_join_orders(db.name, [item])[0]
        # Cache off: identical concurrent requests may only coalesce.
        config = ServeConfig(max_batch_size=8, max_wait_ms=50.0, plan_cache_size=0)
        with OptimizerService(model, db.name, config) as service:
            served = serve_all(service, [item] * 6)
            report = service.report()
        assert served == [direct] * 6
        assert report.completed == 6
        assert report.model_calls < 6  # at least one batch coalesced duplicates
        assert report.coalesced >= 1

    def test_model_update_invalidates_cached_plans(self, db, model, labeled, featurizer):
        """A version bump retires cached orders: no stale-weights hits."""
        with OptimizerService(model, db.name) as service:
            first = service.optimize(labeled[0])
            hits_before = service.report().cache_hits
            service.optimize(labeled[0])
            assert service.report().cache_hits == hits_before + 1
            model.attach_featurizer(db.name, featurizer)  # bumps model.version
            again = service.optimize(labeled[0])
            assert service.report().cache_hits == hits_before + 1  # forced a miss
        assert again == first  # same weights reattached -> same order

    def test_trainer_marks_model_updated(self):
        model = MTMLFQO(SMALL)
        trainer = JointTrainer(model)
        trainer._step = lambda db_name, batch, jo_criterion: (0.0, 0.0, 0.0, 0.0)
        version = model.version
        trainer.train([("a", object())], epochs=1, batch_size=1, seed=0)
        assert model.version > version  # one process-wide counter: a fresh value

    def test_mark_updated_keeps_feature_caches(self, db, model, labeled):
        """A version bump retires plan-cache results, not (F) outputs:
        the featurizer is frozen while (S)/(T) change, so its encodings
        stay valid until a featurizer is (re-)attached."""
        encoded = model.encode_query(db.name, labeled[0])
        featurizer = model.featurizer_for(db.name)
        entries = (len(featurizer.encoding_cache), len(featurizer.node_cache))
        assert entries[0] == 1 and entries[1] > 0
        version = model.version
        model.mark_updated()
        assert model.version > version
        assert (len(featurizer.encoding_cache), len(featurizer.node_cache)) == entries
        assert model.encode_query(db.name, labeled[0]) is encoded

    def test_single_caller_needs_no_concurrency(self, db, model, labeled):
        """max_wait only delays; a lone blocking caller still gets served.

        Only its first request waits out the window: each later one is
        the one caller the previous batch released coming back, which
        closes the window at once."""
        direct = model.predict_join_orders(db.name, labeled[:3])
        config = ServeConfig(max_batch_size=16, max_wait_ms=1000.0, plan_cache_size=0)
        with OptimizerService(model, db.name, config) as service:
            served = [service.optimize(item) for item in labeled[:3]]
            report = service.report()
        assert served == direct
        assert report.batch_closes == {"window": 1, "callers": 2}


class TestBatchingWindow:
    """The drain worker closes a window at the first of: a full batch,
    every caller the previous batch released back, ``max_wait_ms``.  A
    caller is the thread that called ``optimize``."""

    def test_closed_loop_callers_close_the_window_on_return(self, db, model, labeled):
        half = len(labeled) // 2
        slices = [labeled[:half], labeled[half:]]
        direct = model.predict_join_orders(db.name, labeled)
        config = ServeConfig(max_batch_size=16, max_wait_ms=1000.0, plan_cache_size=0)
        served: dict[int, list[list[str]]] = {}
        with OptimizerService(model, db.name, config) as service:
            def caller(slot):
                served[slot] = [service.optimize(item) for item in slices[slot]]

            threads = [threading.Thread(target=caller, args=(slot,)) for slot in (0, 1)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            elapsed = time.perf_counter() - started
            report = service.report()
        assert served[0] + served[1] == direct
        # Only the first window (no batch has released anyone yet) runs
        # to max_wait_ms; every later one closes when both are back.
        assert report.batch_closes == {"window": 1, "callers": half - 1}
        assert report.mean_batch_size == 2.0
        assert elapsed < half * config.max_wait_ms / 1000.0

    def test_callers_that_never_return_fall_back_to_the_window(self, db, model, labeled):
        """One-shot callers are released and never come back.  A
        newcomer does not stand in for them, so its lone request waits
        out max_wait_ms as it always did: after a burst of four, and
        after a batch of one (where a count of arrivals would take the
        newcomer for the released caller)."""
        burst = labeled[:4]
        config = ServeConfig(max_batch_size=len(burst), max_wait_ms=1000.0, plan_cache_size=0)
        with OptimizerService(model, db.name, config) as service:
            assert serve_all(service, burst) == model.predict_join_orders(db.name, burst)
            assert service.report().batch_closes == {"full": 1}
            for item in labeled[4:6]:
                assert serve_all(service, [item]) == model.predict_join_orders(db.name, [item])
            report = service.report()
        assert report.batch_closes == {"full": 1, "window": 2}
        assert report.batches == 3

    def test_arrivals_during_a_decode_are_backlog_not_returns(self, db, model, labeled):
        """A newcomer that queued while the batch decoded does not stand
        in for a caller still waiting on that batch: the next window
        holds the newcomer plus both returning callers."""
        config = ServeConfig(max_batch_size=16, max_wait_ms=1000.0, plan_cache_size=0)
        service = OptimizerService(model, db.name, config)
        newcomer = threading.Thread(target=service.optimize, args=(labeled[4],))

        class StallFirstDecode:
            """Holds the first decode until the newcomer has queued."""

            def __init__(self, session):
                self.session = session
                self.model = session.model
                self.stalled = False

            def predict_join_orders(self, items, **kwargs):
                if not self.stalled:
                    self.stalled = True
                    newcomer.start()
                    while service.queue_depth == 0:
                        time.sleep(0.001)
                return self.session.predict_join_orders(items, **kwargs)

        service.session = StallFirstDecode(service.session)
        with service:
            callers = [
                threading.Thread(target=lambda pair=pair: [service.optimize(item) for item in pair])
                for pair in (labeled[0:2], labeled[2:4])
            ]
            for thread in callers:
                thread.start()
            for thread in callers + [newcomer]:
                thread.join(timeout=60)
                assert not thread.is_alive()
            report = service.report()
        assert report.completed == 5
        assert report.batch_closes == {"window": 1, "callers": 1}
        assert report.max_batch == 3

    def test_a_restart_forgets_the_last_batch(self, db, model, labeled):
        """The first window after start() has no previous batch, even when
        the caller the last batch before stop() released comes back."""
        config = ServeConfig(max_batch_size=16, max_wait_ms=50.0, plan_cache_size=0)
        service = OptimizerService(model, db.name, config)
        for item in labeled[:2]:
            with service:
                service.optimize(item)
        assert service.report().batch_closes == {"window": 2}

    def test_a_caller_answered_by_the_recheck_is_back_early(self, db, model, labeled):
        """A request the plan-cache recheck answers is released before its
        batch decodes, and its caller may queue its next request
        mid-decode.  That caller is back all the same: the next window
        closes on ``callers`` once the decoded request's caller returns."""
        config = ServeConfig(max_batch_size=16, max_wait_ms=1000.0, plan_cache_size=64)
        service = OptimizerService(model, db.name, config)
        served: dict[str, list[list[str]]] = {}

        def caller(name, items):
            served[name] = [service.optimize(item) for item in items]

        # Queues labeled[0] during the first decode (a miss, answered by
        # the second batch's recheck), then labeled[3].
        rechecked = threading.Thread(target=caller, args=("rechecked", [labeled[0], labeled[3]]))
        decodes: list[int] = []

        class HoldDecodes:
            """Holds each of the first two decodes until ``rechecked`` has
            a request queued: labeled[0], then labeled[3]."""

            def __init__(self, session):
                self.session = session
                self.model = session.model

            def predict_join_orders(self, items, **kwargs):
                decodes.append(len(items))
                if len(decodes) == 1:
                    rechecked.start()
                if len(decodes) <= 2:
                    while service.queue_depth == 0:
                        time.sleep(0.001)
                return self.session.predict_join_orders(items, **kwargs)

        service.session = HoldDecodes(service.session)
        with service:
            decoded = threading.Thread(target=caller, args=("decoded", labeled[0:3]))
            decoded.start()
            for thread in (decoded, rechecked):
                thread.join(timeout=60)
                assert not thread.is_alive()
            report = service.report()
        assert served["decoded"] == model.predict_join_orders(db.name, labeled[0:3])
        assert served["rechecked"] == model.predict_join_orders(db.name, [labeled[0], labeled[3]])
        # Batches {decoded: 0}, {rechecked: 0 (recheck hit), decoded: 1},
        # {rechecked: 3, decoded: 2}.
        assert decodes == [1, 1, 2]
        assert report.batch_closes == {"window": 1, "callers": 2}


class TestHotSwap:
    @pytest.fixture()
    def model_b(self, db, featurizer, labeled):
        """A second model with visibly different weights (briefly trained)."""
        other = MTMLFQO(SMALL)
        other.attach_featurizer(db.name, featurizer)
        JointTrainer(other).train(
            [(db.name, item) for item in labeled], epochs=2, batch_size=4
        )
        return other

    def test_swap_serves_new_model_and_invalidates_cache(self, db, model, model_b, labeled):
        direct_a = model.predict_join_orders(db.name, labeled)
        direct_b = model_b.predict_join_orders(db.name, labeled)
        assert direct_a != direct_b  # the swap must be observable
        with OptimizerService(model, db.name) as service:
            pre = [service.optimize(item) for item in labeled]
            assert pre == direct_a
            returned = service.swap_model(model_b)
            assert returned is model_b
            post = [service.optimize(item) for item in labeled]
        assert post == direct_b
        assert service.report().swaps == 1

    def test_equal_version_counters_cannot_serve_stale_cache(
        self, db, model, model_b, labeled, tmp_path
    ):
        """Cache keys carry the serving model's `version`, and no two
        model states in the process share one: a fresh model, its clone,
        a checkpoint load and a `mark_updated` give four distinct
        values.  So a swap retires every pre-swap cache entry."""
        from repro.core import load_checkpoint, save_checkpoint

        fresh = MTMLFQO(SMALL)
        built = fresh.version
        clone = fresh.clone_for_inference()
        loaded = load_checkpoint(save_checkpoint(fresh, str(tmp_path / "fresh")))
        fresh.mark_updated()
        assert len({built, clone.version, loaded.version, fresh.version}) == 4
        assert model_b.version != model.version
        direct_b = model_b.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name) as service:
            pre = [service.optimize(item) for item in labeled]  # fills the cache
            hits_before = service.report().cache_hits
            service.swap_model(model_b)
            assert len(service.cache) == 0  # dead pre-swap entries dropped
            post = [service.optimize(item) for item in labeled]
            assert service.report().cache_hits == hits_before  # all forced misses
        assert post == direct_b
        assert pre != post

    def test_a_batch_decoded_after_a_swap_fills_no_stale_key(self, db, model, model_b, labeled):
        """A request keyed under model A but decoded on B (a swap landed
        before its batch formed) gets B's order, and B's order is not
        cached under A's key: once A serves again (A -> B -> A), A's
        requests get A's orders, never B's."""
        direct_a = model.predict_join_orders(db.name, labeled)
        direct_b = model_b.predict_join_orders(db.name, labeled)
        stale = next(i for i, (a, b) in enumerate(zip(direct_a, direct_b)) if a != b)
        blocker = (stale + 1) % len(labeled)

        class Gate:
            """Holds every decode on the wrapped session until released."""

            def __init__(self, session):
                self.session = session
                self.model = session.model
                self.entered = threading.Event()
                self.release = threading.Event()

            def predict_join_orders(self, items, **kwargs):
                self.entered.set()
                assert self.release.wait(60)
                return self.session.predict_join_orders(items, **kwargs)

        service = OptimizerService(model, db.name, ServeConfig(max_batch_size=1))
        served: dict[int, list[str]] = {}

        def client(index):
            served[index] = service.optimize(labeled[index])

        gate_a = Gate(service.session)
        service.session = gate_a
        with service:
            threads = [threading.Thread(target=client, args=(i,)) for i in (blocker, stale)]
            threads[0].start()
            assert gate_a.entered.wait(60)  # the worker holds A's batch
            threads[1].start()
            while service.queue_depth == 0:  # keyed under A, queued behind it
                time.sleep(0.001)
            service.swap_model(model_b)
            gate_b = Gate(service.session)
            service.session = gate_b
            gate_a.release.set()
            assert gate_b.entered.wait(60)  # the A-keyed request decodes on B
            service.swap_model(model)
            gate_b.release.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert served[stale] == direct_b[stale]  # answered by the model that decoded it
            key = service.request_key(labeled[stale])
            assert service.cache.get(key, count_miss=False) is None
            assert service.optimize(labeled[stale]) == direct_a[stale]

    def test_swap_from_checkpoint_path(self, db, model, model_b, labeled, tmp_path):
        from repro.core import save_checkpoint

        path = save_checkpoint(model_b, str(tmp_path / "replacement"))
        direct_b = model_b.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name) as service:
            service.optimize(labeled[0])
            loaded = service.swap_model(path)  # databases default to the served DB
            assert loaded is not model_b  # a fresh instance from disk
            post = [service.optimize(item) for item in labeled]
        assert post == direct_b

    def test_bad_replacement_leaves_old_model_serving(self, db, model, labeled):
        direct_a = model.predict_join_orders(db.name, labeled)
        with OptimizerService(model, db.name) as service:
            with pytest.raises(KeyError, match="no featurizer"):
                service.swap_model(MTMLFQO(SMALL))  # no (F) for this database
            assert service.report().swaps == 0
            assert [service.optimize(item) for item in labeled] == direct_a

    @pytest.mark.parametrize("replacement", ["object", "path"])
    def test_swap_during_concurrent_traffic_loses_nothing(self, db, model, model_b, labeled, tmp_path, replacement):
        """Clients hammering optimize() across a swap all get exactly one
        answer, each bit-identical to one of the two models' direct
        results; traffic after the swap is all new-model — whether the
        swap installs the model object or loads its checkpoint."""
        from repro.core import save_checkpoint

        new = model_b if replacement == "object" else save_checkpoint(model_b, str(tmp_path / "replacement"))
        direct_a = model.predict_join_orders(db.name, labeled)
        direct_b = model_b.predict_join_orders(db.name, labeled)
        config = ServeConfig(max_batch_size=4, max_wait_ms=2.0)
        rounds = 6
        responses: dict[tuple[int, int], list[str]] = {}
        errors: list[BaseException] = []
        lock = threading.Lock()

        with OptimizerService(model, db.name, config) as service:
            def client(slot):
                try:
                    for round_index in range(rounds):
                        item = labeled[(slot + round_index) % len(labeled)]
                        order = service.optimize(item)
                        with lock:
                            responses[(slot, round_index)] = (
                                (slot + round_index) % len(labeled), order)
                except BaseException as error:
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(slot,)) for slot in range(16)]
            for thread in threads:
                thread.start()
            service.swap_model(new)  # lands mid-traffic
            for thread in threads:
                thread.join()
            post = [service.optimize(item) for item in labeled]
            report = service.report()

        assert not errors, errors
        assert report.swaps == 1 and report.failed == 0
        assert len(responses) == 16 * rounds  # exactly one answer each
        for index, order in responses.values():
            assert order in (direct_a[index], direct_b[index])
        assert post == direct_b  # after the swap: new model only


class TestRequestLifecycle:
    def test_not_started_raises(self, db, model, labeled):
        service = OptimizerService(model, db.name)
        with pytest.raises(ServiceStoppedError):
            service.optimize(labeled[0])

    def test_one_drain_thread_started_and_joined(self, db, model):
        def drain_threads():
            return [t for t in threading.enumerate() if t.name.startswith("optimizer-serve-")]

        before = drain_threads()
        service = OptimizerService(model, db.name).start()
        (drainer,) = [t for t in drain_threads() if t not in before]
        service.stop()
        assert not drainer.is_alive()

    def test_stopped_raises_and_stop_is_idempotent(self, db, model, labeled):
        service = OptimizerService(model, db.name).start()
        assert service.optimize(labeled[0]) == model.predict_join_orders(db.name, [labeled[0]])[0]
        service.stop()
        service.stop()
        with pytest.raises(ServiceStoppedError):
            service.optimize(labeled[0])

    def test_missing_featurizer_fails_at_construction(self, labeled):
        bare = MTMLFQO(SMALL)
        with pytest.raises(KeyError, match="no featurizer"):
            OptimizerService(bare, "nowhere")

    def test_backpressure_rejects_when_queue_full(self, db, model, labeled):
        service = OptimizerService(
            model, db.name, ServeConfig(max_queue_depth=1, plan_cache_size=0)
        )
        # No drain thread: requests queue up and time out instead of
        # being served, making the rejection deterministic.
        service._running = True
        filler_errors = []

        def filler():
            try:
                service.optimize(labeled[0], timeout=1.0)
            except ServiceTimeoutError as error:
                filler_errors.append(error)

        thread = threading.Thread(target=filler)
        thread.start()
        for _ in range(200):
            if service.queue_depth == 1:
                break
            threading.Event().wait(0.005)
        assert service.queue_depth == 1
        with pytest.raises(ServiceOverloadedError):
            service.optimize(labeled[1], timeout=1.0)
        thread.join()
        assert len(filler_errors) == 1
        assert service.report().rejected == 1
        service._running = False

    def test_disconnected_query_fails_alone(self, db, model, labeled):
        """One bad request errors with the model's message; batchmates survive."""
        from repro.engine.plan import scan_node
        from repro.sql import Query
        from repro.workload.labeler import LabeledQuery

        bad_query = Query(tables=["alpha", "beta"], joins=[], filters={})
        bad = LabeledQuery(
            query=bad_query,
            plan=scan_node("alpha"),
            node_cardinalities=[1],
            node_costs=[1.0],
            total_time_ms=0.0,
        )
        direct = model.predict_join_orders(db.name, labeled)
        config = ServeConfig(max_batch_size=16, max_wait_ms=50.0, plan_cache_size=0)
        with OptimizerService(model, db.name, config) as service:
            results: dict[int, list[str]] = {}
            caught: list[BaseException] = []

            def good_client(index, item):
                results[index] = service.optimize(item)

            def bad_client():
                try:
                    service.optimize(bad)
                except ValueError as error:
                    caught.append(error)

            threads = [threading.Thread(target=good_client, args=(i, item))
                       for i, item in enumerate(labeled)]
            threads.append(threading.Thread(target=bad_client))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            report = service.report()
        assert [results[i] for i in range(len(labeled))] == direct
        assert len(caught) == 1
        assert "disconnected" in str(caught[0])
        assert "alpha" in str(caught[0]) and "beta" in str(caught[0])
        assert report.failed == 1
        assert report.completed == len(labeled)
        assert report.coalesced == 0  # a failed request is not "coalesced"

    def test_drain_thread_survives_unexpected_errors(self, db, model, labeled, monkeypatch):
        """A rogue exception fails its batch but never kills the drainer."""
        import repro.serve.service as service_module

        def explode(adjacency, tables):
            raise KeyError("malformed request")

        with OptimizerService(model, db.name, ServeConfig(plan_cache_size=0)) as service:
            monkeypatch.setattr(service_module, "require_connected", explode)
            with pytest.raises(KeyError):
                service.optimize(labeled[0])
            monkeypatch.undo()
            # The service must still be alive and serving.
            order = service.optimize(labeled[1])
        assert order == model.predict_join_orders(db.name, [labeled[1]])[0]

    def test_timeout_race_returns_fulfilled_result(self, db, model, labeled, monkeypatch):
        """The drain thread fulfilling a request *between* ``done.wait``
        timing out and the waiter marking itself abandoned must not lose
        the computed order: optimize() rechecks ``done`` under the mark
        and returns the result, counting a near-miss.

        The race window is a few instructions wide, so the drain is
        instrumented: the request's ``done.wait`` times out for real (no
        drain thread runs), then a simulated drain fulfills the request
        before wait's False return reaches optimize()."""
        import types

        import repro.serve.service as service_module

        expected = model.predict_join_orders(db.name, [labeled[0]])[0]

        class RacyRequest(service_module._Request):
            def __init__(self, labeled_arg, key, **kwargs):
                super().__init__(labeled_arg, key, **kwargs)
                real_event = self.done
                racy = self

                def wait(timeout=None):
                    real_event.wait(timeout)  # genuinely times out
                    racy.fulfill(expected)    # the drain lands in the window
                    return False              # ...but wait already gave up

                self.done = types.SimpleNamespace(
                    wait=wait, is_set=real_event.is_set, set=real_event.set
                )

        service = OptimizerService(model, db.name, ServeConfig(plan_cache_size=0))
        service._running = True  # queue accepts; no real drain thread
        monkeypatch.setattr(service_module, "_Request", RacyRequest)
        try:
            order = service.optimize(labeled[0], timeout=0.01)
        finally:
            service._running = False
        assert order == expected  # the near-missed response is returned...
        report = service.report()
        assert report.timeout_near_misses == 1  # ...and counted
        assert report.completed == 1
        assert report.failed == 0

    def test_abandoned_requests_are_not_decoded(self, db, model, labeled):
        """Timed-out waiters' requests are skipped by the drain loop."""
        service = OptimizerService(model, db.name, ServeConfig(plan_cache_size=0))
        service._running = True  # queue accepts, but no drain thread yet
        with pytest.raises(ServiceTimeoutError):
            service.optimize(labeled[0], timeout=0.01)
        assert service.queue_depth == 1
        abandoned = service._queue[0]
        assert abandoned.abandoned
        service._process_batch([abandoned])
        report = service.report()
        assert report.model_calls == 0 and report.batches == 0
        assert not abandoned.done.is_set()
        service._running = False

    def test_report_counters_consistent(self, db, model, labeled):
        with OptimizerService(model, db.name, ServeConfig(max_batch_size=4)) as service:
            serve_all(service, labeled)
            report = service.report()
        assert report.completed == len(labeled)
        assert report.rejected == 0 and report.failed == 0
        assert report.batches >= 1
        assert report.batched_requests == report.batches * report.mean_batch_size
        assert report.model_calls <= len(labeled)
        assert report.queue_depth == 0
        assert report.latency is not None and report.latency.count == len(labeled)
        assert report.throughput_qps > 0
        assert report.busy_s > 0
        (utilization,) = report.replica_utilization
        assert 0.0 <= utilization <= 1.0

    def test_format_serving_report_renders(self, db, model, labeled):
        from repro.eval import format_serving_report

        with OptimizerService(model, db.name) as service:
            service.optimize(labeled[0])
            text = format_serving_report(service.report())
        assert "completed" in text and "plan cache" in text and "latency" in text
        assert "worker utilization" in text


class TestCloneForInference:
    def test_clone_for_inference_is_bit_identical_and_independent(self, db, model, labeled):
        clone = model.clone_for_inference()
        assert clone is not model
        direct = model.predict_join_orders(db.name, labeled)
        assert clone.predict_join_orders(db.name, labeled) == direct
        # (S)/(T) weight arrays are copies, never views of the source's.
        for (name, param), (clone_name, clone_param) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert name == clone_name
            assert not np.shares_memory(param.data, clone_param.data)
        # The frozen (F) is shared: the same featurizer object, held in
        # a dict of the clone's own.
        assert clone.featurizer_for(db.name) is model.featurizer_for(db.name)
        assert clone.featurizers is not model.featurizers
        # Mutating the source does not reach into the clone.
        version = clone.version
        model.mark_updated()
        assert clone.version == version
        assert clone.predict_join_orders(db.name, labeled) == direct
        # The (F) caches belong to that featurizer, so clone and source
        # read and fill one cache, and clear_cache() on either clears it.
        featurizer = model.featurizer_for(db.name)
        caches = (featurizer.encoding_cache, featurizer.node_cache)
        assert len(caches[0]) > 0 and len(caches[1]) > 0
        model.clear_cache()
        assert (len(caches[0]), len(caches[1])) == (0, 0)
        encoded = clone.encode_query(db.name, labeled[0])
        assert model.encode_query(db.name, labeled[0]) is encoded
        clone.clear_cache()
        assert (len(caches[0]), len(caches[1])) == (0, 0)

    def test_fine_tuning_a_clone_leaves_source_and_shared_featurizer_unchanged(
        self, db, model, labeled
    ):
        featurizer = model.featurizer_for(db.name)
        source_state = model.state_dict()
        featurizer_state = featurizer.state_dict()
        direct = model.predict_join_orders(db.name, labeled)
        clone = model.clone_for_inference()
        JointTrainer(clone).train([(db.name, item) for item in labeled], epochs=1, batch_size=4)
        assert clone.featurizer_for(db.name) is featurizer
        assert any(
            value.tobytes() != source_state[name].tobytes()
            for name, value in clone.state_dict().items()
        ), "the clone must actually have trained"
        for name, value in model.state_dict().items():
            assert value.tobytes() == source_state[name].tobytes(), name
        for name, value in featurizer.state_dict().items():
            assert value.tobytes() == featurizer_state[name].tobytes(), name
        assert model.predict_join_orders(db.name, labeled) == direct


class TestPlanCacheStats:
    def test_stats_is_one_atomic_reading(self):
        cache = PlanCache(4)
        assert cache.stats() == CacheStats(hits=0, misses=0, size=0)
        cache.get(("a",))  # miss
        cache.put(("a",), ["t1"])
        cache.get(("a",))  # hit
        snap = cache.stats()
        assert (snap.hits, snap.misses, snap.size) == (1, 1, 1)
        assert snap.lookups == 2
        assert snap.hit_rate == 0.5

    def test_clear_returns_retired_epoch(self):
        cache = PlanCache(4)
        cache.get(("k",))  # miss
        cache.put(("k",), ["t"])
        cache.get(("k",))  # hit
        retired = cache.clear()  # default: entries dropped, counters kept
        assert retired == CacheStats(hits=1, misses=1, size=1)
        assert len(cache) == 0
        assert cache.stats() == CacheStats(hits=1, misses=1, size=0)
        retired = cache.clear(reset_stats=True)
        assert retired == CacheStats(hits=1, misses=1, size=0)
        assert cache.stats() == CacheStats(hits=0, misses=0, size=0)

    def test_swap_starts_a_fresh_cache_epoch(self, db, model, labeled):
        """Post-swap hit rate covers the new epoch only; the retired
        epoch's totals survive in the retired_* report fields."""
        other = model.clone_for_inference()
        with OptimizerService(model, db.name) as service:
            service.optimize(labeled[0])  # miss
            service.optimize(labeled[0])  # hit
            before = service.report()
            assert before.cache_hits == 1 and before.cache_misses == 1
            service.swap_model(other)
            after = service.report()
        assert after.cache_hits == 0 and after.cache_misses == 0
        assert after.cache_hit_rate == 0.0
        assert after.retired_cache_hits == 1
        assert after.retired_cache_misses == 1
