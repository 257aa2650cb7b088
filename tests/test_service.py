"""Tests for the sweep service: job specs, rate limiting, scheduler, HTTP.

The HTTP tests run a real :class:`SweepService` on an ephemeral port
inside an event loop, with the blocking :class:`ServiceClient` driven
from a worker thread — the same split a production deployment has.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accord import AccordDesign
from repro.errors import ConfigError, ExecutionError
from repro.exec import Executor, JobKey, ResultStore, SweepJournal
from repro.exec.faults import FAULT_PLAN_ENV
from repro.exec.jobs import RESULT_SCHEMA_VERSION
from repro.experiments.common import Settings
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobspec import (
    DEFAULT_ACCESSES,
    QUICK_ACCESSES,
    QUICK_SUITE,
    expand_spec,
    key_from_canonical,
)
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.scheduler import JobManager, Overloaded, etag_for
from repro.service.server import ServiceConfig, SweepService

ACCESSES = 3000


def spec_for(**overrides):
    spec = {
        "designs": "direct,accord:2",
        "workloads": "soplex,libq",
        "accesses": ACCESSES,
    }
    spec.update(overrides)
    return spec


def serve(config, body):
    """Run a service, drive blocking ``body(client, service)`` from a
    thread, and return its result after a clean shutdown."""

    async def main():
        service = SweepService(config)
        await service.start()
        client = ServiceClient(port=service.port, timeout=120)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, body, client, service
            )
        finally:
            await service.close()

    return asyncio.run(main())


class TestJobSpec:
    def test_expands_the_cli_grid_in_order(self):
        keys, labels, workloads = expand_spec(spec_for(seed=9))
        assert labels == ["direct-1way", "ACCORD 2-way"]
        assert workloads == ["soplex", "libq"]
        expected = [
            JobKey(design=design, workload=workload,
                   num_accesses=ACCESSES, warmup=0.5, seed=9,
                   scale=1.0 / 128.0)
            for design in (AccordDesign(kind="direct", ways=1),
                           AccordDesign(kind="accord", ways=2))
            for workload in ("soplex", "libq")
        ]
        assert [k.digest() for k in keys] == [k.digest() for k in expected]

    def test_defaults_mirror_cli_settings(self):
        # The spec defaults and the CLI Settings defaults must stay in
        # lockstep, or served jobs stop being the same jobs.
        settings = Settings()
        quick = settings.quick()
        assert DEFAULT_ACCESSES == settings.num_accesses
        assert QUICK_ACCESSES == quick.num_accesses
        assert QUICK_SUITE == quick.suite
        keys, _, workloads = expand_spec({"designs": "direct"})
        assert workloads == settings.suite
        assert keys[0].num_accesses == settings.num_accesses
        assert keys[0].warmup == settings.warmup
        assert keys[0].seed == settings.seed
        assert keys[0].scale == settings.scale

    def test_quick_spec(self):
        keys, _, workloads = expand_spec({"designs": "direct", "quick": True})
        assert workloads == QUICK_SUITE
        assert all(k.num_accesses == QUICK_ACCESSES for k in keys)

    def test_run_kind_takes_one_cell(self):
        keys, _, _ = expand_spec(
            {"kind": "run", "designs": "accord:2", "workloads": "soplex"}
        )
        assert len(keys) == 1
        with pytest.raises(ConfigError):
            expand_spec({"kind": "run", "designs": "direct,accord:2",
                         "workloads": "soplex"})

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {"designs": "direct", "bogus_field": 1},
        {"designs": ""},
        {"designs": []},
        {"designs": "direct,direct"},
        {"designs": "direct", "kind": "teleport"},
        {"designs": "direct", "workloads": "soplex,soplex"},
        {"designs": "direct", "workloads": "no_such_workload"},
        {"designs": "direct", "accesses": "many"},
        {"designs": "direct", "seed": True},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            expand_spec(bad)

    def test_canonical_round_trip(self):
        keys, _, _ = expand_spec(spec_for(epoch=500))
        for key in keys:
            clone = key_from_canonical(
                json.loads(json.dumps(key.canonical()))
            )
            assert clone.digest() == key.digest()
            assert clone.epoch == key.epoch

    def test_canonical_rejects_stale_schema(self):
        data = expand_spec(spec_for())[0][0].canonical()
        data["schema"] = RESULT_SCHEMA_VERSION - 1
        with pytest.raises(ConfigError):
            key_from_canonical(data)
        with pytest.raises(ConfigError):
            key_from_canonical("nope")


class TestRateLimit:
    def test_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_bucket_never_exceeds_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=lambda: now[0])
        now[0] += 60.0
        for _ in range(3):
            assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_limiter_isolates_clients(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert limiter.check("alice") == (True, 0.0)
        allowed, wait = limiter.check("alice")
        assert not allowed and wait > 0.0
        assert limiter.check("bob")[0]  # separate bucket

    def test_limiter_bounds_tracked_clients(self):
        now = [0.0]
        limiter = RateLimiter(
            rate=1.0, burst=1.0, max_clients=2, clock=lambda: now[0]
        )
        limiter.check("a")
        limiter.check("b")
        limiter.check("c")  # evicts "a", the least recently seen
        assert len(limiter._buckets) == 2
        assert limiter.check("a")[0]  # fresh bucket: allowed again

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0.5)
        with pytest.raises(ConfigError):
            RateLimiter(rate=1.0, burst=1.0, max_clients=0)


def drain(sub):
    """Collect a subscription's events until its ``None`` sentinel."""

    async def inner():
        events = []
        while True:
            event = await asyncio.wait_for(sub.queue.get(), timeout=60)
            if event is None:
                return events
            events.append(event)

    return inner()


class TestJobManager:
    def test_duplicate_concurrent_submissions_execute_once(self, tmp_path):
        async def scenario():
            manager = JobManager(
                Executor(jobs=1), store=None, journal_batches=False
            )
            keys = expand_spec(spec_for())[0]
            try:
                # Submit twice before the dispatcher exists: the second
                # submission must ride the first's in-flight entries.
                first = manager.submit(keys)
                second = manager.submit(keys)
                assert first.counts["scheduled"] == len(keys)
                assert second.counts["deduped"] == len(keys)
                assert second.counts["scheduled"] == 0
                assert len(manager._inflight) == len(keys)
                manager.start()
                events_a, events_b = await asyncio.gather(
                    drain(first), drain(second)
                )
            finally:
                await manager.close()
            results_a = [e for e in events_a if e["event"] == "result"]
            results_b = [e for e in events_b if e["event"] == "result"]
            assert len(results_a) == len(results_b) == len(keys)
            by_key = {e["key"]: e for e in results_a}
            for event in results_b:
                # One computation, N subscribers: identical payloads.
                assert event["result"] == by_key[event["key"]]["result"]
                assert event["etag"] == etag_for(event["key"])
            assert manager.counters["executed"] == len(keys)
            assert manager.counters["deduped"] == len(keys)

        asyncio.run(scenario())

    def test_overload_sheds_whole_request(self):
        async def scenario():
            manager = JobManager(
                Executor(jobs=1), store=None, max_pending=1,
                journal_batches=False,
            )
            try:
                keys = expand_spec(spec_for())[0]  # 4 cold keys > bound 1
                with pytest.raises(Overloaded) as excinfo:
                    manager.submit(keys)
                assert excinfo.value.retry_after > 0
                # Shed whole: nothing was registered or queued.
                assert not manager._inflight
                assert not manager._queue
                assert manager.counters["shed_queue_full"] == 1
                # A request that fits is still admitted afterwards.
                sub = manager.submit(keys[:1])
                assert sub.counts["scheduled"] == 1
                manager.start()
                events = await drain(sub)
                assert events[-1]["event"] == "result"
            finally:
                await manager.close()

        asyncio.run(scenario())

    def test_resume_pending_finishes_previous_daemons_batch(self, tmp_path):
        keys = expand_spec(spec_for())[0]
        done_key, undone = keys[0], keys[1:]
        store = ResultStore(tmp_path)
        service_dir = tmp_path / "service"
        service_dir.mkdir()
        journal = SweepJournal(service_dir / "batch-dead.journal.jsonl")
        journal.begin(keys, meta={
            "service": True,
            "keys": [key.canonical() for key in keys],
        })
        journal.record_done(done_key, Executor(jobs=1).run([done_key])[done_key])
        # A stale journal from another schema must be skipped, not crash.
        bad = dict(keys[0].canonical(), schema=RESULT_SCHEMA_VERSION - 1)
        stale = SweepJournal(service_dir / "batch-stale.journal.jsonl")
        stale.begin(keys[:1], meta={"service": True, "keys": [bad]})

        async def scenario():
            manager = JobManager(Executor(jobs=1, store=store), store=store)
            try:
                manager.start()
                with pytest.warns(RuntimeWarning, match="stale"):
                    pending = manager.resume_pending()
                assert pending == len(undone)
                for _ in range(600):
                    if not manager._inflight:
                        break
                    await asyncio.sleep(0.1)
                assert not manager._inflight
            finally:
                await manager.close()
            # The journaled job replayed; only the remainder executed.
            assert manager.counters["resumed"] == 1
            assert manager.counters["executed"] == len(undone)
            for key in keys:
                assert store.get(key) is not None
            assert not list(service_dir.glob("batch-*.journal.jsonl"))

        asyncio.run(scenario())


def parse_request(data: bytes, max_body: int = protocol.MAX_BODY_BYTES):
    """Run :func:`protocol.read_request` over ``data`` then EOF."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_request(reader, max_body=max_body)

    return asyncio.run(go())


def raw_request(*headers: str, body: bytes = b"") -> bytes:
    head = "".join(f"{h}\r\n" for h in ("POST /jobs HTTP/1.1",) + headers)
    return (head + "\r\n").encode("latin-1") + body


_TARGET = st.lists(st.sampled_from([
    "/", "jobs", "?", "x=1", "&", "%ff", "http://", "[", "::1", "]", "#", "\x85",
]), min_size=1, max_size=6).map("".join)
_HEADER = st.builds(
    "{}:{}".format,
    st.sampled_from(["Content-Length", "content-length", "Transfer-Encoding",
                     "Accept", "X", ""]),
    st.sampled_from(["5", " 5 ", "0", "12", "+5", "-0", "0_5", "\xb2", "9" * 30,
                     "chunked", "text/event-stream", "", "\xa0"]),
)
_LINE = st.builds(
    "{} {} {}".format,
    st.sampled_from(["GET", "POST", "get"]),
    _TARGET,
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2"]),
)

#: Byte strings that are request-shaped often enough to get past the
#: request line and headers, mixed with arbitrary bytes. ``cut``
#: truncates the head (``None`` keeps it whole).
_REQUEST_BYTES = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda line, headers, body, cut: (
            "".join(f"{h}\r\n" for h in [line] + headers) + "\r\n"
        ).encode("latin-1")[:cut] + body,
        _LINE,
        st.lists(_HEADER, max_size=4),
        st.binary(max_size=40),
        st.one_of(st.none(), st.integers(0, 200)),
    ),
)


class TestRequestParser:
    """``read_request`` on arbitrary bytes: a Request, None or 4xx."""

    @settings(max_examples=300, deadline=None)
    @given(data=_REQUEST_BYTES, max_body=st.integers(0, 64))
    def test_arbitrary_bytes_parse_or_raise_protocol_error(self, data, max_body):
        try:
            request = parse_request(data, max_body=max_body)
        except protocol.ProtocolError as exc:
            assert exc.status in (400, 413)
            return
        assert (request is None) == (data == b"")
        if request is not None:
            assert len(request.body) <= max_body
            length = request.headers.get("content-length")
            if length is not None:
                assert length.isascii() and length.isdigit()
                assert len(request.body) == int(length)

    @pytest.mark.parametrize("value", ["+5", "0_5", "-0", "5 5", "0x5", "\xb2", ""])
    def test_content_length_must_be_ascii_digits(self, value):
        data = raw_request(f"Content-Length: {value}", body=b"hello")
        with pytest.raises(protocol.ProtocolError) as info:
            parse_request(data)
        assert info.value.status == 400

    def test_differing_duplicate_content_lengths_rejected(self):
        data = raw_request("Content-Length: 5", "Content-Length: 2",
                           body=b"hello")
        with pytest.raises(protocol.ProtocolError) as info:
            parse_request(data)
        assert info.value.status == 400

    def test_identical_duplicate_content_lengths_accepted(self):
        data = raw_request("Content-Length: 5", "content-length: 5",
                           body=b"hello")
        assert parse_request(data).body == b"hello"

    @pytest.mark.parametrize("length", ["6", "9" * 5000])
    def test_oversized_body_is_413(self, length):
        data = raw_request(f"Content-Length: {length}", body=b"hello!")
        with pytest.raises(protocol.ProtocolError) as info:
            parse_request(data, max_body=5)
        assert info.value.status == 413

    def test_unparseable_target_is_400(self):
        with pytest.raises(protocol.ProtocolError) as info:
            parse_request(b"GET http://[::1 HTTP/1.1\r\n\r\n")
        assert info.value.status == 400


class TestServiceHTTP:
    def config(self, tmp_path, **overrides):
        kwargs = dict(
            port=0, results_dir=str(tmp_path / "store"),
            rate=1000.0, burst=1000.0,
        )
        kwargs.update(overrides)
        return ServiceConfig(**kwargs)

    def test_round_trip_bit_identical_to_cli_executor(self, tmp_path):
        spec = spec_for()
        keys = expand_spec(spec)[0]
        reference = Executor(jobs=1).run(keys)

        def body(client, service):
            events = []
            results = client.submit(spec, on_event=lambda e: events.append(e))
            kinds = [e.get("event") for e in events]
            assert kinds[0] == "accepted"
            assert kinds[-1] == "done"
            assert kinds.count("result") == len(keys)
            return results

        results = serve(self.config(tmp_path), body)
        for key in keys:
            event = results[key.digest()]
            assert event["source"] == "run"
            assert event["etag"] == etag_for(key.digest())
            assert event["result"] == reference[key].to_dict()

    def test_warm_resubmit_is_served_from_store(self, tmp_path):
        spec = spec_for()

        def body(client, service):
            first = client.submit(spec)
            assert all(e["source"] == "run" for e in first.values())
            scheduled = service.manager.counters["scheduled"]
            second = client.submit(spec)
            assert all(e["source"] == "cached" for e in second.values())
            # Nothing new was scheduled: answered straight from the store.
            assert service.manager.counters["scheduled"] == scheduled
            assert service.manager.counters["store_hits"] == len(second)
            for digest, event in first.items():
                assert second[digest]["result"] == event["result"]

        serve(self.config(tmp_path), body)

    def test_rate_limit_answers_429(self, tmp_path):
        def body(client, service):
            client.health()  # health is never rate limited
            assert len(client.submit(spec_for(workloads="soplex"))) == 2
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec_for(workloads="libq"))
            err = excinfo.value
            assert err.status == 429
            assert err.retry_after is not None and err.retry_after > 0
            assert err.exit_code == 3
            assert err.payload["error"]["retryable"] is True
            assert service.manager.counters["shed_rate_limited"] == 1

        serve(self.config(tmp_path, rate=0.001, burst=1.0), body)

    def test_queue_overflow_answers_503(self, tmp_path):
        def body(client, service):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec_for())  # 4 cold keys > max_pending 1
            err = excinfo.value
            assert err.status == 503
            assert err.retry_after is not None and err.retry_after > 0
            assert err.payload["error"]["kind"] == "execution"
            assert err.payload["error"]["retryable"] is True
            # A request that fits the bound still goes through.
            results = client.submit(
                spec_for(designs="direct", workloads="soplex")
            )
            assert len(results) == 1

        serve(self.config(tmp_path, max_pending=1), body)

    def test_bad_spec_answers_400_config(self, tmp_path):
        def body(client, service):
            with pytest.raises(ServiceError) as excinfo:
                list(client.stream_job({"designs": "direct", "bogus": 1}))
            err = excinfo.value
            assert err.status == 400
            assert err.exit_code == 2
            assert err.payload["error"]["kind"] == "config"
            assert err.payload["error"]["retryable"] is False

        serve(self.config(tmp_path), body)

    def test_health_metrics_and_unknown_endpoint(self, tmp_path):
        def body(client, service):
            health = client.health()
            assert health["status"] == "ok"
            assert health["schema_version"] == RESULT_SCHEMA_VERSION
            client.submit(spec_for(designs="direct", workloads="soplex"))
            metrics = client.metrics()
            assert metrics["counters"]["completed"] == 1
            assert metrics["store"]["lookups"] >= 1
            with pytest.raises(ServiceError) as excinfo:
                client._get_json("/no/such/endpoint")
            assert excinfo.value.status == 404

        serve(self.config(tmp_path), body)

    def test_phase_events_stream_per_epoch(self, tmp_path):
        spec = spec_for(designs="accord:2", workloads="soplex", epoch=500)
        key = expand_spec(spec)[0][0]
        reference = Executor(jobs=1).run([key])[key]

        def body(client, service):
            events = []
            client.submit(spec, on_event=lambda e: events.append(e))
            return events

        events = serve(self.config(tmp_path), body)
        phases = [e for e in events if e["event"] == "phase"]
        assert phases, "epoch specs must stream phase events"
        assert [p["sample"]["index"] for p in phases] == \
            [s.index for s in reference.phases]
        assert [p["sample"]["hits"] for p in phases] == \
            [s.hits for s in reference.phases]
        # Phases arrive before the result they belong to.
        kinds = [e["event"] for e in events]
        assert kinds.index("phase") < kinds.index("result")


class TestServiceChaos:
    def config(self, tmp_path, **overrides):
        kwargs = dict(
            port=0, results_dir=str(tmp_path / "store"),
            rate=1000.0, burst=1000.0,
        )
        kwargs.update(overrides)
        return ServiceConfig(**kwargs)

    def test_transient_faults_retry_to_completion(
        self, tmp_path, monkeypatch
    ):
        spec = spec_for()
        keys = expand_spec(spec)[0]
        reference = Executor(jobs=1).run(keys)
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"seed=13;os_error=2;dir={tmp_path / 'ledger'}",
        )

        def body(client, service):
            return client.submit(spec)

        results = serve(self.config(tmp_path, retries=3), body)
        for key in keys:
            assert results[key.digest()]["result"] == reference[key].to_dict()

    def test_exhausted_faults_end_in_clean_retryable_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"seed=13;os_error=99;dir={tmp_path / 'ledger2'}",
        )

        def body(client, service):
            events = list(client.stream_job(spec_for()))
            # The stream terminated cleanly (stream_job raises if the
            # 'done' line never arrives), and every failed key carries
            # the documented execution-error payload.
            assert events[-1]["event"] == "done"
            errors = [e for e in events if e["event"] == "error"]
            assert errors
            for event in errors:
                assert event["error"]["kind"] == "execution"
                assert event["error"]["exit_code"] == 3
                assert event["error"]["retryable"] is True
            # submit() surfaces the failure as ExecutionError.
            with pytest.raises(ExecutionError):
                client.submit(spec_for(seed=11))
            return events

        serve(self.config(tmp_path, retries=0), body)
