"""Unit: the content-addressed result cache — hit/miss/invalidation,
concurrent-writer safety and integrity re-hash."""

import json
import os
import threading

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache, default_cache_root
from repro.experiments.scaling import ScalingPoint, ScalingResult
from repro.experiments.table4 import Table4Result


@pytest.fixture
def spec():
    return registry.get("scaling")


@pytest.fixture
def result():
    return ScalingResult(points=[ScalingPoint(20, 74.8, 206.8)])


class TestAddressing:
    def test_key_is_stable_and_param_sensitive(self, spec):
        c = ResultCache("/tmp/unused", version="1")
        k1 = c.key(spec, {"sizes": (20,)})
        assert k1 == c.key(spec, {"sizes": (20,)})
        assert k1 != c.key(spec, {"sizes": (20, 200)})

    def test_key_ignores_param_order_and_tuple_vs_list(self, spec):
        c = ResultCache("/tmp/unused", version="1")
        faults = registry.get("faults")
        assert c.key(faults, {"iters": 5, "drops": (0.0,)}) == c.key(
            faults, {"drops": [0.0], "iters": 5}
        )

    def test_key_depends_on_version_and_spec(self, spec):
        params = {"sizes": (20,)}
        assert ResultCache("/tmp/x", version="1").key(spec, params) != ResultCache(
            "/tmp/x", version="2"
        ).key(spec, params)
        c = ResultCache("/tmp/x", version="1")
        assert c.key(spec, {}) != c.key(registry.get("table1"), {})

    def test_default_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        assert default_cache_root() == tmp_path / "cc"


class TestLoadStore:
    def test_miss_then_hit_round_trips(self, tmp_path, spec, result):
        c = ResultCache(tmp_path)
        params = spec.validate({"sizes": (20,)})
        assert c.load(spec, params) is None
        path = c.store(spec, params, result)
        assert path is not None and path.exists()
        back = c.load(spec, params)
        assert back == result
        assert (c.hits, c.misses, c.stores) == (1, 1, 1)

    def test_params_change_is_a_miss(self, tmp_path, spec, result):
        c = ResultCache(tmp_path)
        c.store(spec, {"sizes": (20,)}, result)
        assert c.load(spec, {"sizes": (200,)}) is None

    def test_version_change_is_a_miss(self, tmp_path, spec, result):
        ResultCache(tmp_path, version="1.0").store(spec, {"sizes": (20,)}, result)
        assert ResultCache(tmp_path, version="1.1").load(spec, {"sizes": (20,)}) is None
        assert ResultCache(tmp_path, version="1.0").load(spec, {"sizes": (20,)}) == result

    def test_corrupt_file_is_a_miss(self, tmp_path, spec, result):
        c = ResultCache(tmp_path)
        path = c.store(spec, {"sizes": (20,)}, result)
        path.write_text("{not json", encoding="utf-8")
        assert c.load(spec, {"sizes": (20,)}) is None

    def test_non_cacheable_spec_never_stores(self, tmp_path):
        trace = registry.get("trace")
        c = ResultCache(tmp_path)
        assert c.store(trace, {}, object()) is None
        assert c.load(trace, {}) is None
        assert c.stores == 0

    def test_envelope_is_readable_json_with_provenance(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="9.9")
        path = c.store(spec, spec.validate({"sizes": (20,)}), result)
        envelope = json.loads(path.read_text())
        assert envelope["spec"] == "scaling"
        assert envelope["version"] == "9.9"
        assert envelope["params"]["sizes"] == [20]
        assert ScalingResult.from_json(envelope["result"]) == result

    def test_table4_envelope_round_trips_none_fields(self, tmp_path):
        spec = registry.get("table4")
        c = ResultCache(tmp_path)
        result = Table4Result(am_rtt_us=54.4, mpl_rtt_us=None)
        c.store(spec, spec.validate(), result)
        assert c.load(spec, spec.validate()) == result


class TestConcurrentWriters:
    def test_temp_names_are_unique_per_call(self, tmp_path, spec):
        c = ResultCache(tmp_path, version="1")
        target = c.path(spec, {"sizes": (20,)})
        t1, t2 = ResultCache._tmp_path(target), ResultCache._tmp_path(target)
        # the regression: a shared "<key>.tmp" let two writers of the
        # same key interleave partial JSON before the rename
        assert t1 != t2
        assert t1.parent == t2.parent == target.parent
        assert str(os.getpid()) in t1.name

    def test_hammering_one_key_never_corrupts_it(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        params = spec.validate({"sizes": (20,)})
        n_threads, n_rounds = 8, 12
        barrier = threading.Barrier(n_threads)
        failures = []

        def writer():
            try:
                barrier.wait()
                for _ in range(n_rounds):
                    c.store(spec, params, result)
                    loaded = ResultCache(tmp_path, version="1").load(spec, params)
                    if loaded is not None and loaded != result:
                        failures.append(loaded)
            except Exception as exc:  # pragma: no cover - the test's point
                failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert c.load(spec, params) == result
        assert not list(tmp_path.glob("*/*.tmp"))  # every temp was renamed


class TestIntegrity:
    def test_tampered_payload_is_a_miss_and_is_deleted(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        params = spec.validate({"sizes": (20,)})
        path = c.store(spec, params, result)
        envelope = json.loads(path.read_text())
        envelope["result"]["points"][0]["sc_us"] = 999.0  # bit-rot
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert c.load(spec, params) is None
        assert c.integrity_failures == 1
        assert not path.exists()  # the bad envelope is gone
        # and a fresh store repairs the entry
        c.store(spec, params, result)
        assert c.load(spec, params) == result

    def test_pre_integrity_envelope_still_loads(self, tmp_path, spec, result):
        """Envelopes without a sha256 field (older writers) stay valid."""
        c = ResultCache(tmp_path, version="1")
        params = spec.validate({"sizes": (20,)})
        path = c.store(spec, params, result)
        envelope = json.loads(path.read_text())
        del envelope["sha256"]
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert c.load(spec, params) == result
        assert c.integrity_failures == 0
