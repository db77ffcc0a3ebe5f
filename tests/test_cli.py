"""CLI tests: every subcommand exercised through main()."""

import json

import pytest

from repro.cli import main
from repro.core.serialize import load_labeling


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    rc = main(
        ["generate", "--family", "grid", "--n", "64", "--seed", "1", "--out", str(path)]
    )
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_parseable_graph(self, graph_file):
        from repro.graphs.io import read_edge_list

        g = read_edge_list(graph_file)
        assert g.num_vertices == 64

    @pytest.mark.parametrize(
        "family", ["tree", "series-parallel", "ktree", "planar", "road"]
    )
    def test_families(self, tmp_path, family):
        out = tmp_path / f"{family}.edges"
        rc = main(
            ["generate", "--family", family, "--n", "40", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_weights_flag(self, tmp_path):
        out = tmp_path / "w.edges"
        rc = main(
            [
                "generate", "--family", "tree", "--n", "30",
                "--weights", "2.0,5.0", "--out", str(out),
            ]
        )
        assert rc == 0
        from repro.graphs.io import read_edge_list

        g = read_edge_list(out)
        assert all(2.0 <= w <= 5.0 for _, _, w in g.edges())

    def test_unknown_family_fails_cleanly(self, tmp_path, capsys):
        rc = main(
            ["generate", "--family", "nope", "--n", "10",
             "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert "unknown family" in capsys.readouterr().err


class TestDecompose:
    def test_prints_stats(self, graph_file, capsys):
        assert main(["decompose", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "max_paths_per_node" in out

    def test_explicit_engine(self, graph_file, capsys):
        assert main(["decompose", str(graph_file), "--engine", "greedy"]) == 0


class TestOracle:
    def test_reports_stretch_within_bound(self, graph_file, capsys):
        rc = main(
            ["oracle", str(graph_file), "--epsilon", "0.3", "--queries", "30"]
        )
        assert rc == 0  # rc 1 would mean the guarantee was violated
        assert "max stretch" in capsys.readouterr().out


class TestLabelsAndQuery:
    def test_export_then_query(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(
            ["labels", str(graph_file), "--epsilon", "0.25", "--out", str(labels)]
        ) == 0
        payload = json.loads(labels.read_text())
        assert payload["format"] == "repro-distance-labels/1"
        assert main(["query", str(labels), "0", "63"]) == 0
        assert "d(0, 63)" in capsys.readouterr().out

    def test_query_unknown_vertex(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        main(["labels", str(graph_file), "--out", str(labels)])
        assert main(["query", str(labels), "0", "99999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "99999" in err
        assert "Traceback" not in err

    def test_query_malformed_labels_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["query", str(bad), "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_query_malformed_portal_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format":"repro-distance-labels/1","epsilon":0.25,'
            '"labels":[{"v":1,"e":{"0:0:0":[[1]]}}]}'
        )
        assert main(["query", str(bad), "1", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "holds portal [1]" in err
        assert len(err.strip().splitlines()) == 1

    def test_query_wrong_format_labels_file(self, tmp_path, capsys):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"format": "something-else/9", "labels": []}))
        assert main(["query", str(bad), "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "something-else/9" in err

    def test_query_row_layout_binary_file_names_repro_pack(self, capsys):
        # A /2 file written before the columnar records is refused with
        # one line that says how to replace it, by the store loader too.
        from pathlib import Path

        from repro.core.serialize import SerializationError
        from repro.serve import ShardedLabelStore

        old = Path(__file__).parent / "data" / "row_layout_n64.labels.bin"
        assert main(["query", str(old), "0", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "`repro pack`" in err
        assert len(err.strip().splitlines()) == 1
        with pytest.raises(SerializationError, match="row-layout.*`repro pack`"):
            ShardedLabelStore.load(old)

    def test_query_missing_labels_file(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "labels.json"
        assert main(["query", str(missing), "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_labels_missing_graph_file(self, tmp_path, capsys):
        assert main(
            ["labels", str(tmp_path / "absent.edges"),
             "--out", str(tmp_path / "l.json")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_query_future_format_version(self, tmp_path, capsys):
        bad = tmp_path / "future.json"
        bad.write_text(
            json.dumps(
                {"format": "repro-distance-labels/99", "epsilon": 0.1,
                 "labels": []}
            )
        )
        assert main(["query", str(bad), "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unsupported labels format version 99" in err
        assert len(err.strip().splitlines()) == 1


class TestPack:
    """``repro pack``: codec conversion with exact-reproduction verify."""

    @pytest.fixture
    def labels_json(self, graph_file, tmp_path):
        path = tmp_path / "labels.json"
        assert main(
            ["labels", str(graph_file), "--epsilon", "0.25", "--out", str(path)]
        ) == 0
        return path

    def test_json_to_binary_and_back_is_byte_identical(
        self, labels_json, tmp_path, capsys
    ):
        packed = tmp_path / "labels.bin"
        back = tmp_path / "back.json"
        assert main(["pack", str(labels_json), str(packed), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "binary" in out
        from repro.core.binfmt import is_binary_labels

        assert is_binary_labels(packed.read_bytes())
        assert main(["pack", str(packed), str(back), "--verify"]) == 0
        # /1 -> /2 -> /1 reproduces the original file byte-for-byte.
        assert back.read_bytes() == labels_json.read_bytes()

    def test_queries_identical_across_codecs(
        self, labels_json, tmp_path, capsys
    ):
        packed = tmp_path / "labels.bin"
        assert main(["pack", str(labels_json), str(packed)]) == 0
        capsys.readouterr()
        assert main(["query", str(labels_json), "0", "63"]) == 0
        from_json = capsys.readouterr().out
        assert main(["query", str(packed), "0", "63"]) == 0
        assert capsys.readouterr().out == from_json

    def test_labels_codec_binary_matches_pack_output(
        self, graph_file, labels_json, tmp_path
    ):
        direct = tmp_path / "direct.bin"
        packed = tmp_path / "packed.bin"
        assert main(
            ["labels", str(graph_file), "--epsilon", "0.25",
             "--codec", "binary", "--out", str(direct)]
        ) == 0
        assert main(["pack", str(labels_json), str(packed)]) == 0
        assert direct.read_bytes() == packed.read_bytes()

    def test_explicit_to_same_codec_canonicalizes(self, labels_json, tmp_path):
        out = tmp_path / "canon.json"
        assert main(
            ["pack", str(labels_json), str(out), "--to", "json", "--verify"]
        ) == 0
        assert out.read_bytes() == labels_json.read_bytes()

    @pytest.mark.parametrize("codec", ["binary", "json"])
    def test_verify_catches_a_changed_portal(
        self, labels_json, tmp_path, monkeypatch, capsys, codec
    ):
        # A writer that moves one portal distance keeps every vertex and
        # key in place, so only a compare of label content catches it.
        from repro import cli
        from repro.core.flat import FlatLabel
        from repro.core.serialize import RemoteLabels

        real_dump = cli.dump_labeling

        def tampering_dump(labeling, path, **kwargs):
            labels = dict(labeling.labels)
            v, label = next((v, l) for v, l in labels.items() if l.num_portals)
            entries = label.entries()
            key = next(k for k, portals in entries.items() if portals)
            pos, dist = entries[key][0]
            entries[key][0] = (pos, dist + 1.0)
            labels[v] = FlatLabel.from_entries(v, entries)
            return real_dump(RemoteLabels(labeling.epsilon, labels), path, **kwargs)

        monkeypatch.setattr(cli, "dump_labeling", tampering_dump)
        out = tmp_path / f"tampered.{codec}"
        assert main(
            ["pack", str(labels_json), str(out), "--to", codec, "--verify"]
        ) != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "verification failed" in err

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["pack", str(tmp_path / "absent.json"), str(tmp_path / "out.bin")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["pack", str(bad), str(tmp_path / "out.bin")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_truncated_binary_fails_cleanly(self, labels_json, tmp_path, capsys):
        packed = tmp_path / "labels.bin"
        assert main(["pack", str(labels_json), str(packed)]) == 0
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(packed.read_bytes()[:-10])
        assert main(["query", str(clipped), "0", "63"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestQueryBatch:
    @pytest.fixture
    def labels_file(self, graph_file, tmp_path):
        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        return labels

    def test_pairs_file_amortizes_one_load(self, labels_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# u v\n0 63\n5 40\n\n7 3\n")
        assert main(["query", str(labels_file), "--pairs-file", str(pairs)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert out[0].startswith("0 63 ")
        # Each line's estimate matches a single-pair query of the same pair.
        from repro.core.serialize import load_labeling

        remote = load_labeling(labels_file)
        for line, (u, v) in zip(out, [(0, 63), (5, 40), (7, 3)]):
            assert line == f"{u} {v} {remote.estimate(u, v):.6g}"

    def test_pairs_file_stdin(self, labels_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 63\n1 2\n"))
        assert main(["query", str(labels_file), "--pairs-file", "-"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_positional_and_pairs_file_conflict(self, labels_file, tmp_path,
                                                capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n")
        rc = main(
            ["query", str(labels_file), "0", "1", "--pairs-file", str(pairs)]
        )
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_vertices_without_pairs_file(self, labels_file, capsys):
        assert main(["query", str(labels_file)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_pairs_file(self, labels_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1 2\n")
        assert main(
            ["query", str(labels_file), "--pairs-file", str(pairs)]
        ) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestJobs:
    def test_jobs_matches_serial_and_is_reproducible(
        self, graph_file, tmp_path, capsys
    ):
        serial = tmp_path / "serial.json"
        par_a = tmp_path / "par_a.json"
        par_b = tmp_path / "par_b.json"
        base = ["labels", str(graph_file), "--epsilon", "0.25", "--seed", "7"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "4", "--out", str(par_a)]) == 0
        assert main(base + ["--jobs", "4", "--out", str(par_b)]) == 0
        capsys.readouterr()
        # Two parallel runs agree with each other AND with serial,
        # byte for byte.
        assert par_a.read_bytes() == par_b.read_bytes()
        assert par_a.read_bytes() == serial.read_bytes()

    def test_jobs_flag_on_oracle_and_stats(self, graph_file, capsys):
        for cmd in ("oracle", "stats"):
            rc = main([cmd, str(graph_file), "--queries", "5", "--jobs", "2"])
            assert rc == 0
            capsys.readouterr()


class TestSmallworld:
    def test_comparison_table(self, graph_file, capsys):
        rc = main(["smallworld", str(graph_file), "--pairs", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("path-separator", "kleinberg", "uniform", "none"):
            assert name in out

    def test_pair_sampling_excludes_self_pairs(self):
        import random

        from repro.cli import _sample_distinct_pairs

        # Two vertices force a 50% self-pair rate under naive sampling;
        # the resampling loop must return only u != v pairs.
        pairs = _sample_distinct_pairs([0, 1], 100, random.Random(0))
        assert len(pairs) == 100
        assert all(u != v for u, v in pairs)


class TestServeAndLoadgen:
    """End-to-end through the CLI entry points, in one process."""

    def test_serve_loadgen_round_trip(self, graph_file, tmp_path, capsys):
        import asyncio
        import json as json_mod
        import threading

        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0

        from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog

        catalog = StoreCatalog()
        catalog.add(ShardedLabelStore.load(labels))
        server = OracleServer(catalog, port=0, cache_size=64)
        started = threading.Event()
        loop_holder = {}

        def serve_thread():
            async def body():
                await server.start()
                loop_holder["loop"] = asyncio.get_running_loop()
                started.set()
                await server.serve_until_shutdown()

            asyncio.run(body())

        thread = threading.Thread(target=serve_thread)
        thread.start()
        try:
            assert started.wait(10)
            bench = tmp_path / "BENCH_serve.json"
            rc = main(
                [
                    "loadgen",
                    "--port", str(server.port),
                    "--labels", str(labels),
                    "--pairs", "60",
                    "--concurrency", "4",
                    "--verify",
                    "--bench-out", str(bench),
                ]
            )
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            assert "qps" in captured.out
            payload = json_mod.loads(bench.read_text())
            assert payload["format"] == "repro-bench/1"
            assert payload["meta"]["qps"] > 0
            assert payload["meta"]["mismatches"] == 0
            assert payload["meta"]["latency_ms"]["p99"] >= 0
        finally:
            loop_holder["loop"].call_soon_threadsafe(server.request_shutdown)
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_serve_and_verify_from_binary_labels(
        self, graph_file, tmp_path, capsys
    ):
        # The whole serve pipeline on a packed /2 file: the catalog
        # sniffs the codec and mmaps, and loadgen's --verify compares
        # every served byte against the same binary file loaded offline.
        import asyncio
        import threading

        labels_json = tmp_path / "labels.json"
        labels_bin = tmp_path / "labels.bin"
        assert main(["labels", str(graph_file), "--out", str(labels_json)]) == 0
        assert main(["pack", str(labels_json), str(labels_bin)]) == 0

        from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog

        catalog = StoreCatalog()
        store = catalog.add(ShardedLabelStore.load(labels_bin))
        assert store.codec == "binary"
        server = OracleServer(catalog, port=0, cache_size=64)
        started = threading.Event()
        loop_holder = {}

        def serve_thread():
            async def body():
                await server.start()
                loop_holder["loop"] = asyncio.get_running_loop()
                started.set()
                await server.serve_until_shutdown()

            asyncio.run(body())

        thread = threading.Thread(target=serve_thread)
        thread.start()
        try:
            assert started.wait(10)
            rc = main(
                [
                    "loadgen",
                    "--port", str(server.port),
                    "--labels", str(labels_bin),
                    "--pairs", "40",
                    "--concurrency", "4",
                    "--verify",
                ]
            )
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            assert "qps" in captured.out
        finally:
            loop_holder["loop"].call_soon_threadsafe(server.request_shutdown)
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_loadgen_without_pair_source(self, capsys):
        assert main(["loadgen", "--port", "1"]) == 2
        assert "need --labels" in capsys.readouterr().err

    def test_loadgen_verify_needs_labels(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n")
        rc = main(
            ["loadgen", "--port", "1", "--pairs-file", str(pairs), "--verify"]
        )
        assert rc == 2
        assert "--verify needs --labels" in capsys.readouterr().err

    def test_loadgen_connection_refused(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        # Port 1 is never listening: a zeros-and-errors report with the
        # refusal noted on stderr, exit 1 — never a traceback.
        rc = main(
            ["loadgen", "--port", "1", "--labels", str(labels), "--pairs", "4",
             "--attempt-timeout", "0.5"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "note:" in captured.err  # the root cause survives as a sample
        out = captured.out
        assert "queries_ok" in out and "errors" in out

    def test_serve_refuses_future_format(self, tmp_path, capsys):
        bad = tmp_path / "future.json"
        bad.write_text(
            '{"format": "repro-distance-labels/99", "epsilon": 0.1, "labels": []}'
        )
        assert main(["serve", "--labels", str(bad), "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "unsupported labels format version 99" in err

    def test_serve_refuses_bad_fault_plan(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text('{"format": "repro-fault-plan/1", "rules": '
                        '[{"kind": "meteor", "rate": 0.1}]}')
        rc = main(["serve", "--labels", str(labels), "--port", "0",
                   "--fault-plan", str(plan)])
        assert rc == 2
        assert "unknown fault kind" in capsys.readouterr().err


class TestChaos:
    def test_chaos_absorbs_default_plan(self, graph_file, tmp_path, capsys):
        import json as json_mod

        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        bench = tmp_path / "BENCH_chaos.json"
        rc = main(
            ["chaos", "--labels", str(labels), "--pairs", "40",
             "--concurrency", "4", "--retries", "6",
             "--attempt-timeout", "1.0", "--bench-out", str(bench)]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "fault injections" in captured.out
        payload = json_mod.loads(bench.read_text())
        assert payload["format"] == "repro-bench/1"
        assert payload["name"] == "chaos"
        assert payload["meta"]["mismatches"] == 0
        assert payload["meta"]["queries_ok"] == 40
        assert payload["meta"]["fault_plan"]["format"] == "repro-fault-plan/1"
        # The default plan delays every reply and drops ~10%: the run
        # must actually have exercised the fault path, not dodged it.
        assert payload["meta"]["faults_injected"].get("delay", 0) > 0

    def test_chaos_rejects_bad_plan(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text('{"format": "repro-fault-plan/2", "rules": []}')
        rc = main(["chaos", "--labels", str(labels),
                   "--fault-plan", str(plan)])
        assert rc == 2
        assert "unsupported fault-plan format" in capsys.readouterr().err


class TestQueryRemote:
    @staticmethod
    def _serve(labels_path):
        """Start an OracleServer on a background thread; return
        (server, stop callable)."""
        import asyncio
        import threading

        from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog

        catalog = StoreCatalog()
        catalog.add(ShardedLabelStore.load(labels_path))
        server = OracleServer(catalog, port=0)
        started = threading.Event()
        loop_holder = {}

        def body():
            async def run():
                await server.start()
                loop_holder["loop"] = asyncio.get_running_loop()
                started.set()
                await server.serve_until_shutdown()

            asyncio.run(run())

        thread = threading.Thread(target=body)
        thread.start()
        assert started.wait(10)

        def stop():
            loop_holder["loop"].call_soon_threadsafe(server.request_shutdown)
            thread.join(timeout=10)

        return server, stop

    def test_remote_matches_offline(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        remote = load_labeling(labels)
        u, v = sorted(remote.vertices())[:2]
        server, stop = self._serve(labels)
        try:
            rc = main(["query", "--remote", f"127.0.0.1:{server.port}",
                       str(u), str(v)])
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            assert f"d({u}, {v}) <= {remote.estimate(u, v):.6g}" in captured.out
        finally:
            stop()

    def test_remote_pairs_file(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        remote = load_labeling(labels)
        vs = sorted(remote.vertices())
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"{vs[0]} {vs[1]}\n{vs[2]} {vs[3]}\n")
        capsys.readouterr()  # drain the `labels` subcommand's output
        server, stop = self._serve(labels)
        try:
            rc = main(["query", "--remote", f"127.0.0.1:{server.port}",
                       "--pairs-file", str(pairs)])
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            lines = captured.out.strip().splitlines()
            assert lines == [
                f"{u} {v} {remote.estimate(u, v):.6g}"
                for u, v in [(vs[0], vs[1]), (vs[2], vs[3])]
            ]
        finally:
            stop()

    def test_remote_unknown_vertex_is_error(self, graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(["labels", str(graph_file), "--out", str(labels)]) == 0
        server, stop = self._serve(labels)
        try:
            rc = main(["query", "--remote", f"127.0.0.1:{server.port}",
                       "0", "no-such-vertex"])
            assert rc == 2
            assert "unknown_vertex" in capsys.readouterr().err
        finally:
            stop()

    def test_query_needs_labels_or_remote(self, capsys):
        assert main(["query"]) == 2
        assert "need a labels file" in capsys.readouterr().err


class TestDecomposeDot:
    def test_dot_export(self, graph_file, tmp_path, capsys):
        dot = tmp_path / "tree.dot"
        rc = main(["decompose", str(graph_file), "--dot", str(dot)])
        assert rc == 0
        text = dot.read_text()
        assert text.startswith("digraph")


class TestStats:
    def test_per_phase_and_per_level_breakdown(self, graph_file, capsys):
        rc = main(["stats", str(graph_file), "--queries", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        # Per-phase rows for every pipeline stage.
        for phase in ("oracle.build", "decomposition.build", "labeling.build",
                      "oracle.query_eval"):
            assert phase in out
        assert "per-level decomposition breakdown" in out
        # At least 8 distinct named metrics in the catalog.
        names = {
            line.split()[0]
            for line in out.splitlines()
            if line.strip() and "." in line.split()[0]
        }
        metric_names = {n for n in names if not n.endswith(":")}
        assert len(metric_names) >= 8, sorted(metric_names)

    def test_metrics_out_json_matches(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        rc = main(
            ["stats", str(graph_file), "--queries", "10",
             "--metrics-out", str(out_path)]
        )
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-metrics/1"
        assert payload["n"] == 64
        counters = payload["metrics"]["counters"]
        gauges = payload["metrics"]["gauges"]
        assert counters["oracle.query.count"] == 10
        assert gauges["labeling.words"] > 0
        # Per-level JSON agrees with the decomposition's own accounting.
        level0 = [lv for lv in payload["levels"] if lv["level"] == 0][0]
        assert level0["nodes"] == 1
        assert counters["decomposition.nodes"] == sum(
            lv["nodes"] for lv in payload["levels"]
        )
        assert payload["metrics"]["histograms"]["oracle.query.stretch"]["count"] == 10

    def test_stats_respects_stretch_bound(self, graph_file):
        assert main(["stats", str(graph_file), "--queries", "5"]) == 0


class TestObservabilityFlags:
    def test_trace_logs_spans_to_stderr(self, graph_file, capsys):
        rc = main(["oracle", str(graph_file), "--queries", "5", "--trace"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[trace] oracle.build" in err
        assert "[trace]   decomposition.build" in err

    def test_metrics_out_on_other_commands(self, graph_file, tmp_path):
        out_path = tmp_path / "m.json"
        rc = main(
            ["decompose", str(graph_file), "--metrics-out", str(out_path)]
        )
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "decompose"
        assert payload["metrics"]["counters"]["decomposition.nodes"] > 0


class TestSeedDeterminism:
    def test_same_seed_same_output(self, graph_file, capsys):
        main(["decompose", str(graph_file), "--engine", "greedy", "--seed", "7"])
        first = capsys.readouterr().out
        main(["decompose", str(graph_file), "--engine", "greedy", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_reaches_engine(self, graph_file, capsys):
        # Different seeds may legitimately produce identical stats on a
        # small grid, but the flag must parse and run everywhere.
        for cmd in ("decompose", "stats"):
            rc = main([cmd, str(graph_file), "--engine", "greedy", "--seed", "3"])
            assert rc == 0
            capsys.readouterr()


class TestGenerateRandomFamilies:
    def test_gnp_with_default_p(self, tmp_path):
        out = tmp_path / "gnp.edges"
        rc = main(
            ["generate", "--family", "gnp", "--n", "50", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        from repro.graphs import is_connected
        from repro.graphs.io import read_edge_list

        g = read_edge_list(out)
        assert g.num_vertices == 50 and is_connected(g)

    def test_gnp_with_explicit_p(self, tmp_path):
        out = tmp_path / "gnp.edges"
        rc = main(
            ["generate", "--family", "gnp", "--n", "30", "--p", "0.5",
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 0

    def test_preferential_attachment_with_m(self, tmp_path):
        out = tmp_path / "pa.edges"
        rc = main(
            ["generate", "--family", "preferential-attachment", "--n", "40",
             "--m", "2", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        from repro.graphs.io import read_edge_list

        g = read_edge_list(out)
        assert g.num_edges == 2 + (40 - 2 - 1) * 2


@pytest.fixture
def weighted_graph_file(tmp_path):
    path = tmp_path / "wg.edges"
    rc = main(
        ["generate", "--family", "grid", "--n", "36", "--seed", "2",
         "--weights", "1,5", "--out", str(path)]
    )
    assert rc == 0
    return path


class TestUpdate:
    """``repro update``: offline journaled incremental relabeling."""

    def build_labels(self, graph_file, tmp_path):
        labels = tmp_path / "labels.json"
        rc = main(
            ["labels", str(graph_file), "--engine", "greedy", "--seed", "0",
             "--epsilon", "0.25", "--out", str(labels)]
        )
        assert rc == 0
        return labels

    def an_edge(self, graph_file, index=0):
        from repro.graphs.io import read_edge_list

        edges = sorted(read_edge_list(graph_file).edges(), key=repr)
        u, v, _w = edges[index]
        return str(u), str(v)

    def test_update_verify_and_out(self, weighted_graph_file, tmp_path, capsys):
        labels = self.build_labels(weighted_graph_file, tmp_path)
        journal = tmp_path / "journal.jsonl"
        updated = tmp_path / "updated.json"
        u, v = self.an_edge(weighted_graph_file)
        rc = main(
            ["update", str(weighted_graph_file), "--labels", str(labels),
             "--journal", str(journal), "--engine", "greedy", "--seed", "0",
             "--edge", u, v, "2.875", "--verify", "--out", str(updated)]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "epoch 1" in captured.out
        assert "byte-identical" in captured.out
        assert load_labeling(updated).num_labels == 36

        from repro.dynamic import read_journal

        read = read_journal(journal)
        assert read.last_epoch == 1 and not read.warnings

    def test_second_run_replays_the_journal(
        self, weighted_graph_file, tmp_path, capsys
    ):
        labels = self.build_labels(weighted_graph_file, tmp_path)
        journal = tmp_path / "journal.jsonl"
        u1, v1 = self.an_edge(weighted_graph_file, 0)
        u2, v2 = self.an_edge(weighted_graph_file, 5)
        assert main(
            ["update", str(weighted_graph_file), "--labels", str(labels),
             "--journal", str(journal), "--engine", "greedy", "--seed", "0",
             "--edge", u1, v1, "3.125"]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["update", str(weighted_graph_file), "--labels", str(labels),
             "--journal", str(journal), "--engine", "greedy", "--seed", "0",
             "--edge", u2, v2, "1.625", "--verify"]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "replayed 1 journaled deltas" in captured.out
        assert "epoch 2" in captured.out

    def test_missing_edge_is_a_clean_error(
        self, weighted_graph_file, tmp_path, capsys
    ):
        labels = self.build_labels(weighted_graph_file, tmp_path)
        rc = main(
            ["update", str(weighted_graph_file), "--labels", str(labels),
             "--journal", str(tmp_path / "j.jsonl"), "--engine", "greedy",
             "--seed", "0", "--edge", "0", "35", "2.0"]
        )
        assert rc == 2
        assert "full offline rebuild" in capsys.readouterr().err


def _serve_in_thread(labels):
    """Start an OracleServer on a daemon thread; returns (server, stop)."""
    import asyncio
    import threading

    from repro.serve import OracleServer, ShardedLabelStore, StoreCatalog

    catalog = StoreCatalog()
    catalog.add(ShardedLabelStore.load(labels))
    server = OracleServer(catalog, port=0, cache_size=64)
    started = threading.Event()
    loop_holder = {}

    def serve_thread():
        async def body():
            await server.start()
            loop_holder["loop"] = asyncio.get_running_loop()
            started.set()
            await server.serve_until_shutdown()

        asyncio.run(body())

    thread = threading.Thread(target=serve_thread, daemon=True)
    thread.start()
    assert started.wait(10)

    def stop():
        loop_holder["loop"].call_soon_threadsafe(server.request_shutdown)
        thread.join(timeout=10)
        assert not thread.is_alive()

    return server, stop


class TestLoadgenUpdates:
    def test_updates_under_live_load(self, weighted_graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(
            ["labels", str(weighted_graph_file), "--engine", "greedy",
             "--seed", "0", "--epsilon", "0.25", "--out", str(labels)]
        ) == 0
        server, stop = _serve_in_thread(labels)
        journal = tmp_path / "journal.jsonl"
        bench = tmp_path / "BENCH_dynamic.json"
        try:
            rc = main(
                ["loadgen", "--port", str(server.port),
                 "--labels", str(labels),
                 "--updates", "3", "--update-graph", str(weighted_graph_file),
                 "--engine", "greedy", "--epsilon", "0.25", "--seed", "0",
                 "--queries-per-update", "10", "--verify-queries", "40",
                 "--concurrency", "4",
                 "--update-journal", str(journal),
                 "--bench-out", str(bench)]
            )
        finally:
            stop()
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "updates_applied" in captured.out
        payload = json.loads(bench.read_text())
        assert payload["meta"]["updates"]["applied"] == 3
        assert payload["meta"]["updates"]["rebuild_identical"] is True
        assert payload["meta"]["mismatches"] == 0

        from repro.dynamic import read_journal

        assert read_journal(journal).last_epoch == 3

    def test_updates_need_a_graph(self, capsys):
        rc = main(["loadgen", "--updates", "2"])
        assert rc == 2
        assert "--update-graph" in capsys.readouterr().err


class TestTraceRecordReplay:
    def test_record_then_replay(self, weighted_graph_file, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        assert main(
            ["labels", str(weighted_graph_file), "--out", str(labels)]
        ) == 0
        server, stop = _serve_in_thread(labels)
        trace = tmp_path / "trace.jsonl"
        try:
            rc = main(
                ["loadgen", "--port", str(server.port),
                 "--labels", str(labels), "--pairs", "30",
                 "--verify", "--record-trace", str(trace)]
            )
            assert rc == 0
            capsys.readouterr()
            rc = main(
                ["loadgen", "--port", str(server.port),
                 "--labels", str(labels), "--replay", str(trace),
                 "--verify"]
            )
        finally:
            stop()
        captured = capsys.readouterr()
        assert rc == 0, captured.err

        from repro.serve.querytrace import read_trace

        assert len(read_trace(trace)) == 30

    def test_replay_rejects_a_bad_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "nope/1", "count": 0}\n')
        rc = main(["loadgen", "--replay", str(bad)])
        assert rc == 2
        assert "repro-querytrace/1" in capsys.readouterr().err
