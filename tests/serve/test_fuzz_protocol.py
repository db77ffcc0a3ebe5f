"""Protocol fuzzing: the server must survive anything one line can say.

Two layers, same corpus:

* **Unit**: ``parse_request`` on every fuzz input returns a
  :class:`Request` or raises :class:`ProtocolError` — never any other
  exception.
* **Live**: a real :class:`OracleServer` fed the whole corpus down *one*
  connection answers every single line (valid JSON objects get their
  ``id`` echoed back) and the connection is still usable afterwards.
  A crash, a silent drop, or an unserializable error path would break
  the line count.

The corpus is seeded (``derive_seed``-style reproducibility: same seed,
same bytes) and adversarial by construction: random byte garbage,
structurally valid JSON of the wrong shape, mutated valid requests,
deep nesting, huge numbers, non-finite floats, null bytes, and unicode
edge cases.
"""

import asyncio
import json
import random
import string

import pytest

from repro.core.serialize import RemoteLabels, SerializationError, load_labeling
from repro.serve import OracleServer
from repro.serve.protocol import ProtocolError, Request, parse_request

CORPUS_SIZE = 600
_FUZZ_OPS = ["DIST", "BATCH", "LABEL", "HEALTH", "STATS"]  # no FAULT: the
# live test must not accidentally arm or clear fault plans mid-fuzz.


def _random_scalar(rng: random.Random):
    return rng.choice(
        [
            None,
            True,
            False,
            rng.randint(-(10**12), 10**12),
            rng.random() * 10**6,
            -rng.random(),
            "".join(rng.choices(string.printable, k=rng.randrange(12))),
            "☃" * rng.randrange(4),
            1e308 * rng.choice([1.0, -1.0]),
        ]
    )


def _random_json(rng: random.Random, depth: int = 0):
    if depth > 5:
        return _random_scalar(rng)
    roll = rng.random()
    if roll < 0.5:
        return _random_scalar(rng)
    if roll < 0.75:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        "".join(rng.choices(string.ascii_lowercase, k=3)): _random_json(
            rng, depth + 1
        )
        for _ in range(rng.randrange(4))
    }


def _mutated_request(rng: random.Random) -> dict:
    """Start from a plausible request, then vandalize it."""
    payload = {
        "id": rng.randrange(1000),
        "op": rng.choice(_FUZZ_OPS + ["dist", "QUACK", "", "FAUL T"]),
        "u": rng.choice([0, (0, 0), {"t": [0, 0]}, "x", None, True, [1]]),
        "v": rng.choice([1, {"t": [1, 1]}, {"t": "zz"}, [], {}, -3]),
    }
    for _ in range(rng.randrange(3)):
        mutation = rng.random()
        if mutation < 0.3 and payload:
            payload.pop(rng.choice(sorted(payload)))
        elif mutation < 0.6:
            payload[rng.choice(["pairs", "store", "action", "plan"])] = (
                _random_json(rng, depth=3)
            )
        else:
            payload["id"] = rng.choice(
                [None, {}, [], "x" * 50, 2**70, -0.0, 3.14]
            )
    return payload


def _garbage_bytes(rng: random.Random) -> bytes:
    data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 80)))
    # One request per line: newlines inside would split into several
    # (still legal, but it would break the 1:1 reply accounting below).
    return data.replace(b"\n", b"?").replace(b"\r", b"?")


def _textual_trap(rng: random.Random) -> str:
    """Strings that JSON parsers historically mishandle."""
    return rng.choice(
        [
            "",
            " ",
            "{",
            "}",
            "[[[[[[",
            '{"op": "DIST"',
            '{"op": "DIST", "u": NaN, "v": 1}',
            '{"op": "DIST", "u": Infinity, "v": 1}',
            '{"op": "DIST", "u": -Infinity, "v": 1}',
            '{"op": "DIST", "u": 1e999, "v": 2}',
            '{"op": "DIST", "u": 1, "v": 2, "id": 1e999}',
            '{"id": 1e999, "op": "HEALTH"}',
            '{"op": "BATCH", "pairs": ' + "[" * 60 + "]" * 60 + "}",
            '{"op": "HEALTH"} trailing garbage',
            '{"op": "HEALTH"}{"op": "HEALTH"}',
            "null",
            "true",
            "-1.5",
            '"op"',
            '{"op": null}',
            '{"op": ["DIST"]}',
            '{"\\u0000": 1, "op": "HEALTH"}',
            '{"op": "LABEL", "v": {"t": []}}',
            '{"op": "LABEL", "v": {"t": [true]}}',
            '{"op": "DIST", "u": {"t": 1}, "v": 2}',
        ]
    )


def fuzz_corpus(seed: int = 20260806, size: int = CORPUS_SIZE):
    """*size* reproducible nasty lines: (kind, bytes) tuples."""
    rng = random.Random(seed)
    corpus = []
    for index in range(size):
        roll = rng.random()
        if roll < 0.25:
            corpus.append(("garbage", _garbage_bytes(rng)))
        elif roll < 0.45:
            corpus.append(("trap", _textual_trap(rng).encode("utf-8")))
        elif roll < 0.70:
            doc = json.dumps(_random_json(rng)).replace("\n", " ")
            corpus.append(("shape", doc.encode("utf-8")))
        else:
            doc = json.dumps(_mutated_request(rng))
            corpus.append(("mutant", doc.encode("utf-8")))
    return corpus


class TestParseNeverExplodes:
    def test_corpus_is_big_and_reproducible(self):
        corpus = fuzz_corpus()
        assert len(corpus) >= 500
        assert corpus == fuzz_corpus()
        assert fuzz_corpus(seed=1, size=50) != fuzz_corpus(seed=2, size=50)
        # All four generator families are represented.
        kinds = {kind for kind, _ in corpus}
        assert kinds == {"garbage", "trap", "shape", "mutant"}

    def test_parse_request_total_on_corpus(self):
        for kind, line in fuzz_corpus():
            try:
                request = parse_request(line)
            except ProtocolError:
                continue  # a typed rejection is a correct outcome
            assert isinstance(request, Request), (kind, line)

    def test_non_finite_numbers_are_rejected_not_crashed(self):
        for line in (
            '{"op": "DIST", "u": NaN, "v": 1}',
            '{"op": "DIST", "u": 1e999, "v": 2}',
            '{"id": 1e999, "op": "HEALTH"}',
            '{"op": "HEALTH", "store": "x", "id": [Infinity]}',
        ):
            with pytest.raises(ProtocolError) as info:
                parse_request(line)
            assert info.value.code == "bad_request"


def _labels_seed_payloads():
    """Well-formed labeling payloads in both codecs, as bytes, to
    mutate.  Built once per call: (json_bytes, binary_bytes)."""
    from repro.core.flat import FlatLabel
    from repro.core.serialize import dump_labeling

    remote = RemoteLabels(
        0.25,
        {
            v: FlatLabel.from_entries(
                v, {(i, 0, 0): [(0.5 * i, 1.0 + i)] for i in range(3)}
            )
            for v in [0, 1, "s", (2, 3.5)]
        },
    )
    return (
        dump_labeling(remote).encode("utf-8"),
        dump_labeling(remote, codec="binary", num_shards=3),
    )


def labels_fuzz_corpus(seed: int = 20260807, size: int = 300):
    """*size* mutated labeling files across both codecs.

    Byte-level vandalism of valid /1 and /2 payloads: flips, truncation,
    splices, and duplicate-vertex injections.  Every one must load
    cleanly or raise :class:`SerializationError` — never crash, never
    silently drop a label.
    """
    rng = random.Random(seed)
    json_seed, binary_seed = _labels_seed_payloads()
    corpus = []
    for _ in range(size):
        data = bytearray(rng.choice([json_seed, binary_seed]))
        mutation = rng.random()
        if mutation < 0.4:  # flip a few bytes
            for _ in range(rng.randrange(1, 6)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        elif mutation < 0.6:  # truncate
            del data[rng.randrange(1, len(data)) :]
        elif mutation < 0.8:  # splice a run from elsewhere in the file
            at = rng.randrange(len(data))
            src = rng.randrange(len(data))
            run = data[src : src + rng.randrange(1, 40)]
            data[at:at] = run
        else:  # append garbage
            data += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 30)))
        corpus.append(bytes(data))
    return corpus


class TestLabelsFileFuzz:
    """The label loaders must be total on corrupt files, both codecs."""

    def test_corpus_is_reproducible(self):
        assert labels_fuzz_corpus() == labels_fuzz_corpus()
        assert labels_fuzz_corpus(seed=1, size=20) != labels_fuzz_corpus(
            seed=2, size=20
        )

    def test_load_labeling_total_on_mutated_files(self, tmp_path):
        path = tmp_path / "fuzz.labels"
        outcomes = {"loaded": 0, "rejected": 0}
        for data in labels_fuzz_corpus():
            path.write_bytes(data)
            try:
                remote = load_labeling(path)
            except SerializationError:
                outcomes["rejected"] += 1
                continue
            assert isinstance(remote, RemoteLabels)
            outcomes["loaded"] += 1
        # Mutations overwhelmingly corrupt the payload; the point is
        # that every rejection was the *typed* error.
        assert outcomes["rejected"] > 200, outcomes

    def test_duplicate_vertex_rejected_json_codec(self):
        # The exact corruption the last-wins bug used to swallow.
        label = '{"v": 5, "e": {"0:0:0": [[0.0, 1.0]]}}'
        payload = (
            '{"format": "repro-distance-labels/1", "epsilon": 0.25, '
            f'"labels": [{label}, {label}]}}'
        )
        with pytest.raises(SerializationError, match="duplicate label"):
            load_labeling(payload)

    def test_duplicate_vertex_rejected_binary_codec(self):
        import struct

        from repro.core.binfmt import BinaryLabelReader, pack_labeling
        from repro.core.flat import FlatLabel

        entries = {(0, 0, 0): [(0.0, 1.0)]}
        remote = RemoteLabels(
            0.25,
            {
                5: FlatLabel.from_entries(5, entries),
                5.5: FlatLabel.from_entries(5.5, entries),
            },
        )
        blob = bytearray(pack_labeling(remote, num_shards=1))
        # Forge record 1's vertex (float 5.5, 9 bytes) into int 5.
        start, _ = BinaryLabelReader(bytes(blob))._record_span(1)
        blob[start : start + 9] = b"\x01" + struct.pack("<q", 5)
        with pytest.raises(SerializationError, match="duplicate label"):
            load_labeling(bytes(blob))


class TestServerSurvivesTheCorpus:
    def _drive(self, catalog, corpus):
        async def main():
            server = OracleServer(catalog, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            replies = []
            try:
                for _, line in corpus:
                    writer.write(line + b"\n")
                    await writer.drain()
                    if not line.strip():
                        # Blank lines are documented keep-alives: the
                        # server skips them without replying.
                        replies.append(None)
                        continue
                    reply = await asyncio.wait_for(reader.readline(), 10)
                    replies.append(reply)
                # The connection must still be fully usable afterwards.
                writer.write(b'{"id": "alive", "op": "HEALTH"}\n')
                await writer.drain()
                final = await asyncio.wait_for(reader.readline(), 10)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                await server.shutdown()
            return replies, final

        return asyncio.run(main())

    def test_every_line_gets_a_reply_and_the_connection_lives(self, catalog):
        corpus = fuzz_corpus()
        replies, final = self._drive(catalog, corpus)
        assert len(replies) == len(corpus)
        for (kind, line), reply in zip(corpus, replies):
            if reply is None:
                continue  # blank keep-alive line, lawfully unanswered
            # Never a dropped connection (empty read = EOF), and every
            # reply is one strict-JSON line the client can decode.
            assert reply.endswith(b"\n"), (kind, line, reply)
            response = json.loads(reply)
            assert isinstance(response, dict)
            assert "ok" in response
            if not response["ok"]:
                assert response["error"]["code"], (kind, line)
        survivor = json.loads(final)
        assert survivor["ok"] is True and survivor["id"] == "alive"

    def test_valid_json_objects_get_their_id_echoed(self, catalog):
        corpus = fuzz_corpus()
        replies, _ = self._drive(catalog, corpus)
        checked = 0
        for (_, line), reply in zip(corpus, replies):
            if reply is None:
                continue
            try:
                sent = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError, ValueError):
                continue
            if not isinstance(sent, dict):
                continue
            sent_id = sent.get("id")
            if not isinstance(sent_id, (str, int)) or isinstance(sent_id, bool):
                continue  # unhashable / float ids may be lawfully dropped
            response = json.loads(reply)
            assert response.get("id") == sent_id, (line, reply)
            checked += 1
        assert checked >= 30  # the corpus really exercises the echo path
