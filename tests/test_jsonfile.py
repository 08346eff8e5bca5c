"""Tests for the shared JSON file layer (journals and atomic documents)."""

import json
import os

import pytest

from repro._jsonfile import (
    TEMP_PREFIX,
    append_jsonl,
    parse_jsonl,
    read_json,
    read_jsonl,
    write_json_atomic,
)


class TestReadJsonl:
    def test_skips_blank_torn_and_non_object_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a": 1}\n\n   \n[1, 2]\n7\n{"b": 2}\n'
                        '{"event": "job", "status": "do', encoding="utf-8")
        records, torn = read_jsonl(str(path))
        assert records == [{"a": 1}, {"b": 2}]
        assert torn == 1

    def test_counts_every_torn_line(self):
        records, torn = parse_jsonl(['{"a"', '{"a": 1}', "nul", ""])
        assert records == [{"a": 1}]
        assert torn == 2

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "nowhere.jsonl")) == ([], 0)


class TestAppendJsonl:
    def test_appends_one_sorted_key_line(self, tmp_path):
        path = str(tmp_path / "queue.jsonl")
        first = {"z": 1, "a": [1, {"y": 2, "b": None}], "m": "×"}
        second = {"event": "done", "key": "k"}
        append_jsonl(path, first)
        append_jsonl(path, second, fsync=True)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text == (json.dumps(first, sort_keys=True) + "\n"
                        + json.dumps(second, sort_keys=True) + "\n")
        assert read_jsonl(path) == ([first, second], 0)

    def test_unserialisable_record_leaves_the_journal_alone(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with pytest.raises(TypeError):
            append_jsonl(str(path), {"bad": object()})
        assert not path.exists()


class TestWriteJsonAtomic:
    def test_writes_compact_or_indented_sorted_json(self, tmp_path):
        document = {"z": 1, "a": {"c": 2, "b": 3}}
        compact = tmp_path / "entry.json"
        indented = tmp_path / "manifest.json"
        write_json_atomic(str(compact), document)
        write_json_atomic(str(indented), document, indent=2)
        assert compact.read_text(encoding="utf-8") == json.dumps(
            document, sort_keys=True)
        assert indented.read_text(encoding="utf-8") == json.dumps(
            document, indent=2, sort_keys=True)
        assert read_json(str(compact)) == document

    def test_failed_dump_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "entry.json"
        write_json_atomic(str(path), {"version": 1})
        with pytest.raises(TypeError):
            # "a" serialises before "z" fails: the dump fails partway.
            write_json_atomic(str(path), {"a": "x" * 10_000,
                                          "z": object()})
        assert json.loads(path.read_text(encoding="utf-8")) == {"version": 1}
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_json_atomic(str(tmp_path / "hb-0.json"), {"index": 0})
        assert os.listdir(tmp_path) == []

    def test_temp_files_carry_the_shared_prefix(self, tmp_path,
                                                monkeypatch):
        seen = []

        def record(src, dst):
            seen.append(os.path.basename(src))
            os.remove(src)

        monkeypatch.setattr(os, "replace", record)
        write_json_atomic(str(tmp_path / "layout.json"), {"shards": 16})
        assert len(seen) == 1 and seen[0].startswith(TEMP_PREFIX)


class TestReadJson:
    def test_missing_torn_or_non_object_documents_read_as_none(
            self, tmp_path):
        torn = tmp_path / "torn.json"
        torn.write_text('{"schema": ', encoding="utf-8")
        listed = tmp_path / "list.json"
        listed.write_text("[1]", encoding="utf-8")
        assert read_json(str(tmp_path / "nowhere.json")) is None
        assert read_json(str(torn)) is None
        assert read_json(str(listed)) is None
